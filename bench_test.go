// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 6). Each benchmark does the real work of its
// experiment per iteration and attaches the headline quantities as
// custom metrics, so `go test -bench=. -benchmem` reproduces the
// numbers EXPERIMENTS.md records. cmd/bmwbench prints the same data as
// full tables.
package bmw_test

import (
	"fmt"
	"math/rand"
	"testing"

	bmw "repro"
)

// fillQueue pushes n random elements.
func fillQueue(q bmw.PriorityQueue, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if err := q.Push(bmw.Element{Value: uint64(rng.Intn(1 << 16)), Meta: uint64(i)}); err != nil {
			panic(err)
		}
	}
}

// BenchmarkTable1_Balance quantifies the Table 1 "Balanced" column:
// after inserting half the capacity, the BMW-Tree's occupied depth
// stays at the information-theoretic minimum while pHeap's left-first
// steering reaches its full depth. Reported metrics: occupied depth of
// each structure.
func BenchmarkTable1_Balance(b *testing.B) {
	const levels = 10 // pHeap capacity 1023; BMW 2-order, 9 levels = 1022
	var bmwDepth, pheapDepth int
	for i := 0; i < b.N; i++ {
		tr := bmw.NewBMWTree(2, 9)
		ph := bmw.NewPHeap(levels)
		fillQueue(tr, 2*tr.Cap()/5, int64(i))
		fillQueue(ph, 2*tr.Cap()/5, int64(i))
		bmwDepth = tr.Depth()
		pheapDepth = ph.MaxDepthUsed()
	}
	b.ReportMetric(float64(bmwDepth), "bmw-depth")
	b.ReportMetric(float64(pheapDepth), "pheap-depth")
}

// BenchmarkTable1_PipelineMoves quantifies the Table 1
// "Pipeline-friendly" column: BMW-Tree pops move data only between
// adjacent levels, while the Pipelined Heap's classic pop flies the
// right-most leaf from the bottom to the root every time. Metric:
// bottom-to-top flights per pop.
func BenchmarkTable1_PipelineMoves(b *testing.B) {
	var perPop float64
	for i := 0; i < b.N; i++ {
		h := bmw.NewPipelinedHeap(1023)
		fillQueue(h, 1000, int64(i))
		for j := 0; j < 500; j++ {
			if _, err := h.Pop(); err != nil {
				b.Fatal(err)
			}
		}
		up, _ := h.PathStats()
		perPop = float64(up) / 500
	}
	b.ReportMetric(perPop, "pipeheap-up-flights/pop")
	b.ReportMetric(0, "bmw-up-flights/pop") // adjacent-level lifts only
}

// BenchmarkFigure8a regenerates the frequency series of Figure 8(a):
// modelled Fmax of R-BMW (M=2,4,8) and PIFO across capacities. The
// metrics carry the headline points; the full sweep prints via
// cmd/bmwbench -exp fig8.
func BenchmarkFigure8a(b *testing.B) {
	var r2, r4, r8, p bmw.FPGAReport
	for i := 0; i < b.N; i++ {
		r2 = bmw.SynthRBMW(2, 11)
		r4 = bmw.SynthRBMW(4, 6)
		r8 = bmw.SynthRBMW(8, 4)
		p = bmw.SynthPIFO(4096)
	}
	b.ReportMetric(r2.FmaxMHz, "rbmw2-MHz")
	b.ReportMetric(r4.FmaxMHz, "rbmw4-MHz")
	b.ReportMetric(r8.FmaxMHz, "rbmw8-MHz")
	b.ReportMetric(p.FmaxMHz, "pifo-MHz")
}

// BenchmarkFigure8b_8c regenerates the per-element resource series of
// Figure 8(b, c): LUTs and FFs per element are constant per design.
func BenchmarkFigure8b_8c(b *testing.B) {
	var lut2, lutP, ff2, ffP float64
	for i := 0; i < b.N; i++ {
		r := bmw.SynthRBMW(2, 8)
		p := bmw.SynthPIFO(510)
		lut2 = r.LUT / float64(r.Capacity)
		lutP = p.LUT / float64(p.Capacity)
		ff2 = r.FF / float64(r.Capacity)
		ffP = p.FF / float64(p.Capacity)
	}
	b.ReportMetric(lut2, "rbmw2-LUT/elem")
	b.ReportMetric(lutP, "pifo-LUT/elem")
	b.ReportMetric(ff2, "rbmw2-FF/elem")
	b.ReportMetric(ffP, "pifo-FF/elem")
}

// BenchmarkTable2 regenerates the largest-scale RPU-BMW rows of
// Table 2 and reports the 8-4 configuration's headline capacity and
// frequency.
func BenchmarkTable2(b *testing.B) {
	var r bmw.FPGAReport
	for i := 0; i < b.N; i++ {
		for _, p := range []struct{ m, l int }{{2, 15}, {4, 8}, {8, 5}} {
			rep := bmw.SynthRPUBMW(p.m, p.l)
			if !rep.Feasible {
				b.Fatalf("Table 2 point %v infeasible", p)
			}
			if p.m == 4 {
				r = rep
			}
		}
	}
	b.ReportMetric(float64(r.Capacity), "rpubmw84-flows")
	b.ReportMetric(r.FmaxMHz, "rpubmw84-MHz")
	b.ReportMetric(r.GbpsAt(512), "rpubmw84-Gbps@512B")
}

// BenchmarkFigure9 regenerates the RPU-BMW sweeps of Figure 9 across
// orders and levels; metric: the frequency decline per added level for
// M=4 (the linear slope of Fig. 9a).
func BenchmarkFigure9(b *testing.B) {
	var slope float64
	for i := 0; i < b.N; i++ {
		f6 := bmw.SynthRPUBMW(4, 6).FmaxMHz
		f8 := bmw.SynthRPUBMW(4, 8).FmaxMHz
		slope = (f6 - f8) / 2
	}
	b.ReportMetric(slope, "MHz-per-level")
}

// BenchmarkTable3 regenerates the R-BMW versus RPU-BMW comparison at
// equal capacities; metric: RPU-BMW's LUT saving factor at the 11-2
// point.
func BenchmarkTable3(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		rb := bmw.SynthRBMW(2, 11)
		rp := bmw.SynthRPUBMW(2, 11)
		saving = rb.LUTPct / rp.LUTPct
	}
	b.ReportMetric(saving, "lut-saving-x")
}

// BenchmarkTable4 regenerates the 28 nm ASIC results; metrics: the 8-4
// RPU-BMW area, off-chip memory and scheduling rate at 600 MHz.
func BenchmarkTable4(b *testing.B) {
	var r bmw.ASICReport
	for i := 0; i < b.N; i++ {
		r = bmw.ASICRPUBMW(4, 8)
		if !r.MeetsTiming600 {
			b.Fatal("8-4 RPU-BMW must meet timing")
		}
	}
	b.ReportMetric(r.AreaMM2, "area-mm2")
	b.ReportMetric(r.OffChipMB, "offchip-MB")
	b.ReportMetric(r.Mpps, "Mpps@600MHz")
	b.ReportMetric(r.GbpsAt(512), "Gbps@512B")
}

// cycleThroughput drives a cycle simulator with the densest legal
// push-pop schedule and returns cycles per (push+pop) pair.
func cycleThroughput(s bmw.CycleSim, pairs int) float64 {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64 && !s.AlmostFull(); i++ {
		s.Tick(bmw.PushOp(uint64(rng.Intn(1<<16)), 0))
	}
	start := s.Cycle()
	done := 0
	// The original PIFO enqueues and dequeues concurrently in one cycle.
	if dual, ok := s.(interface {
		TickPushPop(bmw.Op) (*bmw.Element, error)
	}); ok {
		for ; done < pairs; done++ {
			if _, err := dual.TickPushPop(bmw.PushOp(uint64(rng.Intn(1<<16)), 0)); err != nil {
				panic(err)
			}
		}
		return float64(s.Cycle()-start) / float64(pairs)
	}
	wantPush := true
	for done < pairs {
		switch {
		case wantPush && s.PushAvailable() && !s.AlmostFull():
			if _, err := s.Tick(bmw.PushOp(uint64(rng.Intn(1<<16)), 0)); err != nil {
				panic(err)
			}
			wantPush = false
		case !wantPush && s.PopAvailable() && s.Len() > 0:
			if _, err := s.Tick(bmw.PopOp()); err != nil {
				panic(err)
			}
			done++
			wantPush = true
		default:
			s.Tick(bmw.NopOp())
		}
	}
	return float64(s.Cycle()-start) / float64(pairs)
}

// BenchmarkThroughputCycles_E9 verifies the cycle costs behind every
// throughput headline (experiment E9): R-BMW 2 cycles per push-pop
// pair (=> 192 Mpps at 384.61 MHz), RPU-BMW 3 cycles (=> 200 Mpps at
// 600 MHz), PIFO 2 cycles per pair but at a collapsed clock.
func BenchmarkThroughputCycles_E9(b *testing.B) {
	var rb, rp, pf float64
	for i := 0; i < b.N; i++ {
		rb = cycleThroughput(bmw.NewRBMWSim(2, 11), 2000)
		rp = cycleThroughput(bmw.NewRPUBMWSim(4, 8), 2000)
		pf = cycleThroughput(bmw.NewPIFOSim(4096), 2000)
	}
	b.ReportMetric(rb, "rbmw-cycles/pair")
	b.ReportMetric(rp, "rpubmw-cycles/pair")
	b.ReportMetric(pf, "pifo-cycles/pair")
	b.ReportMetric(bmw.SynthRBMW(2, 11).FmaxMHz/rb, "rbmw-Mpps")
	b.ReportMetric(600/rp, "rpubmw-Mpps@600MHz")
}

// BenchmarkFigure10 runs the scaled packet-level experiment once per
// iteration (both schedulers) and reports the overall normalised-FCT
// reduction — the headline of Figure 10. The full-scale run (128
// hosts, 10 Gbps, capacities 4094 vs 512) prints via cmd/bmwbench
// -exp fig10.
func BenchmarkFigure10(b *testing.B) {
	var bn, pn float64
	for i := 0; i < b.N; i++ {
		base := bmw.DefaultNetConfig()
		base.NumHosts = 32
		base.LinkBps = 1e9
		base.BMWLevels = 7
		base.StoreLimit = 0
		base.TCP.MaxRTONs = 10e9
		base.NumFlows = 800
		base.Load = 0.98
		base.Seed = 42

		cfgB := base
		cfgB.Scheduler = bmw.SchedBMW
		cfgB.SchedCap = 254
		cfgP := base
		cfgP.Scheduler = bmw.SchedPIFO
		cfgP.SchedCap = 32

		rb := bmw.RunFCTExperiment(cfgB)
		rp := bmw.RunFCTExperiment(cfgP)
		bn = rb.FCT.OverallMeanNorm()
		pn = rp.FCT.OverallMeanNorm()
	}
	b.ReportMetric(bn, "bmw-norm-fct")
	b.ReportMetric(pn, "pifo-norm-fct")
	b.ReportMetric(100*(1-bn/pn), "fct-reduction-%")
}

// BenchmarkAblation_SustainedTransfer quantifies the Section 4.2.2
// optimisation: with sustained transfer a push-pop pair costs 2
// cycles; the plain Section 4.2.1 design needs 4 (pop occupies 3
// cycles and blocks the following push).
func BenchmarkAblation_SustainedTransfer(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		s1 := bmw.NewRBMWSim(2, 8)
		with = cycleThroughput(s1, 1000)
		s2 := bmw.NewRBMWSim(2, 8)
		s2.Sustained = false
		without = cycleThroughput(s2, 1000)
	}
	b.ReportMetric(with, "sustained-cycles/pair")
	b.ReportMetric(without, "plain-cycles/pair")
}

// BenchmarkAblation_InsertionPolicy compares balanced (BMW) and
// left-first (pHeap) insertion: same software push/pop workload, depth
// reached at half fill.
func BenchmarkAblation_InsertionPolicy(b *testing.B) {
	for _, impl := range []string{"bmw-balanced", "pheap-leftfirst"} {
		b.Run(impl, func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			var q bmw.PriorityQueue
			if impl == "bmw-balanced" {
				q = bmw.NewBMWTree(2, 9)
			} else {
				q = bmw.NewPHeap(10)
			}
			half := 511
			fillQueue(q, half, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Push(bmw.Element{Value: uint64(rng.Intn(1 << 16))})
				q.Pop()
			}
		})
	}
}

// BenchmarkAblation_Order compares software push-pop throughput across
// tree orders at similar capacity (the M trade-off of Section 6.1).
func BenchmarkAblation_Order(b *testing.B) {
	for _, shape := range []struct{ m, l int }{{2, 11}, {4, 6}, {8, 4}} {
		b.Run(fmt.Sprintf("M%d", shape.m), func(b *testing.B) {
			tr := bmw.NewBMWTree(shape.m, shape.l)
			rng := rand.New(rand.NewSource(1))
			fillQueue(tr, tr.Cap()/2, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Push(bmw.Element{Value: uint64(rng.Intn(1 << 16))})
				tr.Pop()
			}
		})
	}
}

// BenchmarkSoftwareQueues measures raw software push-pop throughput of
// every priority queue at 4k scale (library-quality baseline numbers,
// not a paper artifact).
func BenchmarkSoftwareQueues(b *testing.B) {
	makers := map[string]func() bmw.PriorityQueue{
		"bmwtree-2-11": func() bmw.PriorityQueue { return bmw.NewBMWTree(2, 11) },
		"pifo-4094":    func() bmw.PriorityQueue { return bmw.NewPIFO(4094) },
		"pheap-12":     func() bmw.PriorityQueue { return bmw.NewPHeap(12) },
		"pipeheap-4k":  func() bmw.PriorityQueue { return bmw.NewPipelinedHeap(4095) },
	}
	for name, mk := range makers {
		b.Run(name, func(b *testing.B) {
			q := mk()
			rng := rand.New(rand.NewSource(1))
			fillQueue(q, q.Cap()/2, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Push(bmw.Element{Value: uint64(rng.Intn(1 << 16))})
				q.Pop()
			}
		})
	}
}

// BenchmarkCycleSimSpeed measures simulator performance itself:
// simulated cycles per second of wall time for each hardware model.
func BenchmarkCycleSimSpeed(b *testing.B) {
	sims := map[string]func() bmw.CycleSim{
		"rbmw-2-11":  func() bmw.CycleSim { return bmw.NewRBMWSim(2, 11) },
		"rpubmw-4-8": func() bmw.CycleSim { return bmw.NewRPUBMWSim(4, 8) },
	}
	for name, mk := range sims {
		b.Run(name, func(b *testing.B) {
			s := mk()
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.PushAvailable() && !s.AlmostFull() {
					s.Tick(bmw.PushOp(uint64(rng.Intn(1<<16)), 0))
				} else if s.PopAvailable() && s.Len() > 0 {
					s.Tick(bmw.PopOp())
				} else {
					s.Tick(bmw.NopOp())
				}
			}
		})
	}
}

// BenchmarkPushPop measures the R-BMW hot path (alternating push/pop
// at the sustained rate) with instrumentation disabled versus enabled.
// The "bare" variant is the regression guard for the observability
// probes: with no registry attached every hook is a single nil check,
// so it must stay within a few percent of the pre-probe simulator.
func BenchmarkPushPop(b *testing.B) {
	run := func(b *testing.B, s bmw.CycleSim) {
		for i := 0; i < 64; i++ {
			s.Tick(bmw.PushOp(uint64(i%997), 0))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Tick(bmw.PushOp(uint64(i%997), 0))
			s.Tick(bmw.PopOp())
		}
	}
	b.Run("rbmw-bare", func(b *testing.B) {
		run(b, bmw.NewRBMWSim(2, 11))
	})
	b.Run("rbmw-instrumented", func(b *testing.B) {
		s := bmw.NewRBMWSim(2, 11)
		s.Instrument(bmw.NewMetricsRegistry(), "rbmw")
		run(b, s)
	})
}

// BenchmarkAccuracy_E11 runs the dequeue-order accuracy experiment
// (extension E11): the fraction of pops returning a non-minimal rank
// for the accurate BMW-Tree versus the approximate schedulers of
// Section 7.2 under a bursty rank workload.
func BenchmarkAccuracy_E11(b *testing.B) {
	var res []bmw.AccuracyResult
	for i := 0; i < b.N; i++ {
		res = bmw.AccuracyExperiment(int64(i+1), 20000)
	}
	for _, r := range res {
		b.ReportMetric(100*r.Rate(), r.Name+"-nonmin-%")
	}
}

// BenchmarkExtension_GearboxHorizon compares the gearbox's rank
// horizon with a flat calendar at the same bucket budget (the Gearbox
// extension, experiment E13).
func BenchmarkExtension_GearboxHorizon(b *testing.B) {
	var gb, flat float64
	for i := 0; i < b.N; i++ {
		g := bmw.NewGearbox(3, 16, 16, 1024)
		gb = float64(g.Horizon())
		flat = float64(3*16) * 16 // the same 48 buckets in one ring
	}
	b.ReportMetric(gb, "gearbox-horizon")
	b.ReportMetric(flat, "flat-horizon")
	b.ReportMetric(gb/flat, "horizon-gain-x")
}

// BenchmarkExtension_HierarchyThroughput measures HPFQ over BMW-Tree
// nodes: enqueue+dequeue pairs through a two-level scheduling tree.
func BenchmarkExtension_HierarchyThroughput(b *testing.B) {
	root := bmw.NewSchedulerTree(bmw.NewBMWTree(2, 12), bmw.NewSTFQ(1))
	classes := make([]int, 4)
	for i := range classes {
		classes[i] = root.AddNode(0, bmw.NewBMWTree(2, 12), bmw.NewSTFQ(1))
	}
	// Prefill.
	for i := 0; i < 256; i++ {
		root.Enqueue(classes[i%4], bmw.Packet{Flow: uint32(i % 16), Bytes: 1000}, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := root.Enqueue(classes[i%4], bmw.Packet{Flow: uint32(i % 16), Bytes: 1000}, nil); err != nil {
			b.Fatal(err)
		}
		if _, _, err := root.Dequeue(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_OperationHiding quantifies the Section 5.2.2-5.2.3
// optimisations: the plain sequential RPU (Section 5.2.1) needs 9
// cycles per push-pop pair; combinational logic plus operation hiding
// on write-first SRAMs bring it to 3.
func BenchmarkAblation_OperationHiding(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		s1 := bmw.NewRPUBMWSim(4, 6)
		with = cycleThroughput(s1, 500)
		s2 := bmw.NewRPUBMWSim(4, 6)
		s2.Plain = true
		without = cycleThroughput(s2, 500)
	}
	b.ReportMetric(with, "optimised-cycles/pair")
	b.ReportMetric(without, "plain-cycles/pair")
}
