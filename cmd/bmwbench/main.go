// Command bmwbench regenerates every table and figure of the paper's
// evaluation (Section 6) and prints them alongside the paper's
// reported values.
//
// Usage:
//
//	bmwbench -exp all                 # everything except fig10
//	bmwbench -exp fig8                # one experiment
//	bmwbench -exp fig10 -quick        # scaled-down packet simulation
//	bmwbench -exp fig10               # full 128-host, 10 Gbps run
//
// Experiments: table1, fig8, table2, fig9, table3, table4, throughput,
// ablation, fig10, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	bmw "repro"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1|fig8|table2|fig9|table3|table4|throughput|ablation|fig10|all")
	quick := flag.Bool("quick", false, "use the scaled-down configuration for fig10")
	seed := flag.Int64("seed", 42, "workload seed for fig10")
	metricsOut := flag.String("metrics-out", "", "write a machine-readable JSON report (metrics and claims) to this path")
	flag.Parse()

	if *metricsOut != "" {
		rep = newReport(*exp, *seed)
	}

	run := func(name string, fn func()) {
		if *exp == name || *exp == "all" {
			fn()
			rep.ran(name)
			fmt.Println()
		}
	}
	run("table1", table1)
	run("fig8", fig8)
	run("table2", table2)
	run("fig9", fig9)
	run("table3", table3)
	run("table4", table4)
	run("throughput", throughput)
	run("ablation", ablation)
	run("accuracy", accuracy)
	if *exp == "fig10" {
		fig10(*quick, *seed)
		rep.ran("fig10")
	} else if *exp == "all" {
		fmt.Println("figure 10 (packet-level FCT) is long-running; invoke with -exp fig10 [-quick]")
	}
	switch *exp {
	case "table1", "fig8", "table2", "fig9", "table3", "table4", "throughput", "ablation", "accuracy", "fig10", "all":
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if rep != nil {
		if err := rep.write(*metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "metrics-out: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metrics report written to %s\n", *metricsOut)
	}
}

func header(s string) { fmt.Printf("=== %s ===\n", s) }

// table1 measures the data-structure comparison of Table 1.
func table1() {
	header("Table 1: BMW-Tree vs heap variants")
	tr := bmw.NewBMWTree(2, 9)
	ph := bmw.NewPHeap(10)
	pl := bmw.NewPipelinedHeap(1023)
	n := 2 * tr.Cap() / 5
	for i := 0; i < n; i++ {
		v := uint64((i * 2654435761) % 65536)
		tr.Push(bmw.Element{Value: v})
		ph.Push(bmw.Element{Value: v})
		pl.Push(bmw.Element{Value: v})
	}
	left, right := ph.SideCounts()
	fmt.Printf("occupied depth at 40%% fill: BMW-Tree %d (insertion-balanced), pHeap %d (left %d vs right %d elements)\n",
		tr.Depth(), ph.MaxDepthUsed(), left, right)
	for i := 0; i < n/2; i++ {
		pl.Pop()
	}
	up, down := pl.PathStats()
	fmt.Printf("pipelined-heap data movement over %d pops: %d bottom-to-top flights (1/pop), %d downward moves\n", n/2, up, down)
	fmt.Printf("BMW-Tree pops move data between adjacent levels only: 0 bottom-to-top flights\n")
	fmt.Printf("paper: BMW insertion-balanced/pipeline-friendly/autonomous; pHeap unbalanced; Pipelined Heap pop not pipeline-friendly\n")
}

// fig8 sweeps R-BMW and PIFO on the FPGA model (Figure 8).
func fig8() {
	header("Figure 8: R-BMW vs PIFO on XCU200")
	fmt.Println("(a) maximum frequency; (b) LUT/elem; (c) FF/elem")
	fmt.Printf("%-8s %8s %10s %10s %10s %10s\n", "design", "levels", "capacity", "Fmax MHz", "LUT/elem", "FF/elem")
	for _, m := range []int{2, 4, 8} {
		max := bmw.MaxFPGALevels("R-BMW", m)
		for l := 3; l <= max; l++ {
			r := bmw.SynthRBMW(m, l)
			fmt.Printf("R-BMW-%d  %8d %10d %10.2f %10.2f %10.2f\n",
				m, l, r.Capacity, r.FmaxMHz, r.LUT/float64(r.Capacity), r.FF/float64(r.Capacity))
		}
	}
	for _, n := range []int{62, 254, 1022, 2046, 4094} {
		p := bmw.SynthPIFO(n)
		fmt.Printf("PIFO     %8s %10d %10.2f %10.2f %10.2f\n",
			"-", p.Capacity, p.FmaxMHz, p.LUT/float64(p.Capacity), p.FF/float64(p.Capacity))
	}
	fmt.Println("paper anchors: 11-2 R-BMW 384.61 MHz / 25.51% LUT; PIFO 4096 at 40 MHz; PIFO consumes the most LUTs")
}

// table2 prints the largest RPU-BMW configurations (Table 2).
func table2() {
	header("Table 2: performance and resources of RPU-BMW on FPGA")
	fmt.Printf("%2s %3s %8s %9s %8s %10s %7s %12s\n", "M", "L", "Cap", "Fmax", "LUT(%)", "LUTRAM(%)", "FF(%)", "Gbps@512B")
	for _, p := range []struct{ m, l int }{{2, 15}, {4, 8}, {8, 5}} {
		r := bmw.SynthRPUBMW(p.m, p.l)
		fmt.Printf("%2d %3d %8d %9.2f %8.2f %10.2f %7.2f %12.1f\n",
			r.M, r.L, r.Capacity, r.FmaxMHz, r.LUTPct, r.LUTRAMPct, r.FFPct, r.GbpsAt(512))
	}
	fmt.Println("paper: 2-15 65534@82.64MHz 11.43/20.13/0.14; 4-8 87380@93.45 15.03/26.81/0.13; 8-5 37448@125 7.36/11.52/0.15")
}

// fig9 sweeps RPU-BMW across orders and levels (Figure 9).
func fig9() {
	header("Figure 9: RPU-BMW across orders on XCU200")
	fmt.Printf("%-10s %6s %10s %10s %8s %10s %8s\n", "design", "levels", "capacity", "Fmax MHz", "LUT(%)", "LUTRAM(%)", "FF(%)")
	for _, m := range []int{2, 4, 8} {
		max := bmw.MaxFPGALevels("RPU-BMW", m)
		for l := 3; l <= max; l++ {
			r := bmw.SynthRPUBMW(m, l)
			fmt.Printf("RPU-BMW-%d %6d %10d %10.2f %8.2f %10.2f %8.3f\n",
				m, l, r.Capacity, r.FmaxMHz, r.LUTPct, r.LUTRAMPct, r.FFPct)
		}
	}
	fmt.Println("shapes: Fmax decreases linearly with levels; LUT/LUTRAM proportional to elements; FF linear in levels")
}

// table3 compares R-BMW and RPU-BMW at equal capacity (Table 3).
func table3() {
	header("Table 3: R-BMW vs RPU-BMW at the largest R-BMW scales")
	fmt.Printf("%2s %3s %9s | %9s %8s %7s | %9s %8s %10s %7s\n",
		"M", "L", "Capacity", "R Fmax", "R LUT%", "R FF%", "RPU Fmax", "RPU LUT%", "RPU LUTRAM%", "RPU FF%")
	for _, p := range []struct{ m, l int }{{2, 11}, {4, 6}, {8, 4}} {
		rb := bmw.SynthRBMW(p.m, p.l)
		rp := bmw.SynthRPUBMW(p.m, p.l)
		fmt.Printf("%2d %3d %9d | %9.2f %8.2f %7.2f | %9.2f %8.2f %10.2f %7.2f\n",
			p.m, p.l, rb.Capacity, rb.FmaxMHz, rb.LUTPct, rb.FFPct,
			rp.FmaxMHz, rp.LUTPct, rp.LUTRAMPct, rp.FFPct)
	}
	fmt.Println("paper: RPU-BMW costs far fewer resources; faster for M=4 and M=8 thanks to affluent resources")
}

// table4 prints the 28 nm ASIC results (Table 4).
func table4() {
	header("Table 4: RPU-BMW and PIFO in GF 28 nm")
	for _, p := range []struct{ m, l int }{{4, 8}, {8, 5}} {
		fmt.Println(bmw.ASICRPUBMW(p.m, p.l))
	}
	fmt.Println(bmw.ASICPIFO(1024))
	r := bmw.ASICRPUBMW(4, 8)
	fmt.Printf("headline: %d flows at %.0f Mpps = %.0f Gbps at 512 B packets, %.3f mm^2, %.2f MB off-chip\n",
		r.Capacity, r.Mpps, r.GbpsAt(512), r.AreaMM2, r.OffChipMB)
	fmt.Println("paper: 1.043 mm^2 (0.522%), 0.57 MB, 5.79 mW; 5-8: 0.127 mm^2, 0.25 MB, 3.10 mW; PIFO 1k: 0.404 mm^2")
}

// throughput verifies the cycle costs and converts them to packet
// rates (experiment E9).
func throughput() {
	header("Throughput headlines (cycle-accurate)")
	pairs := 5000
	rb := cyclesPerPair(bmw.NewRBMWSim(2, 11), pairs)
	rp := cyclesPerPair(bmw.NewRPUBMWSim(4, 8), pairs)
	pf := cyclesPerPair(bmw.NewPIFOSim(4096), pairs)
	fRB := bmw.SynthRBMW(2, 11).FmaxMHz
	fPF := bmw.SynthPIFO(4096).FmaxMHz
	fmt.Printf("R-BMW   11-2: %.3f cycles per push-pop pair x %.2f MHz  = %6.1f Mpps (paper: 192)\n", rb, fRB, fRB/rb)
	fmt.Printf("RPU-BMW  8-4: %.3f cycles per push-pop pair x 600 MHz    = %6.1f Mpps (paper: 200, >800 Gbps at 512 B)\n", rp, 600/rp)
	fmt.Printf("PIFO    4096: %.3f cycles per push-pop pair x %.2f MHz   = %6.1f Mpps (paper: 40)\n", pf, fPF, fPF/pf)
	fmt.Printf("speedup R-BMW/PIFO: %.1fx (paper: 4.8x)\n", (fRB/rb)/(fPF/pf))
	rep.metric("rbmw_cycles_per_pair", rb)
	rep.metric("rpubmw_cycles_per_pair", rp)
	rep.metric("pifo_cycles_per_pair", pf)
	rep.metric("rbmw_mpps", fRB/rb)
	rep.metric("pifo_mpps", fPF/pf)
	if rep != nil {
		throughputProof(rep)
	}
}

func cyclesPerPair(s bmw.CycleSim, pairs int) float64 {
	for i := 0; i < 64 && !s.AlmostFull(); i++ {
		s.Tick(bmw.PushOp(uint64(i%997), 0))
	}
	start := s.Cycle()
	done := 0
	// The original PIFO enqueues and dequeues concurrently in one cycle.
	if dual, ok := s.(interface {
		TickPushPop(bmw.Op) (*bmw.Element, error)
	}); ok {
		for ; done < pairs; done++ {
			if _, err := dual.TickPushPop(bmw.PushOp(uint64(done%997), 0)); err != nil {
				panic(err)
			}
		}
		return float64(s.Cycle()-start) / float64(pairs)
	}
	wantPush := true
	for done < pairs {
		switch {
		case wantPush && s.PushAvailable() && !s.AlmostFull():
			s.Tick(bmw.PushOp(uint64(done%997), 0))
			wantPush = false
		case !wantPush && s.PopAvailable() && s.Len() > 0:
			s.Tick(bmw.PopOp())
			done++
			wantPush = true
		default:
			s.Tick(bmw.NopOp())
		}
	}
	return float64(s.Cycle()-start) / float64(pairs)
}

// ablation prints the design-choice ablations (experiment E10).
func ablation() {
	header("Ablations")
	s1 := bmw.NewRBMWSim(2, 8)
	s2 := bmw.NewRBMWSim(2, 8)
	s2.Sustained = false
	rbOpt, rbPlain := cyclesPerPair(s1, 2000), cyclesPerPair(s2, 2000)
	fmt.Printf("R-BMW   sustained transfer (4.2.2): %.3f cycles/pair; plain sequential (4.2.1): %.3f cycles/pair\n",
		rbOpt, rbPlain)
	u1 := bmw.NewRPUBMWSim(4, 6)
	u2 := bmw.NewRPUBMWSim(4, 6)
	u2.Plain = true
	rpOpt, rpPlain := cyclesPerPair(u1, 2000), cyclesPerPair(u2, 2000)
	fmt.Printf("RPU-BMW comb+hiding (5.2.2-5.2.3): %.3f cycles/pair; plain sequential (5.2.1): %.3f cycles/pair\n",
		rpOpt, rpPlain)
	rep.metric("ablation_rbmw_sustained_cycles_per_pair", rbOpt)
	rep.metric("ablation_rbmw_plain_cycles_per_pair", rbPlain)
	rep.metric("ablation_rpubmw_optimised_cycles_per_pair", rpOpt)
	rep.metric("ablation_rpubmw_plain_cycles_per_pair", rpPlain)
	tr := bmw.NewBMWTree(2, 9)
	ph := bmw.NewPHeap(10)
	for i := 0; i < 2*tr.Cap()/5; i++ {
		v := uint64((i * 40503) % 65536)
		tr.Push(bmw.Element{Value: v})
		ph.Push(bmw.Element{Value: v})
	}
	fmt.Printf("insertion policy at 40%% fill: balanced depth %d vs left-first depth %d\n", tr.Depth(), ph.MaxDepthUsed())
}

// accuracy runs the dequeue-order accuracy comparison against the
// approximate schedulers of Section 7.2 (extension experiment E11).
func accuracy() {
	header("Accuracy: accurate PIFO vs approximations (Section 7.2)")
	fmt.Printf("%-10s %10s %14s %10s %10s\n", "scheduler", "pops", "non-minimal", "rate", "drops")
	for _, r := range bmw.AccuracyExperiment(1, 60000) {
		fmt.Printf("%-10s %10d %14d %9.2f%% %10d\n", r.Name, r.Pops, r.NonMinimal, 100*r.Rate(), r.Dropped)
	}
	fmt.Println("accurate = every pop returns the current minimum rank; the paper's motivation for BMW-Tree")
}

// fig10 runs the packet-level FCT experiment (Figure 10).
func fig10(quick bool, seed int64) {
	header("Figure 10: average normalised FCT (STFQ on the bottleneck)")
	base := bmw.DefaultNetConfig()
	base.Seed = seed
	base.StoreLimit = 0
	base.TCP.MaxRTONs = 10e9
	if quick {
		base.NumHosts = 32
		base.LinkBps = 1e9
		base.BMWLevels = 7
		base.NumFlows = 800
		base.Load = 0.98
		fmt.Println("scaled configuration: 32 hosts, 1 Gbps, capacities 254 (BMW 7-2) vs 32 (PIFO), load 0.98")
	} else {
		base.NumFlows = 6000
		base.Load = 1.3
		fmt.Println("paper-scale: 128 hosts, 10 Gbps, 3 ms links, capacities 4094 (BMW 11-2) vs 512 (PIFO), sustained overload")
	}

	cfgB := base
	cfgB.Scheduler = bmw.SchedBMW
	if quick {
		cfgB.SchedCap = 254
	} else {
		cfgB.SchedCap = 4094
	}
	cfgP := base
	cfgP.Scheduler = bmw.SchedPIFO
	if quick {
		cfgP.SchedCap = 32
	} else {
		cfgP.SchedCap = 512
	}

	t0 := time.Now()
	rb := bmw.RunFCTExperiment(cfgB)
	rp := bmw.RunFCTExperiment(cfgP)
	fmt.Printf("simulated %d flows twice in %v (%d + %d events)\n\n",
		rb.Generated, time.Since(t0).Round(time.Millisecond), rb.Events, rp.Events)

	fmt.Print(bmw.FCTTable("RPU-BMW", bmw.FCTBins(rb)))
	fmt.Println()
	fmt.Print(bmw.FCTTable("PIFO", bmw.FCTBins(rp)))
	fmt.Println()
	bn, pn := rb.FCT.OverallMeanNorm(), rp.FCT.OverallMeanNorm()
	fmt.Printf("overall mean normalised FCT: RPU-BMW %.2f, PIFO %.2f -> %.0f%% reduction\n", bn, pn, 100*(1-bn/pn))
	fmt.Printf("bottleneck loss rate: RPU-BMW %.4f, PIFO %.4f (scheduler-full drops: %d vs %d)\n",
		rb.LossRate, rp.LossRate, rb.BlockStats.DropsScheduler, rp.BlockStats.DropsScheduler)
	fmt.Printf("retransmits/timeouts: RPU-BMW %d/%d, PIFO %d/%d\n", rb.Retransmits, rb.Timeouts, rp.Retransmits, rp.Timeouts)
	fmt.Println("paper: PIFO loses 0.5-4% of packets; RPU-BMW reduces normalised FCT 6-20% for medium and large flows")
}
