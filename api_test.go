package bmw_test

import (
	"math/rand"
	"testing"

	bmw "repro"
)

// TestPriorityQueueContract drives every queue implementation through
// the public interface against a common scenario.
func TestPriorityQueueContract(t *testing.T) {
	queues := map[string]bmw.PriorityQueue{
		"bmwtree":  bmw.NewBMWTree(2, 5),
		"pifo":     bmw.NewPIFO(62),
		"pheap":    bmw.NewPHeap(5),
		"pipeheap": bmw.NewPipelinedHeap(31),
	}
	for name, q := range queues {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			n := q.Cap()
			if n > 31 {
				n = 31
			}
			for i := 0; i < n; i++ {
				if err := q.Push(bmw.Element{Value: uint64(rng.Intn(100)), Meta: uint64(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if q.Len() != n {
				t.Fatalf("Len = %d", q.Len())
			}
			min, err := q.Peek()
			if err != nil {
				t.Fatal(err)
			}
			first, err := q.Pop()
			if err != nil || first != min {
				t.Fatalf("pop %v != peek %v", first, min)
			}
			prev := first.Value
			for q.Len() > 0 {
				e, err := q.Pop()
				if err != nil {
					t.Fatal(err)
				}
				if e.Value < prev {
					t.Fatalf("%s: unsorted pop", name)
				}
				prev = e.Value
			}
			if _, err := q.Pop(); err != bmw.ErrEmpty {
				t.Fatalf("pop empty = %v", err)
			}
		})
	}
}

func TestTreeCapacity(t *testing.T) {
	if bmw.TreeCapacity(4, 8) != 87380 {
		t.Fatal("TreeCapacity(4,8) != 87380")
	}
}

// TestCycleSimContract drives all three hardware simulators through
// the common interface at their maximum legal rates.
func TestCycleSimContract(t *testing.T) {
	sims := map[string]bmw.CycleSim{
		"rbmw":   bmw.NewRBMWSim(2, 6),
		"rpubmw": bmw.NewRPUBMWSim(2, 6),
		"pifo":   bmw.NewPIFOSim(126),
	}
	for name, s := range sims {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 50; i++ {
				if !s.PushAvailable() {
					if _, err := s.Tick(bmw.NopOp()); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if _, err := s.Tick(bmw.PushOp(uint64(i%17), uint64(i))); err != nil {
					t.Fatal(err)
				}
			}
			var prev uint64
			popped := 0
			for s.Len() > 0 {
				if !s.PopAvailable() {
					if _, err := s.Tick(bmw.NopOp()); err != nil {
						t.Fatal(err)
					}
					continue
				}
				e, err := s.Tick(bmw.PopOp())
				if err != nil {
					t.Fatal(err)
				}
				if popped > 0 && e.Value < prev {
					t.Fatalf("%s unsorted pop", name)
				}
				prev = e.Value
				popped++
			}
			if s.Cycle() == 0 {
				t.Fatal("cycles not counted")
			}
		})
	}
}

// TestSTFQOverPublicAPI assembles the PIFO block through the public
// facade.
func TestSTFQOverPublicAPI(t *testing.T) {
	block := bmw.NewPIFOBlock(bmw.NewBMWTree(2, 11), bmw.NewSTFQ(1))
	if block.FlowCapacity() != 4094 {
		t.Fatalf("FlowCapacity = %d", block.FlowCapacity())
	}
	for i := 0; i < 8; i++ {
		if err := block.Enqueue(bmw.Packet{Flow: uint32(i % 2), Bytes: 1500}, i); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	for {
		_, _, err := block.Dequeue()
		if err != nil {
			break
		}
		seen++
	}
	if seen != 8 {
		t.Fatalf("dequeued %d", seen)
	}
}

func TestSynthesisModels(t *testing.T) {
	if r := bmw.SynthRBMW(2, 11); r.Mpps < 190 || r.Mpps > 195 {
		t.Fatalf("R-BMW 11-2 rate = %.1f Mpps, want ≈192", r.Mpps)
	}
	if r := bmw.SynthPIFO(4096); r.Mpps < 39 || r.Mpps > 41 {
		t.Fatalf("PIFO rate = %.1f Mpps, want ≈40", r.Mpps)
	}
	if r := bmw.SynthRPUBMW(4, 8); r.Capacity != 87380 {
		t.Fatalf("RPU-BMW capacity = %d", r.Capacity)
	}
	if r := bmw.ASICRPUBMW(4, 8); r.Mpps != 200 || !r.MeetsTiming600 {
		t.Fatalf("ASIC RPU-BMW = %+v", r)
	}
	if bmw.MaxFPGALevels("R-BMW", 2) != 12 {
		t.Fatal("MaxFPGALevels wrong")
	}
}

func TestSmallFCTExperiment(t *testing.T) {
	cfg := bmw.DefaultNetConfig()
	cfg.NumHosts = 8
	cfg.LinkBps = 1e9
	cfg.NumFlows = 50
	cfg.Load = 0.5
	res := bmw.RunFCTExperiment(cfg)
	if res.Completed != 50 {
		t.Fatalf("completed %d/50", res.Completed)
	}
	bins := bmw.FCTBins(res)
	table := bmw.FCTTable("bmw", bins)
	if len(table) == 0 {
		t.Fatal("empty FCT table")
	}
	if bmw.WebSearchMeanBytes() < 1e6 {
		t.Fatal("web-search mean suspiciously small")
	}
}

// TestAccuracyExperiment verifies the extension experiment's central
// claim: the BMW-Tree is exact (zero non-minimal pops) while every
// approximate scheduler reorders under a bursty rank workload.
func TestAccuracyExperiment(t *testing.T) {
	res := bmw.AccuracyExperiment(5, 20000)
	if len(res) != 5 {
		t.Fatalf("contenders = %d", len(res))
	}
	byName := map[string]bmw.AccuracyResult{}
	for _, r := range res {
		byName[r.Name] = r
	}
	if r := byName["BMW-Tree"]; r.NonMinimal != 0 || r.Pops == 0 {
		t.Fatalf("accurate PIFO produced non-minimal pops: %+v", r)
	}
	for _, name := range []string{"SP-PIFO", "AIFO", "CalendarQ", "Gearbox"} {
		if r := byName[name]; r.NonMinimal == 0 {
			t.Errorf("%s produced no reordering on a bursty pattern: %+v", name, r)
		}
	}
}

// TestApproximateQueuesViaPublicAPI drives the Section 7.2
// approximations through the shared PriorityQueue contract.
func TestApproximateQueuesViaPublicAPI(t *testing.T) {
	queues := map[string]bmw.PriorityQueue{
		"sppifo":    bmw.NewSPPIFO(4, 64),
		"calendarq": bmw.NewCalendarQueue(16, 8, 64),
	}
	for name, q := range queues {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 10; i++ {
				if err := q.Push(bmw.Element{Value: uint64(i), Meta: uint64(i)}); err != nil {
					t.Fatal(err)
				}
			}
			// Monotone pushes dequeue exactly in order (no bursts, no
			// reordering opportunity).
			for i := 0; i < 10; i++ {
				e, err := q.Pop()
				if err != nil || e.Value != uint64(i) {
					t.Fatalf("pop = %v,%v want %d", e, err, i)
				}
			}
			if _, err := q.Pop(); err != bmw.ErrEmpty {
				t.Fatalf("pop empty = %v", err)
			}
		})
	}
	// AIFO deliberately drops high-quantile (here: ascending) arrivals
	// as occupancy grows, so it gets constant ranks: quantile 0, always
	// admitted, strict FIFO out.
	t.Run("aifo", func(t *testing.T) {
		q := bmw.NewAIFO(64, 32, 0.1)
		for i := 0; i < 10; i++ {
			if err := q.Push(bmw.Element{Value: 7, Meta: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			e, err := q.Pop()
			if err != nil || e.Meta != uint64(i) {
				t.Fatalf("pop = %v,%v want meta %d", e, err, i)
			}
		}
		if _, err := q.Pop(); err != bmw.ErrEmpty {
			t.Fatalf("pop empty = %v", err)
		}
	})
}

// TestSchedulerTreeViaPublicAPI builds a two-class HPFQ hierarchy over
// BMW-Trees.
func TestSchedulerTreeViaPublicAPI(t *testing.T) {
	root := bmw.NewSchedulerTree(bmw.NewBMWTree(2, 7), bmw.NewSTFQ(1))
	a := root.AddNode(0, bmw.NewBMWTree(2, 7), bmw.NewSTFQ(1))
	b := root.AddNode(0, bmw.NewBMWTree(2, 7), bmw.NewSTFQ(1))
	for i := 0; i < 10; i++ {
		if err := root.Enqueue(a, bmw.Packet{Flow: 1, Bytes: 100}, nil); err != nil {
			t.Fatal(err)
		}
		if err := root.Enqueue(b, bmw.Packet{Flow: 2, Bytes: 100}, nil); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[uint32]int{}
	for i := 0; i < 20; i++ {
		p, _, err := root.Dequeue()
		if err != nil {
			t.Fatal(err)
		}
		counts[p.Flow]++
	}
	if counts[1] != 10 || counts[2] != 10 {
		t.Fatalf("shares = %v", counts)
	}
}

// TestExactQueuesAgreeOnValues is a metamorphic test: every *exact*
// priority queue in the module, fed the identical operation schedule,
// must emit the identical value sequence (metas may differ on ties —
// tie-breaking is implementation-defined, value order is not).
func TestExactQueuesAgreeOnValues(t *testing.T) {
	make4k := map[string]func() bmw.PriorityQueue{
		"bmwtree":  func() bmw.PriorityQueue { return bmw.NewBMWTree(2, 12) },
		"pifo":     func() bmw.PriorityQueue { return bmw.NewPIFO(8190) },
		"pheap":    func() bmw.PriorityQueue { return bmw.NewPHeap(13) },
		"pipeheap": func() bmw.PriorityQueue { return bmw.NewPipelinedHeap(8191) },
	}
	// One deterministic schedule for everyone.
	rng := rand.New(rand.NewSource(99))
	type step struct {
		push bool
		v    uint64
	}
	var schedule []step
	inFlight := 0
	for i := 0; i < 30000; i++ {
		if inFlight == 0 || (rng.Intn(2) == 0 && inFlight < 4000) {
			schedule = append(schedule, step{push: true, v: uint64(rng.Intn(1 << 14))})
			inFlight++
		} else {
			schedule = append(schedule, step{})
			inFlight--
		}
	}

	var reference []uint64
	for name, mk := range make4k {
		q := mk()
		var got []uint64
		for i, s := range schedule {
			if s.push {
				if err := q.Push(bmw.Element{Value: s.v, Meta: uint64(i)}); err != nil {
					t.Fatalf("%s push: %v", name, err)
				}
			} else {
				e, err := q.Pop()
				if err != nil {
					t.Fatalf("%s pop: %v", name, err)
				}
				got = append(got, e.Value)
			}
		}
		if reference == nil {
			reference = got
			continue
		}
		if len(got) != len(reference) {
			t.Fatalf("%s popped %d values, others %d", name, len(got), len(reference))
		}
		for i := range got {
			if got[i] != reference[i] {
				t.Fatalf("%s diverges at pop %d: %d vs %d", name, i, got[i], reference[i])
			}
		}
	}
}

// TestSoakLargeShapes exercises the paper's largest configurations end
// to end (skipped with -short): the 15-2 and 8-4 RPU-BMW at tens of
// thousands of elements.
func TestSoakLargeShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("large-shape soak")
	}
	for _, shape := range []struct{ m, l int }{{2, 15}, {4, 8}} {
		s := bmw.NewRPUBMWSim(shape.m, shape.l)
		rng := rand.New(rand.NewSource(int64(shape.m)))
		// Fill a third of the capacity, then run saturated push-pop.
		target := s.Cap() / 3
		for i := 0; i < target; i++ {
			if _, err := s.Tick(bmw.PushOp(rng.Uint64()%1_000_000, uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		var prev uint64
		pops := 0
		for i := 0; i < 60000; i++ {
			switch {
			case !s.PushAvailable():
				s.Tick(bmw.NopOp())
			case i%3 == 0 && s.Len() > 0 && s.PopAvailable():
				e, err := s.Tick(bmw.PopOp())
				if err != nil {
					t.Fatal(err)
				}
				// Ranks in the steady pool are uniform; the popped stream
				// is not globally sorted (new smaller ranks arrive), but
				// every pop must return a plausible minimum: <= any value
				// pushed after it pops is unverifiable cheaply here, so
				// track only that pops do not regress below an already
				// popped *and then unmatched* bound; full equivalence is
				// covered by the package tests. Here we check liveness and
				// stability at scale.
				_ = prev
				prev = e.Value
				pops++
			default:
				if _, err := s.Tick(bmw.PushOp(rng.Uint64()%1_000_000, uint64(i))); err != nil {
					t.Fatal(err)
				}
			}
		}
		if pops == 0 {
			t.Fatalf("shape %v: no pops", shape)
		}
	}
}
