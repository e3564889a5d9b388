package bmw_test

import (
	"errors"
	"math/rand"
	"testing"

	bmw "repro"
)

// TestPriorityQueueBoundaries pins the ErrFull/ErrEmpty contract at the
// exact capacity boundaries for every PriorityQueue implementation: a
// queue accepts exactly Cap() elements, refuses the next push with
// ErrFull, yields exactly Cap() sorted elements back, refuses the next
// pop (and peek) with ErrEmpty, and keeps working after both refusals.
func TestPriorityQueueBoundaries(t *testing.T) {
	queues := map[string]bmw.PriorityQueue{
		"bmwtree":  bmw.NewBMWTree(2, 4),
		"pifo":     bmw.NewPIFO(30),
		"pheap":    bmw.NewPHeap(4),
		"pipeheap": bmw.NewPipelinedHeap(30),
	}
	for name, q := range queues {
		t.Run(name, func(t *testing.T) {
			n := q.Cap()
			if n <= 0 {
				t.Fatalf("Cap = %d", n)
			}

			// Empty boundary before any push.
			if _, err := q.Pop(); !errors.Is(err, bmw.ErrEmpty) {
				t.Fatalf("pop on empty = %v, want ErrEmpty", err)
			}
			if _, err := q.Peek(); !errors.Is(err, bmw.ErrEmpty) {
				t.Fatalf("peek on empty = %v, want ErrEmpty", err)
			}

			// Exactly Cap() pushes succeed; descending values stress the
			// placement paths of every design.
			for i := 0; i < n; i++ {
				e := bmw.Element{Value: uint64(n - i), Meta: uint64(i)}
				if err := q.Push(e); err != nil {
					t.Fatalf("push %d/%d: %v", i+1, n, err)
				}
			}
			if q.Len() != n {
				t.Fatalf("Len = %d, want %d", q.Len(), n)
			}

			// Full boundary: one more push must refuse without damage.
			if err := q.Push(bmw.Element{Value: 0, Meta: 999}); !errors.Is(err, bmw.ErrFull) {
				t.Fatalf("push at capacity = %v, want ErrFull", err)
			}
			if q.Len() != n {
				t.Fatalf("Len after refused push = %d, want %d", q.Len(), n)
			}

			// Exactly Cap() sorted pops come back.
			prev := uint64(0)
			for i := 0; i < n; i++ {
				e, err := q.Pop()
				if err != nil {
					t.Fatalf("pop %d/%d: %v", i+1, n, err)
				}
				if e.Value < prev {
					t.Fatalf("pop %d: value %d after %d (unsorted)", i, e.Value, prev)
				}
				prev = e.Value
			}

			// Empty boundary again, then the queue must still work.
			if _, err := q.Pop(); !errors.Is(err, bmw.ErrEmpty) {
				t.Fatalf("pop after drain = %v, want ErrEmpty", err)
			}
			if err := q.Push(bmw.Element{Value: 7, Meta: 1}); err != nil {
				t.Fatalf("push after boundary refusals: %v", err)
			}
			if e, err := q.Pop(); err != nil || e.Value != 7 {
				t.Fatalf("pop after boundary refusals = %v, %v", e, err)
			}
		})
	}
}

// TestMetricsSnapshotInvariants drives every PriorityQueue through a
// randomized workload behind the interface-level probes and checks the
// accounting identities any correct queue-plus-instrumentation pair
// must satisfy at all times: pushes - pops == occupancy, occupancy
// never exceeds capacity, and the high-water mark sits between the
// current occupancy and the capacity.
func TestMetricsSnapshotInvariants(t *testing.T) {
	queues := map[string]bmw.PriorityQueue{
		"bmwtree":  bmw.NewBMWTree(2, 4),
		"pifo":     bmw.NewPIFO(30),
		"pheap":    bmw.NewPHeap(4),
		"pipeheap": bmw.NewPipelinedHeap(30),
	}
	for name, inner := range queues {
		t.Run(name, func(t *testing.T) {
			reg := bmw.NewMetricsRegistry()
			q := bmw.NewInstrumentedQueue(reg, name, inner)
			rng := rand.New(rand.NewSource(7))

			check := func(step int) {
				snap := reg.Snapshot()
				pushes := snap.Counter(name + "_pushes_total")
				pops := snap.Counter(name + "_pops_total")
				occ := snap.Gauge(name + "_occupancy")
				capacity := snap.Gauge(name + "_capacity")
				high := snap.Gauge(name + "_occupancy_highwater")
				if float64(pushes-pops) != occ {
					t.Fatalf("step %d: pushes(%d) - pops(%d) != occupancy(%g)", step, pushes, pops, occ)
				}
				if occ > capacity {
					t.Fatalf("step %d: occupancy %g exceeds capacity %g", step, occ, capacity)
				}
				if high < occ || high > capacity {
					t.Fatalf("step %d: highwater %g outside [occupancy %g, capacity %g]", step, high, occ, capacity)
				}
			}

			// Randomized workload biased toward pushes so the queue
			// sweeps through full (rejections must not count as pushes)
			// and empty (ditto for pops) along the way.
			for i := 0; i < 2000; i++ {
				if rng.Intn(3) != 0 {
					q.Push(bmw.Element{Value: uint64(rng.Intn(512)), Meta: uint64(i)})
				} else {
					q.Pop()
				}
				if i%97 == 0 {
					check(i)
				}
			}
			for q.Len() > 0 {
				if _, err := q.Pop(); err != nil {
					t.Fatalf("drain: %v", err)
				}
			}
			check(-1)
			snap := reg.Snapshot()
			if snap.Gauge(name+"_occupancy") != 0 {
				t.Fatalf("occupancy after drain = %g, want 0", snap.Gauge(name+"_occupancy"))
			}
			if snap.Counter(name+"_pushes_total") != snap.Counter(name+"_pops_total") {
				t.Fatalf("drained queue has pushes %d != pops %d",
					snap.Counter(name+"_pushes_total"), snap.Counter(name+"_pops_total"))
			}
			if snap.Counter(name+"_rejected_ops_total") == 0 {
				t.Fatalf("workload never hit a boundary; rejected_ops_total = 0")
			}
		})
	}
}

// TestMetricsSnapshotInvariants_Sojourn extends the snapshot-invariant
// contract to the sojourn probes of the four exact queues: every pop
// contributes exactly one sojourn observation, and no element can have
// waited longer than the clock that timestamps it has run — real
// cycles for the cycle simulators, the logical push+pop tick count for
// the untimed models (core, pifo).
func TestMetricsSnapshotInvariants_Sojourn(t *testing.T) {
	type sojournProbe interface {
		Instrument(*bmw.MetricsRegistry, string)
		SojournSnapshot() bmw.QuantileSnapshot
	}
	type sojournCase struct {
		q sojournProbe
		// run drives ~ops operations and returns the clock bound the
		// max sojourn must respect.
		run func(rng *rand.Rand, ops int) uint64
	}

	softRun := func(push func(bmw.Element) error, pop func() (bmw.Element, error)) func(*rand.Rand, int) uint64 {
		return func(rng *rand.Rand, ops int) uint64 {
			var pushes, pops uint64
			for i := 0; i < ops; i++ {
				if rng.Intn(3) != 0 {
					if push(bmw.Element{Value: uint64(rng.Intn(512))}) == nil {
						pushes++
					}
				} else if _, err := pop(); err == nil {
					pops++
				}
			}
			return pushes + pops
		}
	}
	simRun := func(s bmw.CycleSim) func(*rand.Rand, int) uint64 {
		return func(rng *rand.Rand, ops int) uint64 {
			for i := 0; i < ops; i++ {
				switch {
				case s.PushAvailable() && !s.AlmostFull() && rng.Intn(3) != 0:
					s.Tick(bmw.PushOp(uint64(rng.Intn(512)), 0))
				case s.PopAvailable() && s.Len() > 0:
					s.Tick(bmw.PopOp())
				default:
					s.Tick(bmw.NopOp())
				}
			}
			return s.Cycle()
		}
	}

	tree := bmw.NewBMWTree(2, 4)
	pf := bmw.NewPIFO(30)
	rb := bmw.NewRBMWSim(2, 4)
	rp := bmw.NewRPUBMWSim(2, 4)
	cases := map[string]sojournCase{
		"bmwtree": {tree, softRun(tree.Push, tree.Pop)},
		"pifo":    {pf, softRun(pf.Push, pf.Pop)},
		"rbmw":    {rb, simRun(rb)},
		"rpubmw":  {rp, simRun(rp)},
	}

	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			reg := bmw.NewMetricsRegistry()
			tc.q.Instrument(reg, name)
			clock := tc.run(rand.New(rand.NewSource(11)), 4000)

			snap := reg.Snapshot()
			pops := snap.Counter(name + "_pops_total")
			if pops == 0 {
				t.Fatal("workload performed no pops")
			}
			soj := snap.Quantile(name + "_sojourn_cycles")
			if soj.Count != pops {
				t.Fatalf("sojourn observations %d != pops %d", soj.Count, pops)
			}
			if direct := tc.q.SojournSnapshot(); direct.Count != soj.Count {
				t.Fatalf("SojournSnapshot count %d != registry snapshot count %d", direct.Count, soj.Count)
			}
			if soj.Max > clock {
				t.Fatalf("max sojourn %d exceeds elapsed clock %d", soj.Max, clock)
			}
			if soj.Min > soj.Max || soj.P50 > soj.P999 {
				t.Fatalf("snapshot not ordered: min=%d max=%d p50=%d p999=%d", soj.Min, soj.Max, soj.P50, soj.P999)
			}
		})
	}
}

// TestRestoredQueueSojournContract extends the sojourn contract across a
// checkpoint/restore cycle: after bmw.Restore into an instrumented
// fresh queue, every pop still contributes exactly one sojourn
// observation, and no recovered element reports a sojourn longer than
// the restored clock — recovered elements carry their persisted born
// tags (or are re-tagged at the recovery clock), never garbage.
func TestRestoredQueueSojournContract(t *testing.T) {
	const name = "restored"

	// base reads the pops counter a restore has just re-established:
	// the counter callbacks read the queue's restored totals, so the
	// pre-crash pops reappear immediately, before any new observation.
	base := func(reg *bmw.MetricsRegistry) uint64 {
		return reg.Snapshot().Counter(name + "_pops_total")
	}
	// checkSojourn asserts the accounting identities: the counter grew
	// by exactly the drained pops, the sojourn histogram (which only
	// observes live pops) recorded exactly one sample per drained pop,
	// and no recovered element claims to have waited longer than the
	// restored clock has run.
	checkSojourn := func(t *testing.T, reg *bmw.MetricsRegistry, restored, pops, clock uint64) {
		t.Helper()
		if pops == 0 {
			t.Fatal("restored queue drained no elements; test is vacuous")
		}
		snap := reg.Snapshot()
		if got := snap.Counter(name + "_pops_total"); got != restored+pops {
			t.Fatalf("pops_total = %d, want restored %d + drained %d", got, restored, pops)
		}
		soj := snap.Quantile(name + "_sojourn_cycles")
		if soj.Count != pops {
			t.Fatalf("sojourn observations %d != successful pops %d", soj.Count, pops)
		}
		if soj.Max > clock {
			t.Fatalf("max sojourn %d exceeds restored clock %d", soj.Max, clock)
		}
	}

	t.Run("bmwtree", func(t *testing.T) {
		dir := t.TempDir()
		a := bmw.NewBMWTree(2, 4)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 400; i++ {
			if rng.Intn(3) != 0 {
				a.Push(bmw.Element{Value: uint64(rng.Intn(512)), Meta: uint64(i)})
			} else {
				a.Pop()
			}
		}
		if err := bmw.Checkpoint(dir, a); err != nil {
			t.Fatal(err)
		}

		b := bmw.NewBMWTree(2, 4)
		reg := bmw.NewMetricsRegistry()
		b.Instrument(reg, name)
		rep, err := bmw.Restore(dir, b)
		if err != nil {
			t.Fatal(err)
		}
		if rep.SnapshotSeq == 0 {
			t.Fatal("restore fell back to genesis replay; no snapshot restored")
		}
		if b.Len() != a.Len() {
			t.Fatalf("restored %d elements, want %d", b.Len(), a.Len())
		}
		restored := base(reg)
		var pops uint64
		for b.Len() > 0 {
			if _, err := b.Pop(); err != nil {
				t.Fatal(err)
			}
			pops++
		}
		p, q := b.OpStats()
		checkSojourn(t, reg, restored, pops, p+q)
	})
}
