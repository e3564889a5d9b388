package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// popRunBatch builds a batch of runs: pushes, pop runs, and bounded pop
// runs that share one bound, each 1 to 300 ops long, so some runs are
// longer than the engine holds and some bounds fall partway through
// what it holds. Ranks are narrow (ties across shards) or 30-bit.
func popRunBatch(rng *rand.Rand, meta *uint64) []Op {
	var ops []Op
	narrow := rng.Intn(2) == 0
	rank := func() uint64 {
		if narrow {
			return uint64(rng.Intn(16))
		}
		return uint64(rng.Intn(1 << 30))
	}
	for seg := 1 + rng.Intn(4); seg > 0; seg-- {
		n := 1 + rng.Intn(300)
		switch rng.Intn(3) {
		case 0:
			for ; n > 0; n-- {
				*meta++
				ops = append(ops, PushOp(core.Element{Value: rank(), Meta: *meta}))
			}
		case 1:
			for ; n > 0; n-- {
				ops = append(ops, PopOp())
			}
		default:
			b := rank()
			for ; n > 0; n-- {
				ops = append(ops, PopBoundedOp(b))
			}
		}
	}
	return ops
}

// counters reads every shard's pop, empty and push counters.
func counters(reg *obs.Registry, shards int) []uint64 {
	var out []uint64
	for i := 0; i < shards; i++ {
		for _, c := range []string{"_pops_total", "_empty_total", "_pushes_total"} {
			out = append(out, reg.Counter(fmt.Sprintf("e_shard%d%s", i, c)).Value())
		}
	}
	return out
}

// newPair builds two engines of one config: one driven by runs, its
// twin one op at a time.
func newPair(t *testing.T, cfg Config) (*Engine, *Engine) {
	t.Helper()
	run, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return run, twin
}

// TestPopRunMatchesPerOp holds the engine's pop runs to the per-op
// loop: at 1, 2 and 4 shards and orders 2 (where a batch's pops take
// the per-op path) and 4 (where its runs go to Tree.PopRun), one engine
// takes batches of runs whole, a twin takes the same ops one per SubmitInto,
// and every Result (Elem, Err, Shard, LSN) and every shard's
// _pops_total, _empty_total and _pushes_total must agree. At the end
// both are drained shard by shard, and must drain alike.
func TestPopRunMatchesPerOp(t *testing.T) {
	for _, order := range []int{2, 4} {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("m=%d/shards=%d", order, shards), func(t *testing.T) {
				cfg := Config{Shards: shards, Order: order, Levels: 4}
				run, twin := newPair(t, cfg)
				runReg, twinReg := obs.NewRegistry(), obs.NewRegistry()
				run.Instrument(runReg, "e")
				twin.Instrument(twinReg, "e")
				rng := rand.New(rand.NewSource(int64(order*10 + shards)))
				var meta uint64
				hits, misses, empties := 0, 0, 0
				partial, dry := 0, 0 // runs that hit, then missed or ran dry
				for b := 0; b < 300; b++ {
					ops := popRunBatch(rng, &meta)
					got := run.Submit(ops)
					for i, op := range ops {
						var want [1]Result
						twin.SubmitInto([]Op{op}, want[:])
						if got[i] != want[0] {
							t.Fatalf("batch %d op %d (kind %d): %+v, per-op %+v", b, i, op.Kind, got[i], want[0])
						}
						hitBefore := i > 0 && ops[i-1] == op && got[i-1].Err == nil
						switch {
						case op.Kind == OpPush:
						case got[i].Err == nil:
							hits++
						case errors.Is(got[i].Err, ErrMiss):
							misses++
							if hitBefore {
								partial++
							}
						default:
							empties++
							if hitBefore {
								dry++
							}
						}
					}
					if a, w := counters(runReg, shards), counters(twinReg, shards); fmt.Sprint(a) != fmt.Sprint(w) {
						t.Fatalf("batch %d: counters %v, per-op %v", b, a, w)
					}
				}
				if hits == 0 || misses == 0 || empties == 0 || partial == 0 || dry == 0 {
					t.Fatalf("%d hits, %d misses, %d empties, %d runs missed partway, %d ran dry: an outcome never occurred",
						hits, misses, empties, partial, dry)
				}
				run.Close()
				twin.Close()
				for i := 0; i < shards; i++ {
					a, err := run.ShardDrain(i)
					if err != nil {
						t.Fatal(err)
					}
					w, err := twin.ShardDrain(i)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(a) != fmt.Sprint(w) {
						t.Fatalf("shard %d drains %v, per-op %v", i, a, w)
					}
				}
			})
		}
	}
}
