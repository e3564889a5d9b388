package engine

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestPopBoundedHonoursBound pins the conditional pop: a head at or
// under the bound is popped exactly like a plain
// pop (element, shard, next LSN), a head over it — or an empty queue —
// is a miss that leaves length, LSN and the empties counter alone.
// It runs under the served tree's kind name.
func TestPopBoundedHonoursBound(t *testing.T) { t.Run(manifestKind, testPopBoundedHonoursBound) }

func testPopBoundedHonoursBound(t *testing.T) {
	e, err := New(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	reg := obs.NewRegistry()
	e.Instrument(reg, "eng")
	empties := func() uint64 { return reg.Counter("eng_shard0_empty_total").Value() }

	miss := func(bound uint64, when string) {
		t.Helper()
		lsn, n := e.ShardLSN(0), e.Len()
		res := e.Submit([]Op{PopBoundedOp(bound)})
		if !errors.Is(res[0].Err, ErrMiss) || res[0].LSN != 0 {
			t.Fatalf("%s: bounded pop(%d) = %+v, want ErrMiss with LSN 0", when, bound, res[0])
		}
		if e.ShardLSN(0) != lsn || e.Len() != n {
			t.Fatalf("%s: miss moved LSN %d->%d or len %d->%d", when, lsn, e.ShardLSN(0), n, e.Len())
		}
	}

	miss(math.MaxUint64, "empty queue")
	for i, v := range []uint64{30, 10, 20} {
		if res := e.Submit([]Op{PushOp(core.Element{Value: v, Meta: uint64(i)})}); res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
	}
	miss(9, "head above bound")

	// Inclusive bound, and one batch stops at the first element
	// over it: 10 and 20 come out, the third op misses on 30.
	lsn := e.ShardLSN(0)
	res := e.Submit([]Op{PopBoundedOp(10), PopBoundedOp(25), PopBoundedOp(25)})
	for i, want := range []uint64{10, 20} {
		if res[i].Err != nil || res[i].Elem.Value != want || res[i].Shard != 0 || res[i].LSN != lsn+uint64(i)+1 {
			t.Fatalf("hit %d = %+v, want %d at LSN %d", i, res[i], want, lsn+uint64(i)+1)
		}
	}
	if !errors.Is(res[2].Err, ErrMiss) {
		t.Fatalf("third op = %+v, want ErrMiss", res[2])
	}
	if e.Len() != 1 || e.ShardLSN(0) != lsn+2 {
		t.Fatalf("after batch: len %d LSN %d, want 1 and %d", e.Len(), e.ShardLSN(0), lsn+2)
	}
	if got := empties(); got != 0 {
		t.Fatalf("misses counted as %d empty pops", got)
	}
}

// TestPopBoundedTightensAcrossShards is the multi-shard half: K bounded
// pops submitted as ONE batch all route to the shard publishing the
// smallest head, and the submit path caps their bound at the other
// shard's head, so the batch yields a prefix of the global order and
// misses where the sibling takes over. A sequential caller repeating
// such batches drains the engine in globally sorted order under both
// routing policies — under RouteHash, where ranks interleave across
// shards, an untightened bound would take a whole shard first.
func TestPopBoundedTightensAcrossShards(t *testing.T) {
	for _, routing := range []Routing{RouteRank, RouteHash} {
		name := map[Routing]string{RouteRank: "rank", RouteHash: "hash"}[routing]
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig(2)
			cfg.Routing = routing
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			rng := rand.New(rand.NewSource(11))
			var want []uint64
			for i := 0; i < 120; i++ {
				v := rng.Uint64() % (1 << 16)
				if res := e.Submit([]Op{PushOp(core.Element{Value: v, Meta: uint64(i)})}); res[0].Err != nil {
					t.Fatal(res[0].Err)
				}
				want = append(want, v)
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if e.ShardLen(0) == 0 || e.ShardLen(1) == 0 {
				t.Fatalf("one shard empty (%d/%d): nothing to tighten against", e.ShardLen(0), e.ShardLen(1))
			}

			const k = 8
			ops := make([]Op, k)
			for i := range ops {
				ops[i] = PopBoundedOp(math.MaxUint64)
			}
			var got []uint64
			batches, short := 0, 0
			for len(got) < len(want) {
				batches++
				if batches > len(want)+1 {
					t.Fatalf("no progress: %d of %d after %d batches", len(got), len(want), batches)
				}
				hits, missed := 0, false
				for _, r := range e.Submit(ops) {
					switch {
					case r.Err == nil && !missed:
						got = append(got, r.Elem.Value)
						hits++
					case errors.Is(r.Err, ErrMiss):
						missed = true
					default:
						t.Fatalf("batch %d: %+v (hit after a miss, or an error)", batches, r)
					}
				}
				if hits == 0 {
					t.Fatalf("batch %d took nothing with %d left", batches, len(want)-len(got))
				}
				if hits < k && len(got) < len(want) {
					short++
				}
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("drain[%d] = %d, want %d (not globally sorted)", i, got[i], want[i])
				}
			}
			if short == 0 {
				t.Fatal("no batch was cut short: the sibling's head never tightened a bound")
			}
			if ops[0].Elem.Value != math.MaxUint64 {
				t.Fatal("Submit rewrote the caller's op with the tightened bound")
			}
		})
	}
}
