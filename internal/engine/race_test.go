package engine

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestConcurrentPushPopContract is the concurrency-safety contract of
// the serving layer, meaningful under -race (the CI race job runs this
// package): many goroutines race batched pushes and pops against a
// shard group, and afterwards the engine must account for every
// element exactly — nothing lost, nothing invented, every shard drain
// sorted. About one batch in four goes op by op through Engine.Push and
// Engine.Pop instead. The bare queues carry no locks by design (see
// docs_test.go); the engine is the layer that must be clean under the
// race detector.
func TestConcurrentPushPopContract(t *testing.T) {
	e, err := New(Config{Shards: 4, Order: 2, Levels: 8}) // 510 per shard
	if err != nil {
		t.Fatal(err)
	}

	const (
		workers    = 8
		opsPerGoro = 3000
	)
	var (
		mu     sync.Mutex
		ledger = map[core.Element]int{} // +pushed, -popped
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			pushedHere := map[core.Element]int{}
			poppedHere := map[core.Element]int{}
			ops := make([]Op, 0, 16)
			for done := 0; done < opsPerGoro; {
				ops = ops[:0]
				n := 1 + rng.Intn(16)
				for i := 0; i < n; i++ {
					if rng.Intn(2) == 0 {
						el := core.Element{
							Value: uint64(rng.Intn(1 << 16)),
							Meta:  uint64(w)<<32 | uint64(done+i),
						}
						ops = append(ops, PushOp(el))
					} else {
						ops = append(ops, PopOp())
					}
				}
				results := make([]Result, len(ops))
				if done%4 == 0 {
					for i, op := range ops {
						if op.Kind == OpPush {
							results[i].Err = e.Push(op.Elem)
						} else {
							results[i].Elem, results[i].Err = e.Pop()
						}
					}
				} else {
					e.SubmitInto(ops, results)
				}
				for i, r := range results {
					switch ops[i].Kind {
					case OpPush:
						if r.Err == nil {
							pushedHere[ops[i].Elem]++
						} else if !errors.Is(r.Err, ErrBackpressure) && !errors.Is(r.Err, core.ErrFull) {
							t.Errorf("push: unexpected error %v", r.Err)
						}
					case OpPop:
						if r.Err == nil {
							poppedHere[r.Elem]++
						} else if !errors.Is(r.Err, core.ErrEmpty) {
							t.Errorf("pop: unexpected error %v", r.Err)
						}
					}
				}
				done += n
			}
			mu.Lock()
			for el, n := range pushedHere {
				ledger[el] += n
			}
			for el, n := range poppedHere {
				ledger[el] -= n
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	e.Close()

	remaining := 0
	for s := 0; s < e.Shards(); s++ {
		got, err := e.ShardDrain(s)
		if err != nil {
			t.Fatalf("drain shard %d: %v", s, err)
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Value < got[j].Value }) {
			t.Fatalf("shard %d drain not sorted after concurrent load", s)
		}
		for _, el := range got {
			ledger[el]--
		}
		remaining += len(got)
	}
	for el, n := range ledger {
		if n != 0 {
			t.Fatalf("element %+v unbalanced by %d after concurrent load", el, n)
		}
	}
	t.Logf("concurrent contract: %d elements remained at close across %d shards", remaining, e.Shards())
}

// TestConcurrentRankRouting races single-op Engine.Push and Engine.Pop
// calls only, so the least-count push choice and the least-head pop
// choice run back to back under the race detector, and checks that the
// counts balance: every accepted push was popped or is drained at close.
func TestConcurrentRankRouting(t *testing.T) {
	e, err := New(Config{Shards: 4, Order: 2, Levels: 8})
	if err != nil {
		t.Fatal(err)
	}
	var pushes, pops, drained int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			myPush, myPop := int64(0), int64(0)
			for i := 0; i < 2000; i++ {
				if rng.Intn(3) > 0 {
					el := core.Element{Value: uint64(rng.Intn(1 << 16)), Meta: uint64(w)<<32 | uint64(i)}
					if err := e.Push(el); err == nil {
						myPush++
					}
				} else {
					if _, err := e.Pop(); err == nil {
						myPop++
					}
				}
			}
			mu.Lock()
			pushes += myPush
			pops += myPop
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	e.Close()
	for s := 0; s < e.Shards(); s++ {
		got, err := e.ShardDrain(s)
		if err != nil {
			t.Fatalf("drain shard %d: %v", s, err)
		}
		drained += int64(len(got))
	}
	if pushes != pops+drained {
		t.Fatalf("accounting: %d pushes != %d pops + %d drained", pushes, pops, drained)
	}
}
