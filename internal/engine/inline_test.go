package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/refpq"
)

// executions reads how many executions applied ops to shard i, from
// the _drain_batch histogram, which observes every one.
func executions(reg *obs.Registry, i int) uint64 {
	return reg.Snapshot().Histograms[fmt.Sprintf("eng_shard%d_drain_batch", i)].Count
}

// blockedSubmit runs submit on its own goroutine, with a fresh span,
// while the test holds the engine's execution lock. It releases the lock
// hold after submit has stamped StageEnqueue — the moment before it asks
// for the lock — or at once if submit returned without asking, and
// returns once submit has. released is the SpanNow taken just before the
// unlock, so a submit that waited on the lock reads
// enqueue < released <= dequeue or apply.
func blockedSubmit(e *Engine, hold time.Duration, submit func(sp *obs.Span)) (sp *obs.Span, released int64) {
	sp = new(obs.Span)
	returned := make(chan struct{})
	e.exec.Lock()
	go func() {
		defer close(returned)
		submit(sp)
	}()
	for sp.Stages()[obs.StageEnqueue] == 0 {
		select {
		case <-returned:
			released = obs.SpanNow()
			e.exec.Unlock()
			return sp, released
		default:
			runtime.Gosched()
		}
	}
	time.Sleep(hold)
	released = obs.SpanNow()
	e.exec.Unlock()
	<-returned
	return sp, released
}

// applied is one successful operation as its submitter saw it.
type applied struct {
	kind OpKind
	res  Result
	push core.Element // the element pushed, for OpPush
}

// TestInlineAndRingDifferential is the differential test of caller-runs
// execution, uncontended and contended: submitters race mixed push / pop
// / bounded-pop batches at an engine, the test holding the execution
// lock across every fourth batch (blockedSubmit), and
// afterwards each shard's history — the successful results ordered by
// the LSNs the engine stamped — must be one a refpq reference
// reproduces exactly: LSNs dense from 1 with no gap or duplicate, every
// pop the reference minimum at that point, every bounded hit at or under
// its bound, and the shard's final drain the reference's remainder.
// Some submit must actually have waited on a held lock. (The name is
// older than the lock wait: contended groups used to go to a ring.)
func TestInlineAndRingDifferential(t *testing.T) {
	mixes := []struct {
		name               string
		push, pop, bounded int // relative weights
	}{
		{"all-kinds", 2, 1, 1},
		{"push-bounded", 1, 0, 1},
		{"push-pop", 1, 1, 0},
	}
	for _, submitters := range []int{1, 4} {
		for _, shards := range []int{1, 2} {
			for _, mix := range mixes {
				name := fmt.Sprintf("submitters=%d/shards=%d/%s", submitters, shards, mix.name)
				t.Run(name, func(t *testing.T) {
					e, err := New(smallConfig(shards))
					if err != nil {
						t.Fatal(err)
					}
					var waited atomic.Int64

					histories := make([][]applied, submitters)
					var wg sync.WaitGroup
					for w := 0; w < submitters; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							rng := rand.New(rand.NewSource(int64(1000*submitters + 10*shards + w)))
							ops := make([]Op, 0, 16)
							res := make([]Result, 16)
							total := mix.push + mix.pop + mix.bounded
							for batch := 0; batch < 300; batch++ {
								ops = ops[:0]
								for i, n := 0, 1+rng.Intn(16); i < n; i++ {
									switch r := rng.Intn(total); {
									case r < mix.push:
										ops = append(ops, PushOp(core.Element{
											Value: uint64(rng.Intn(1 << 16)),
											Meta:  uint64(w)<<32 | uint64(batch)<<8 | uint64(i),
										}))
									case r < mix.push+mix.pop:
										ops = append(ops, PopOp())
									default:
										ops = append(ops, PopBoundedOp(uint64(rng.Intn(1<<16))))
									}
								}
								if batch%4 == 0 {
									sp, released := blockedSubmit(e, 10*time.Microsecond,
										func(sp *obs.Span) { e.SubmitTraced(ops, res[:len(ops)], sp, nil) })
									if ts := sp.Stages(); ts[obs.StageEnqueue] != 0 && ts[obs.StageEnqueue] < released && ts[obs.StageDequeue] >= released {
										waited.Add(1)
									}
								} else {
									e.SubmitInto(ops, res[:len(ops)])
								}
								for i, r := range res[:len(ops)] {
									switch {
									case r.Err == nil:
										if ops[i].Kind == OpPopBounded && r.Elem.Value > ops[i].Elem.Value {
											t.Errorf("bounded pop(%d) took %d", ops[i].Elem.Value, r.Elem.Value)
										}
										histories[w] = append(histories[w], applied{kind: ops[i].Kind, res: r, push: ops[i].Elem})
									case ops[i].Kind == OpPush && (errors.Is(r.Err, ErrBackpressure) || errors.Is(r.Err, core.ErrFull)):
									case ops[i].Kind == OpPop && errors.Is(r.Err, core.ErrEmpty):
									case ops[i].Kind == OpPopBounded && errors.Is(r.Err, ErrMiss):
									default:
										t.Errorf("op kind %d: unexpected error %v", ops[i].Kind, r.Err)
									}
									if r.Err != nil && r.LSN != 0 {
										t.Errorf("failed op carries LSN %d", r.LSN)
									}
								}
							}
						}(w)
					}
					wg.Wait()
					e.Close()
					if waited.Load() == 0 {
						t.Fatal("no submit waited on a held execution lock")
					}

					perShard := make([][]applied, shards)
					for _, h := range histories {
						for _, a := range h {
							perShard[a.res.Shard] = append(perShard[a.res.Shard], a)
						}
					}
					for sh, h := range perShard {
						sort.Slice(h, func(i, j int) bool { return h[i].res.LSN < h[j].res.LSN })
						ref := refpq.New()
						pushes, pops := 0, 0
						for i, a := range h {
							if a.res.LSN != uint64(i+1) {
								t.Fatalf("shard %d: LSN %d at position %d — not dense from 1", sh, a.res.LSN, i)
							}
							if a.kind == OpPush {
								ref.Push(refpq.Entry{Value: a.push.Value, Meta: a.push.Meta})
								pushes++
								continue
							}
							pops++
							if ref.Len() == 0 || a.res.Elem.Value != ref.MinValue() ||
								!ref.RemoveExact(refpq.Entry{Value: a.res.Elem.Value, Meta: a.res.Elem.Meta}) {
								t.Fatalf("shard %d LSN %d: popped %+v, not the reference minimum", sh, a.res.LSN, a.res.Elem)
							}
						}
						if got := e.ShardLSN(sh); got != uint64(len(h)) {
							t.Fatalf("shard %d: published LSN %d, %d operations succeeded", sh, got, len(h))
						}
						drained, err := e.ShardDrain(sh)
						if err != nil {
							t.Fatal(err)
						}
						if pushes != pops+len(drained) {
							t.Fatalf("shard %d: %d pushes != %d pops + %d drained", sh, pushes, pops, len(drained))
						}
						for _, el := range drained {
							if el.Value != ref.MinValue() || !ref.RemoveExact(refpq.Entry{Value: el.Value, Meta: el.Meta}) {
								t.Fatalf("shard %d: drained %+v, not the reference minimum", sh, el)
							}
						}
					}
				})
			}
		}
	}
}

// TestCloseRacingInlineSubmitters closes an engine under submitters that
// are executing inline: every push must end up either acknowledged and
// then accounted for — popped by someone or in the final drain — or
// refused, never both and never neither, and ShardDrain straight after
// Close must not race an executor (the race detector watches the queue).
func TestCloseRacingInlineSubmitters(t *testing.T) {
	for round := 0; round < 20; round++ {
		e, err := New(smallConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		const submitters = 2
		var (
			started sync.WaitGroup
			wg      sync.WaitGroup
			mu      sync.Mutex
			acked   = map[core.Element]bool{}
			popped  = map[core.Element]int{}
		)
		for w := 0; w < submitters; w++ {
			started.Add(1)
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var myAcked, myPopped []core.Element
				ops := make([]Op, 8)
				res := make([]Result, 8)
				for batch := 0; ; batch++ {
					for i := range ops {
						ops[i] = PopOp()
						if i%2 == 0 {
							ops[i] = PushOp(core.Element{Value: uint64(batch*7+i) % 997, Meta: uint64(w)<<32 | uint64(batch)<<4 | uint64(i)})
						}
					}
					e.SubmitInto(ops, res)
					if batch == 0 {
						started.Done()
					}
					closed := false
					for i, r := range res {
						closed = closed || errors.Is(r.Err, ErrClosed)
						switch {
						case r.Err != nil:
						case ops[i].Kind == OpPush:
							myAcked = append(myAcked, ops[i].Elem)
						default:
							myPopped = append(myPopped, r.Elem)
						}
					}
					if closed {
						break
					}
				}
				mu.Lock()
				for _, el := range myAcked {
					acked[el] = true
				}
				for _, el := range myPopped {
					popped[el]++
				}
				mu.Unlock()
			}(w)
		}
		started.Wait()
		e.Close()
		// Drain before the submitters are known to have returned: that
		// is the window Close has to have shut.
		var drained []core.Element
		for sh := 0; sh < e.Shards(); sh++ {
			d, err := e.ShardDrain(sh)
			if err != nil {
				t.Fatal(err)
			}
			drained = append(drained, d...)
		}
		wg.Wait()
		for _, el := range drained {
			popped[el]++
		}
		for el := range acked {
			if popped[el] != 1 {
				t.Fatalf("round %d: acknowledged push %+v came out %d times", round, el, popped[el])
			}
			delete(popped, el)
		}
		for el, n := range popped {
			t.Fatalf("round %d: %+v came out %d times but its push was never acknowledged", round, el, n)
		}
	}
}

// TestSpanStampsInline checks the lifecycle stamps of an uncontended
// submit: one execution, and the span reads enqueue <= dequeue <= apply.
func TestSpanStampsInline(t *testing.T) {
	e, err := New(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	reg := obs.NewRegistry()
	e.Instrument(reg, "eng")
	sp := new(obs.Span)
	res := make([]Result, 2)
	e.SubmitTraced([]Op{PushOp(core.Element{Value: 5, Meta: 1}), PopOp()}, res, sp, nil)
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	checkStageOrder(t, sp)
	if n := executions(reg, 0); n != 1 {
		t.Fatalf("%d executions, want 1", n)
	}
}

// TestContendedSubmitNeverRefusedForSpace: a submit that finds the
// execution lock held waits for it, however many operations it
// carries. 3072 pushes — three times the request ring that contended
// groups once had to fit into — are all accepted, in LSN order.
func TestContendedSubmitNeverRefusedForSpace(t *testing.T) {
	e, err := New(Config{Shards: 1, Order: 4, Levels: 6}) // capacity 5460
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ops := make([]Op, 3*1024)
	for i := range ops {
		ops[i] = PushOp(core.Element{Value: uint64(i*7919) % 65536, Meta: uint64(i)})
	}
	res := make([]Result, len(ops))
	blockedSubmit(e, time.Millisecond, func(sp *obs.Span) { e.SubmitTraced(ops, res, sp, nil) })
	for i, r := range res {
		if r.Err != nil || r.LSN != uint64(i+1) {
			t.Fatalf("push %d of %d: %+v, want accepted at LSN %d", i, len(ops), r, i+1)
		}
	}
	if e.Len() != len(ops) {
		t.Fatalf("Len = %d after %d accepted pushes", e.Len(), len(ops))
	}
}

func checkStageOrder(t *testing.T, sp *obs.Span) {
	t.Helper()
	ts := sp.Stages()
	enq, deq, app := ts[obs.StageEnqueue], ts[obs.StageDequeue], ts[obs.StageApply]
	if enq == 0 || deq == 0 || app == 0 || enq > deq || deq > app {
		t.Fatalf("stamps enqueue=%d dequeue=%d apply=%d, want all set and ordered", enq, deq, app)
	}
}

// zeroAllocEngine builds an engine with every shard half-filled, plus
// the 32-push + 32-pop batch the steady state submits.
func zeroAllocEngine(tb testing.TB, shards int) (*Engine, []Op, []Result) {
	tb.Helper()
	e, err := New(Config{Shards: shards, Order: 4, Levels: 5})
	if err != nil {
		tb.Fatal(err)
	}
	res := make([]Result, 64)
	ops := make([]Op, 64)
	for round := 0; round < 4*shards; round++ {
		for i := range ops {
			ops[i] = PushOp(core.Element{Value: uint64((round*64+i)*37) % 9973, Meta: uint64(round*64 + i)})
		}
		e.SubmitInto(ops, res)
	}
	for i := range ops {
		ops[i] = PopOp()
		if i%2 == 0 {
			ops[i] = PushOp(core.Element{Value: uint64(i*131) % 9973, Meta: uint64(i)})
		}
	}
	return e, ops, res
}

// TestSubmitIntoZeroAlloc: a 64-op SubmitInto allocates nothing — the
// batch runs in op order straight into the caller's result slots, so
// there is no per-submit state to build or recycle. Nor does a batch of
// 256 pops, which goes to the trees as a run through a stack array,
// after a batch of 256 pushes that refills what it takes.
func TestSubmitIntoZeroAlloc(t *testing.T) {
	for _, shards := range []int{1, 2} {
		e, ops, res := zeroAllocEngine(t, shards)
		if avg := testing.AllocsPerRun(200, func() { e.SubmitInto(ops, res) }); avg != 0 {
			t.Errorf("%d shard(s): %v allocations per 64-op SubmitInto, want 0", shards, avg)
		}
		pushes, pops, res := make([]Op, 256), make([]Op, 256), make([]Result, 256)
		for i := range pushes {
			pushes[i] = PushOp(core.Element{Value: uint64(i*7919) % 9973, Meta: uint64(i)})
			pops[i] = PopOp()
		}
		if avg := testing.AllocsPerRun(200, func() {
			e.SubmitInto(pushes, res)
			e.SubmitInto(pops, res)
		}); avg != 0 {
			t.Errorf("%d shard(s): %v allocations per 256-push + 256-pop SubmitInto pair, want 0", shards, avg)
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("%d shard(s): pop %d of the run: %v", shards, i, r.Err)
			}
		}
		e.Close()
	}
}

// TestApplyReplicaRacingClose: an ApplyReplica racing Close applies all
// of its ops or none of them, answers ErrClosed from then on, and what
// it did apply is exactly what the closed shard holds.
func TestApplyReplicaRacingClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		e, err := New(smallConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		first := make(chan struct{})
		appliedCalls := make(chan int)
		go func() {
			ops := make([]Op, 4)
			res := make([]Result, 4)
			calls := 0
			for ; ; calls++ {
				for i := range ops {
					ops[i] = PopOp() // odd calls take back what even calls put in
					if calls%2 == 0 {
						ops[i] = PushOp(core.Element{Value: uint64(calls + i), Meta: uint64(calls*4 + i)})
					}
				}
				if err := e.ApplyReplica(0, ops, res); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("apply: %v", err)
					}
					for i, r := range res {
						if !errors.Is(r.Err, ErrClosed) {
							t.Errorf("refused apply, result %d = %+v", i, r)
						}
					}
					break
				}
				for i, r := range res {
					if r.Err != nil || r.LSN != uint64(calls*4+i+1) {
						t.Errorf("call %d result %d = %+v, want LSN %d", calls, i, r, calls*4+i+1)
					}
				}
				if calls == 0 {
					close(first)
				}
			}
			if err := e.ApplyReplica(0, ops, res); !errors.Is(err, ErrClosed) {
				t.Errorf("apply after ErrClosed: %v", err)
			}
			appliedCalls <- calls
		}()
		<-first
		e.Close()
		calls := <-appliedCalls
		if got := e.ShardLSN(0); got != uint64(calls*4) {
			t.Fatalf("round %d: shard LSN %d after %d applied calls of 4", round, got, calls)
		}
		drained, err := e.ShardDrain(0)
		if err != nil {
			t.Fatal(err)
		}
		if want := 4 * (calls % 2); len(drained) != want {
			t.Fatalf("round %d: %d elements left after %d applied calls, want %d", round, len(drained), calls, want)
		}
	}
}

// TestClosedEngineCollectable pins the pool trap: a closed engine
// nothing refers to is garbage at the very next collection. A sync.Pool
// field would sit on the runtime's global pool list for two cycles and
// hold the engine — and whatever its hooks reach — that long.
func TestClosedEngineCollectable(t *testing.T) {
	collected := make(chan struct{})
	func() {
		// The engine itself cannot carry the finalizer (its shards point
		// back into it, and a cycle through a finalized object is never
		// collected), so watch something only its hooks reach.
		reached := new([64]byte)
		runtime.SetFinalizer(reached, func(*[64]byte) { close(collected) })
		e, err := New(smallConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		e.SetHooks(Hooks{OnPanic: func(int, any) { reached[0]++ }})
		if err := e.Push(core.Element{Value: 1, Meta: 1}); err != nil {
			t.Fatal(err)
		}
		if err := e.ApplyReplica(1, []Op{PushOp(core.Element{Value: 2, Meta: 2})}, make([]Result, 1)); err != nil {
			t.Fatal(err)
		}
		e.Close()
	}()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(10 * time.Second):
		t.Fatal("what a closed, unreferenced engine's hooks reach is still alive after one runtime.GC()")
	}
}

// TestNewStartsNoGoroutine: every execution runs on its submitter's
// goroutine, so building an engine starts none. (Retried because a
// goroutine an earlier test left winding down may exit in between.)
func TestNewStartsNoGoroutine(t *testing.T) {
	for attempt := 0; attempt < 10; attempt++ {
		before := runtime.NumGoroutine()
		e, err := New(smallConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		after := runtime.NumGoroutine()
		e.Close()
		if after == before {
			return
		}
	}
	t.Fatal("New changed runtime.NumGoroutine() on every attempt")
}

// TestOnPanicOnSubmitter: a queue panic during an inline execution is
// shown to Hooks.OnPanic and re-panicked on the submitter's own
// goroutine, with the execution lock released on the way out.
func TestOnPanicOnSubmitter(t *testing.T) {
	e, err := New(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	e.shards[0].q = nil // the first push dereferences it
	var hookShard atomic.Int32
	var hookValue atomic.Value
	hookShard.Store(-1)
	e.SetHooks(Hooks{OnPanic: func(shard int, r any) {
		hookShard.Store(int32(shard))
		hookValue.Store(r)
	}})
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		e.Submit([]Op{PushOp(core.Element{Value: 1, Meta: 1})})
	}()
	if _, ok := recovered.(runtime.Error); !ok {
		t.Fatalf("submitter recovered %v, want the queue's panic value", recovered)
	}
	if hookShard.Load() != 0 || hookValue.Load() != recovered {
		t.Fatalf("OnPanic saw shard %d value %v", hookShard.Load(), hookValue.Load())
	}
	e.Close() // takes the execution lock: hangs if the panic leaked it
}
