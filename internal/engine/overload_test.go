package engine

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestUpdateOverloadHysteresis exercises the latency state machine
// directly: trip at the second consecutive slow execution, not at one,
// and clear at the first fast one.
func TestUpdateOverloadHysteresis(t *testing.T) {
	e := new(Engine)
	ov := Overload{DrainLatencyHigh: time.Millisecond}.withDefaults()
	slow := func() { e.updateOverload(ov, time.Now().Add(-10*time.Millisecond)) }
	fast := func() { e.updateOverload(ov, time.Now()) }
	slow()
	if e.overloaded.Load() {
		t.Fatal("one slow execution tripped overload: a single stall must not shed")
	}
	fast()
	slow()
	if e.overloaded.Load() {
		t.Fatal("two slow executions with a fast one between tripped overload")
	}
	slow()
	if !e.overloaded.Load() {
		t.Fatal("two consecutive slow executions did not trip overload")
	}
	slow()
	if !e.overloaded.Load() {
		t.Fatal("a third slow execution cleared overload")
	}
	fast()
	if e.overloaded.Load() {
		t.Fatal("a fast execution did not clear overload")
	}
	slow()
	if e.overloaded.Load() {
		t.Fatal("one slow execution after clearing re-tripped overload")
	}
}

// TestLockWaitDoesNotTripOverload: a submitter that waits on a held
// execution lock for twice the latency bound, and then executes fast,
// is a fast execution. Three of them in a row leave the engine admitting:
// if the wait counted, every waiter behind one stalled holder would look
// slow and the second would shed.
func TestLockWaitDoesNotTripOverload(t *testing.T) {
	const bound = 10 * time.Millisecond
	e, err := New(Config{Shards: 1, Order: 2, Levels: 8, Overload: Overload{DrainLatencyHigh: bound}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var trips atomic.Int32
	e.SetHooks(Hooks{OnOverloadTrip: func() { trips.Add(1) }})
	for i := 0; i < 3; i++ {
		res := make([]Result, 1)
		sp, _ := blockedSubmit(e, 2*bound, func(sp *obs.Span) {
			e.SubmitTraced([]Op{PushOp(core.Element{Value: uint64(i), Meta: uint64(i)})}, res, sp)
		})
		if res[0].Err != nil {
			t.Fatalf("push %d: %v", i, res[0].Err)
		}
		if ts := sp.Stages(); time.Duration(ts[obs.StageDequeue]-ts[obs.StageEnqueue]) < 2*bound {
			t.Fatalf("push %d waited %v on the lock, want at least %v", i, time.Duration(ts[obs.StageDequeue]-ts[obs.StageEnqueue]), 2*bound)
		}
	}
	if e.OverloadedShards() != 0 || trips.Load() != 0 {
		t.Fatalf("lock wait tripped overload: %d shard(s) overloaded, %d trip(s)", e.OverloadedShards(), trips.Load())
	}
}

// TestOverloadShedsPushes trips overload via a 1ns latency bound, which
// every execution exceeds, and checks pushes shed with the typed
// ErrOverloaded while pops keep working.
func TestOverloadShedsPushes(t *testing.T) {
	e, err := New(Config{
		Shards: 1, Order: 2, Levels: 8,
		Overload: Overload{DrainLatencyHigh: time.Nanosecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// The first batch executes (overload is judged after an execution)
	// and counts as slow; pushes after the second slow one must shed.
	if res := e.Submit([]Op{PushOp(core.Element{Value: 1, Meta: 1})}); res[0].Err != nil {
		t.Fatalf("priming push: %v", res[0].Err)
	}
	deadline := time.Now().Add(5 * time.Second)
	var shedErr error
	for time.Now().Before(deadline) {
		res := e.Submit([]Op{PushOp(core.Element{Value: 2, Meta: 2})})
		if res[0].Err != nil {
			shedErr = res[0].Err
			break
		}
	}
	if !errors.Is(shedErr, ErrOverloaded) {
		t.Fatalf("shed error = %v, want ErrOverloaded", shedErr)
	}
	if errors.Is(shedErr, ErrBackpressure) {
		t.Fatal("ErrOverloaded must stay distinct from ErrBackpressure")
	}
	// Pops are never shed — overload protects the queue from growth.
	res := e.Submit([]Op{PopOp()})
	if res[0].Err != nil {
		t.Fatalf("pop under overload: %v", res[0].Err)
	}
}

// TestOverloadLatchExpiry covers the push-only wedge: once overload
// trips, pushes are shed before reaching a queue, so no execution ever
// re-evaluates the signal. The latch must expire after Cooloff and
// admit the next push instead of shedding forever.
func TestOverloadLatchExpiry(t *testing.T) {
	e, err := New(Config{
		Shards: 1, Order: 2, Levels: 8,
		Overload: Overload{DrainLatencyHigh: time.Nanosecond, Cooloff: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Trip the latch: every execution is slow against a 1ns bound, so
	// pushes shed after the second.
	if res := e.Submit([]Op{PushOp(core.Element{Value: 1, Meta: 1})}); res[0].Err != nil {
		t.Fatalf("priming push: %v", res[0].Err)
	}
	deadline := time.Now().Add(5 * time.Second)
	tripped := false
	for time.Now().Before(deadline) {
		if res := e.Submit([]Op{PushOp(core.Element{Value: 2, Meta: 2})}); errors.Is(res[0].Err, ErrOverloaded) {
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatal("overload never tripped")
	}
	// No pops arrive, so nothing executes: only latch expiry can admit
	// the next push.
	time.Sleep(60 * time.Millisecond)
	if res := e.Submit([]Op{PushOp(core.Element{Value: 3, Meta: 3})}); res[0].Err != nil {
		t.Fatalf("push after cooloff shed: %v — latch wedged", res[0].Err)
	}
}

// TestApplyReplica drives one shard directly — the follower apply path
// — and checks dense LSN stamping, shard isolation, and
// element fidelity.
func TestApplyReplica(t *testing.T) {
	e, err := New(Config{Shards: 2, Order: 2, Levels: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const n = 10
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = PushOp(core.Element{Value: uint64(100 - i), Meta: uint64(i)})
	}
	results := make([]Result, n)
	if err := e.ApplyReplica(1, ops, results); err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("apply[%d]: %v", i, r.Err)
		}
		if r.Shard != 1 || r.LSN != uint64(i+1) {
			t.Fatalf("apply[%d]: shard %d lsn %d, want shard 1 lsn %d", i, r.Shard, r.LSN, i+1)
		}
	}
	if got := e.ShardLSN(1); got != n {
		t.Fatalf("ShardLSN(1) = %d, want %d", got, n)
	}
	if got := e.ShardLSN(0); got != 0 {
		t.Fatalf("ShardLSN(0) = %d — replica apply leaked across shards", got)
	}

	// Pops through the same path come back rank-ordered with their LSNs
	// continuing the chain.
	pops := make([]Op, n)
	for i := range pops {
		pops[i] = PopOp()
	}
	popRes := make([]Result, n)
	if err := e.ApplyReplica(1, pops, popRes); err != nil {
		t.Fatal(err)
	}
	for i, r := range popRes {
		if r.Err != nil {
			t.Fatalf("pop[%d]: %v", i, r.Err)
		}
		if want := uint64(100 - (n - 1) + i); r.Elem.Value != want {
			t.Fatalf("pop[%d] value %d, want %d", i, r.Elem.Value, want)
		}
		if r.LSN != uint64(n+i+1) {
			t.Fatalf("pop[%d] lsn %d, want %d", i, r.LSN, n+i+1)
		}
	}

	if err := e.ApplyReplica(5, ops, results); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	e.Close()
	if err := e.ApplyReplica(1, ops, results); !errors.Is(err, ErrClosed) {
		t.Fatalf("apply after close: %v, want ErrClosed", err)
	}
}
