package engine

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// testShard builds a bare shard for driving updateOverload directly.
func testShard(ov Overload) *shard {
	s := &shard{ringCap: 100, hooks: new(atomic.Pointer[Hooks])}
	s.ov.Store(&ov)
	return s
}

// TestUpdateOverloadHysteresis exercises the watermark state machine
// directly: trip at HighFrac, hold between the watermarks, clear only
// at or below LowFrac, and trip on drain latency alone — at the second
// consecutive slow execution, not at one.
func TestUpdateOverloadHysteresis(t *testing.T) {
	s := testShard(Overload{HighFrac: 0.8, LowFrac: 0.4})
	ov := *s.ov.Load()
	now := time.Now()
	s.updateOverload(ov, 85, now)
	if !s.overloaded.Load() {
		t.Fatal("85% occupancy did not trip HighFrac 0.8")
	}
	s.updateOverload(ov, 50, now)
	if !s.overloaded.Load() {
		t.Fatal("overload cleared between the watermarks")
	}
	s.updateOverload(ov, 40, now)
	if s.overloaded.Load() {
		t.Fatal("overload held at LowFrac")
	}
	s.updateOverload(ov, 50, now)
	if s.overloaded.Load() {
		t.Fatal("mid-band occupancy re-tripped a cleared shard")
	}

	lat := testShard(Overload{HighFrac: 0.99, LowFrac: 0.01, DrainLatencyHigh: time.Millisecond})
	slow := func() { lat.updateOverload(*lat.ov.Load(), 1, time.Now().Add(-10*time.Millisecond)) }
	slow()
	if lat.overloaded.Load() {
		t.Fatal("one slow execution tripped overload: a single stall must not shed")
	}
	lat.updateOverload(*lat.ov.Load(), 1, time.Now())
	slow()
	if lat.overloaded.Load() {
		t.Fatal("two slow executions with a fast one between tripped overload")
	}
	slow()
	if !lat.overloaded.Load() {
		t.Fatal("two consecutive slow executions did not trip overload")
	}
}

// TestOverloadShedsPushes trips overload via an always-slow drain
// watermark and checks pushes shed with the typed ErrOverloaded while
// pops keep working.
func TestOverloadShedsPushes(t *testing.T) {
	e, err := New(Config{
		Shards: 1, Order: 2, Levels: 8,
		Overload: Overload{HighFrac: 0.99, DrainLatencyHigh: time.Nanosecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// First batch executes (overload is computed after the drain) and
	// trips the watermark; pushes after that must shed.
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
// trips, pushes are shed before reaching the ring, so no drain ever
// re-evaluates the signal. The latch must expire after Cooloff and
// admit the next push instead of shedding forever.
func TestOverloadLatchExpiry(t *testing.T) {
	e, err := New(Config{
		Shards: 1, Order: 2, Levels: 8,
		Overload: Overload{HighFrac: 0.99, DrainLatencyHigh: time.Nanosecond, Cooloff: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Trip the latch: the priming push drains slowly (1ns watermark),
	// then pushes shed.
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
	// No pops arrive, no ring traffic: only latch expiry can admit the
	// next push.
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
