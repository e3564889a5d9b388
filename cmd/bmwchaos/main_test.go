package main

import (
	"testing"
	"time"

	"repro/internal/engine"
)

// TestRun is the harness verdict at the size CI runs (the flag
// defaults): 25 connection faults and 5 kill/promote cycles, every
// acked op in golden lockstep, a bundle per kill and no dedup miss.
func TestRun(t *testing.T) {
	const faults, kills = 25, 5
	ev, err := run(config{
		faults: faults, kills: kills,
		geom:  engine.Config{Shards: 2, Order: 2, Levels: 10},
		stall: 250 * time.Millisecond, budget: 5 * time.Second,
		seed: 1, evDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Result != "pass" || len(ev.Errors) != 0 {
		t.Fatalf("result %q, errors %v", ev.Result, ev.Errors)
	}
	if n := sumFaults(ev); n != faults {
		t.Errorf("%d faults injected, want %d (%v)", n, faults, ev.Faults)
	}
	if len(ev.Faults) != len(faultNames) {
		t.Errorf("fault kinds %v, want all %d", ev.Faults, len(faultNames))
	}
	if ev.KillCycles != kills || len(ev.PromotedAtTip) != kills || len(ev.FailoverMs) != kills {
		t.Errorf("kill cycles %d, promotions %v, failovers %v; want %d each", ev.KillCycles, ev.PromotedAtTip, ev.FailoverMs, kills)
	}
	if got := ev.BundlesByTrigger["kill"]; got < kills {
		t.Errorf("%d kill bundle(s), want >= %d", got, kills)
	}
	if got := ev.ClientStats["dedup_misses"]; got != 0 {
		t.Errorf("%d dedup misses, want 0", got)
	}
	if ev.AckedPops == 0 || ev.AckedPushes != ev.AckedPops+uint64(ev.FinalDrain) {
		t.Errorf("acked pushes %d != acked pops %d + drained %d", ev.AckedPushes, ev.AckedPops, ev.FinalDrain)
	}
}
