package main

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
)

// TestRun is the harness verdict at the sizes CI runs: 3 replica
// groups, a kill-and-promote at the replicated tip that mints map
// version 2, a rebalance to version 3 that the client learns through
// a redirect, and an exact global drain, in both routing modes.
func TestRun(t *testing.T) {
	for _, c := range []struct {
		mode cluster.Mode
		ops  int
	}{{cluster.ModeRank, 4000}, {cluster.ModeHash, 2000}} {
		t.Run(c.mode.String(), func(t *testing.T) {
			ev, err := run(config{
				geom: engine.Config{Shards: 2, Order: 2, Levels: 10},
				mode: c.mode, nodes: 3, ops: c.ops,
				kill: true, rebal: true, seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if ev.Result != "pass" || len(ev.Errors) != 0 {
				t.Fatalf("result %q, errors %v", ev.Result, ev.Errors)
			}
			if ev.KillCycles != 1 || ev.PromotedVersion != 2 || ev.RebalanceVer != 3 {
				t.Errorf("kill cycles %d, promoted map v%d, rebalance map v%d; want 1, 2, 3",
					ev.KillCycles, ev.PromotedVersion, ev.RebalanceVer)
			}
			if ev.Redirects == 0 || ev.ClientMapVer < 3 {
				t.Errorf("%d redirect(s), client map v%d; want >= 1 and >= 3", ev.Redirects, ev.ClientMapVer)
			}
			if len(ev.GossipSpreadMs) != 2 {
				t.Errorf("gossip spreads %v, want one per new map version", ev.GossipSpreadMs)
			}
			if ev.AckedPops == 0 || ev.AckedPushes != ev.AckedPops+uint64(ev.FinalDrain) {
				t.Errorf("acked pushes %d != acked pops %d + drained %d", ev.AckedPushes, ev.AckedPops, ev.FinalDrain)
			}
			if len(ev.PerNodeOps) != 3 {
				t.Errorf("per-node ops %v, want all 3 groups", ev.PerNodeOps)
			}
		})
	}
}
