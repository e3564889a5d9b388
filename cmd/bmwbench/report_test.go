package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestThroughputProof is the acceptance-criteria check: the counted
// cycle metrics must confirm R-BMW's sustained 1 push/cycle and
// RPU-BMW's mandatory idle-after-pop, and the report must round-trip
// through JSON.
func TestThroughputProof(t *testing.T) {
	r := newReport("throughput", 1)
	throughputProof(r)

	for _, claim := range []string{
		"rbmw_sustains_1_push_per_cycle",
		"rbmw_push_pop_pair_is_2_cycles",
		"rbmw_zero_stall_cycles_in_proof",
		"rpubmw_sustains_1_push_per_cycle",
		"rpubmw_push_pop_pair_is_3_cycles",
		"rpubmw_mandatory_idle_after_every_pop",
		"rpubmw_operation_hiding_exercised",
		"pifo_push_pop_pair_is_1_cycle",
	} {
		ok, present := r.Claims[claim]
		if !present {
			t.Errorf("claim %q missing from report", claim)
		} else if !ok {
			t.Errorf("claim %q failed", claim)
		}
	}
	if v := r.Metrics["rbmw_fill_pushes_per_cycle"]; v != 1 {
		t.Errorf("rbmw fill rate = %g pushes/cycle, want 1", v)
	}
	if v := r.Metrics["rpubmw_pair_cycles_per_pair"]; v != 3 {
		t.Errorf("rpubmw pair rate = %g cycles/pair, want 3", v)
	}
	snap, ok := r.Snapshots["rpubmw"]
	if !ok {
		t.Fatal("rpubmw snapshot missing")
	}
	if snap.Counter("rpubmw_mandatory_idle_total") != snap.Counter("rpubmw_pops_total") {
		t.Error("mandatory idle count does not equal pop count")
	}

	path := filepath.Join(t.TempDir(), "throughput.json")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if back.Experiment != "throughput" || !back.Claims["rbmw_sustains_1_push_per_cycle"] {
		t.Fatalf("round trip lost data: %+v", back)
	}
}
