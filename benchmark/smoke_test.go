package main

import (
	"regexp"
	"testing"
	"time"
)

// tiny shrinks a workload so that the whole suite runs in seconds: the
// same paths and shapes, on small trees, with a token warm-up.
func tiny(w workload) *workload {
	w.geom.Levels = min(w.geom.Levels, 5)
	w.warmOps = 4 * w.batch
	w.measureOps = uint64(64 * w.batch)
	return &w
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames requires that a run emitted exactly the metrics BENCHMARK.json
// lists for it, each once (the map cannot hold a name twice; result.set
// panics on a name spec.go does not declare), with the listed unit.
func checkNames(t *testing.T, what string, got map[string]mvalue, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: %s not emitted", what, m.Name)
			continue
		}
		if v.Unit == "" || v.Unit != m.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, m.Name, v.Unit, m.Unit)
		}
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s: name %q is outside the contract's alphabet", what, m.Name)
		}
	}
}

func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := tiny(workloads[i])
		t.Run(w.name, func(t *testing.T) {
			r, err := runEndToEnd(w, 1, time.Millisecond)
			if err != nil {
				t.Fatalf("untraced: %v", err)
			}
			if !r.Correct || r.Attempted == 0 {
				t.Fatalf("untraced: correct=%v attempted=%d", r.Correct, r.Attempted)
			}
			checkNames(t, "untraced", r.Metrics, spec.EndToEnd)

			r, err = runLadder(w, 1, 160*time.Millisecond, "")
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			if !r.Correct || r.Attempted == 0 {
				t.Fatalf("traced: correct=%v attempted=%d", r.Correct, r.Attempted)
			}
			checkNames(t, "traced", r.Metrics, spec.PerLayer)
		})
	}
}

// TestSpecAgrees checks the name lists in code and in BENCHMARK.json are
// the same lists, in the same order, and the workloads likewise.
func TestSpecAgrees(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, code []metricDef, file []specMetric) {
		if len(code) != len(file) {
			t.Fatalf("%s: %d in spec.go, %d in BENCHMARK.json", what, len(code), len(file))
		}
		for i := range code {
			if code[i].name != file[i].Name || code[i].unit != file[i].Unit {
				t.Errorf("%s[%d]: spec.go has %s (%s), BENCHMARK.json has %s (%s)",
					what, i, code[i].name, code[i].unit, file[i].Name, file[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in spec.go, %d in BENCHMARK.json", len(workloads), len(spec.Workloads))
	}
	seen := map[string]bool{}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: spec.go has %q, BENCHMARK.json has %q", i, w.name, spec.Workloads[i].Name)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: name or why outside the contract's limits", w.name)
		}
		seen[w.name] = true
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[m.name] {
			t.Errorf("name %q is used twice", m.name)
		}
		seen[m.name] = true
	}
	setup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
}
