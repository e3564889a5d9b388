package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// snapPair builds prev/cur snapshots from a live registry by observing
// between two Snapshot calls — exercising the same Sub/delta paths a
// real poll sees, without hand-rolling bucket layouts.
func snapPair(t *testing.T, load func(reg *obs.Registry) func()) (obs.Snapshot, obs.Snapshot) {
	t.Helper()
	reg := obs.NewRegistry()
	more := load(reg)
	prev := reg.Snapshot()
	more()
	return prev, reg.Snapshot()
}

func TestBuildModelWindowedRates(t *testing.T) {
	prev, cur := snapPair(t, func(reg *obs.Registry) func() {
		reg.GaugeFunc(enginePrefix+"_shards", func() float64 { return 2 })
		reg.GaugeFunc(enginePrefix+"_len", func() float64 { return 7 })
		pushes0 := reg.Counter(enginePrefix + "_shard0_pushes_total")
		drain0 := reg.Histogram(enginePrefix+"_shard0_drain_batch", []uint64{1, 8, 64})
		stageQ := reg.QuantileHistogram(obs.StageMetricName(tracePrefix, obs.StageApply))
		pushes0.Add(100)
		drain0.Observe(64)
		stageQ.Observe(5_000) // pre-window observation, must not leak in
		return func() {
			pushes0.Add(200)
			drain0.Observe(8)
			drain0.Observe(8)
			for i := 0; i < 10; i++ {
				stageQ.Observe(20_000) // 20µs
			}
		}
	})

	m := buildModel("x:1", prev, cur, 2*time.Second, map[string]any{"ok": true})
	if len(m.Shards) != 2 {
		t.Fatalf("got %d shards, want 2", len(m.Shards))
	}
	if got := m.Shards[0].PushRate; got != 100 {
		t.Errorf("shard0 push rate = %v, want 100 (200 pushes / 2s)", got)
	}
	if got := m.Shards[0].DrainMean; got != 8 {
		t.Errorf("shard0 drain mean = %v, want 8 (window only)", got)
	}
	if m.Len != 7 {
		t.Errorf("len = %v, want 7", m.Len)
	}

	// Only the instrumented stage shows up, with window-only quantiles.
	if len(m.Stages) != 1 {
		t.Fatalf("got %d stage rows, want 1: %+v", len(m.Stages), m.Stages)
	}
	st := m.Stages[0]
	if st.Label != "apply" {
		t.Errorf("stage label = %q, want apply", st.Label)
	}
	if st.Rate != 5 {
		t.Errorf("stage rate = %v, want 5 (10 spans / 2s)", st.Rate)
	}
	if st.P50 < 15 || st.P50 > 35 {
		t.Errorf("stage p50 = %vµs, want ~20µs (pre-window 5µs must not leak)", st.P50)
	}
	if !m.Repl.Present {
		// No repl gauges registered.
	} else {
		t.Error("repl row present without repl gauges")
	}
}

func TestBuildModelReplication(t *testing.T) {
	prev, cur := snapPair(t, func(reg *obs.Registry) func() {
		reg.GaugeFunc(replPrefix+"_role", func() float64 { return 0 })
		reg.GaugeFunc(replPrefix+"_lag", func() float64 { return 3 })
		acks := reg.Counter(replPrefix + "_acks_total")
		ackQ := reg.QuantileHistogram(replPrefix + "_ack_latency_ns")
		return func() {
			acks.Add(50)
			ackQ.Observe(1_000_000) // 1ms
		}
	})
	m := buildModel("x:1", prev, cur, time.Second, nil)
	if !m.Repl.Present {
		t.Fatal("repl row missing despite repl gauges")
	}
	if m.Repl.Lag != 3 {
		t.Errorf("lag = %v, want 3", m.Repl.Lag)
	}
	if m.Repl.AcksRate != 50 {
		t.Errorf("acks/s = %v, want 50", m.Repl.AcksRate)
	}
	if m.Repl.AckP99 < 500 || m.Repl.AckP99 > 2000 {
		t.Errorf("ack p99 = %vµs, want ~1000µs", m.Repl.AckP99)
	}
}

func TestRenderFrame(t *testing.T) {
	m := model{
		Addr:   "127.0.0.1:9971",
		Window: time.Second,
		Len:    42,
		Probe:  map[string]any{"ok": true, "role": "primary", "repl_lag": float64(0), "extra": "x"},
		Stages: []stageRow{{Label: "total", Rate: 1.5e6, P50: 10.5, P99: 99.9}},
		Shards: []shardRow{{ID: 0, Occupancy: 10, Capacity: 4096, PushRate: 2500}},
		Repl:   replRow{Present: true, Lag: 2, AckP99: 7.5},
	}
	var sb strings.Builder
	render(&sb, m)
	out := sb.String()
	for _, want := range []string{
		"127.0.0.1:9971",
		"role=primary", "repl_lag=0", "extra=x",
		"STAGE", "total", "1.50M",
		"SHARD", "2.5k",
		"repl: lag=2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
}

func TestRenderUnreachableProbe(t *testing.T) {
	var sb strings.Builder
	render(&sb, model{Addr: "a:1", Probe: nil})
	if !strings.Contains(sb.String(), "probe: unreachable") {
		t.Errorf("nil probe not flagged:\n%s", sb.String())
	}
}

func TestFmtRate(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{{0, "0.0"}, {12.34, "12.3"}, {4_560, "4.6k"}, {7_890_000, "7.89M"}} {
		if got := fmtRate(tc.v); got != tc.want {
			t.Errorf("fmtRate(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestBuildModelRuntimeRow(t *testing.T) {
	prev, cur := snapPair(t, func(reg *obs.Registry) func() {
		reg.GaugeFunc(runtimePrefix+"_goroutines", func() float64 { return 12 })
		reg.GaugeFunc(runtimePrefix+"_heap_live_bytes", func() float64 { return 3 << 20 })
		gc := reg.QuantileHistogram(runtimePrefix + "_gc_pause_ns")
		gc.Observe(1_000_000) // pre-window pause, must not leak in
		return func() {
			gc.Observe(50_000) // 50µs in-window
		}
	})
	m := buildModel("x:1", prev, cur, time.Second, nil)
	if !m.Runtime.Present {
		t.Fatal("runtime row missing despite runtime gauges")
	}
	if m.Runtime.Goroutines != 12 {
		t.Errorf("goroutines = %v", m.Runtime.Goroutines)
	}
	if m.Runtime.HeapLive != 3<<20 {
		t.Errorf("heap live = %v", m.Runtime.HeapLive)
	}
	if m.Runtime.GCPauseP99 < 25 || m.Runtime.GCPauseP99 > 100 {
		t.Errorf("gc pause p99 = %vµs, want ~50µs window-only", m.Runtime.GCPauseP99)
	}

	// A daemon without the runtime collector yields no row.
	prev2, cur2 := snapPair(t, func(reg *obs.Registry) func() { return func() {} })
	if buildModel("x:1", prev2, cur2, time.Second, nil).Runtime.Present {
		t.Error("runtime row present without runtime gauges")
	}
}

func TestRenderSLOBannerAndLines(t *testing.T) {
	m := model{
		Addr:   "a:1",
		Window: time.Second,
		SLO: &obs.SLOStatus{
			ShortWindowMS: 10_000,
			LongWindowMS:  60_000,
			Worst:         "page",
			Objectives: []obs.ObjectiveStatus{
				{Name: "p99", State: "page", Value: 25e6, Bound: 10e6},
				{Name: "availability", State: "ok", Value: 0, Bound: 0.001},
			},
		},
		Runtime: runtimeRow{Present: true, Goroutines: 9, HeapLive: 2 << 30, GCPauseP99: 120.5, SchedP99: 3.2},
	}
	var sb strings.Builder
	render(&sb, m)
	out := sb.String()
	for _, want := range []string{
		"!! SLO PAGE:", "p99=page",
		"slo: p99=page availability=ok (windows 10s/60s)",
		"runtime: goroutines=9 heap_live=2.00GiB gc_pause_p99=120.5µs sched_p99=3.2µs",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	// The banner names only violating objectives.
	if strings.Contains(out, "availability=ok(") {
		t.Errorf("banner lists healthy objectives:\n%s", out)
	}

	// All-ok status: the slo line renders, the banner does not.
	m.SLO.Worst = "ok"
	m.SLO.Objectives[0].State = "ok"
	sb.Reset()
	render(&sb, m)
	out = sb.String()
	if strings.Contains(out, "!! SLO") {
		t.Errorf("banner shown while worst=ok:\n%s", out)
	}
	if !strings.Contains(out, "slo: p99=ok") {
		t.Errorf("slo line missing when healthy:\n%s", out)
	}

	// No SLO engine at all: neither banner nor line.
	m.SLO = nil
	sb.Reset()
	render(&sb, m)
	if strings.Contains(sb.String(), "slo:") {
		t.Errorf("slo line shown without /slo.json:\n%s", sb.String())
	}
}

func TestBuildModelIntegrityRow(t *testing.T) {
	prev, cur := snapPair(t, func(reg *obs.Registry) func() {
		reg.GaugeFunc(persistPrefix+"_scrub_progress", func() float64 { return 0.5 })
		reg.GaugeFunc(persistPrefix+"_shard0_wal_poisoned", func() float64 { return 1 })
		chains := reg.Counter(persistPrefix + "_scrub_chain_points_total")
		bytes := reg.Counter(persistPrefix + "_scrub_bytes_total")
		reg.Counter(persistPrefix + "_scrub_corruptions_total").Add(3)
		reg.Counter(replPrefix + "_repair_dirs_total").Add(2)
		chains.Add(100) // pre-window, must not count toward the rate
		return func() {
			chains.Add(40)
			bytes.Add(2 << 20)
		}
	})
	m := buildModel("x:1", prev, cur, 2*time.Second, nil)
	if !m.Integrity.Present {
		t.Fatal("integrity row missing despite scrub gauges")
	}
	if m.Integrity.Progress != 0.5 {
		t.Errorf("progress = %v, want 0.5", m.Integrity.Progress)
	}
	if m.Integrity.ChainRate != 20 {
		t.Errorf("chain verifies/s = %v, want 20 (40 / 2s)", m.Integrity.ChainRate)
	}
	if m.Integrity.Corruptions != 3 {
		t.Errorf("corruptions = %v, want 3", m.Integrity.Corruptions)
	}
	if m.Integrity.RepairedDirs != 2 {
		t.Errorf("repaired dirs = %v, want 2", m.Integrity.RepairedDirs)
	}
	if !m.Integrity.Poisoned {
		t.Error("poisoned WAL gauge not reflected")
	}

	// A daemon without the scrubber yields no row.
	prev2, cur2 := snapPair(t, func(reg *obs.Registry) func() { return func() {} })
	if buildModel("x:1", prev2, cur2, time.Second, nil).Integrity.Present {
		t.Error("integrity row present without scrub gauges")
	}
}

func TestRenderIntegrityRow(t *testing.T) {
	m := model{
		Addr: "a:1", Window: time.Second,
		Integrity: integrityRow{
			Present: true, Progress: 0.25, Passes: 7,
			ChainRate: 1500, BytesRate: 3 << 20,
			Corruptions: 2, RepairedDirs: 1, Poisoned: true,
		},
	}
	var sb strings.Builder
	render(&sb, m)
	out := sb.String()
	for _, want := range []string{
		"integrity: scrub=25% passes=7 chain_verify/s=1.5k scrubbed/s=3.0MiB",
		"corruptions=2 repaired_dirs=1 wal=POISONED",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}

	m.Integrity.Present = false
	sb.Reset()
	render(&sb, m)
	if strings.Contains(sb.String(), "integrity:") {
		t.Errorf("integrity row shown without scrub instruments:\n%s", sb.String())
	}
}

func TestFmtBytes(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{{512, "512B"}, {4 << 10, "4.0KiB"}, {3 << 20, "3.0MiB"}, {5 << 30, "5.00GiB"}} {
		if got := fmtBytes(tc.v); got != tc.want {
			t.Errorf("fmtBytes(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}
