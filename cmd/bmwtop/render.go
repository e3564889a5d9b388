package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Metric-name prefixes bmwd registers its instruments under. bmwtop is
// a thin view over that contract; pointing it at a daemon with custom
// prefixes just yields empty tables, never an error.
const (
	enginePrefix  = "bmwd_engine"
	replPrefix    = "bmwd_repl"
	tracePrefix   = "bmwd_trace"
	runtimePrefix = "bmwd_runtime"
	persistPrefix = "bmwd_persist"
)

// stageRow is one request-lifecycle stage's windowed latency line.
type stageRow struct {
	Label string
	Rate  float64 // spans observed per second in the window
	P50   float64 // µs
	P99   float64 // µs
}

// shardRow is one engine shard's windowed throughput line.
type shardRow struct {
	ID        int
	Occupancy float64
	Capacity  float64
	PushRate  float64 // ops/s
	PopRate   float64 // ops/s
	DrainMean float64 // requests per drain, window mean
}

// replRow summarises the replication gauges and windowed ack latency.
type replRow struct {
	Present      bool
	Lag          float64
	LogSeq       float64
	AckSeq       float64
	HeartbeatAge float64 // seconds
	AckP50       float64 // µs
	AckP99       float64 // µs
	RecordsRate  float64 // applied records/s (follower)
	AcksRate     float64 // acks/s (primary)
}

// runtimeRow is the Go runtime telemetry line (from bmwd's
// runtime/metrics poller; absent on older daemons).
type runtimeRow struct {
	Present    bool
	Goroutines float64
	HeapLive   float64 // bytes
	GCPauseP99 float64 // µs, windowed
	SchedP99   float64 // µs, windowed
}

// integrityRow summarises the background scrubber and anti-entropy
// repair instruments (absent on daemons running without -persist or
// with -scrub-interval 0).
type integrityRow struct {
	Present      bool
	Progress     float64 // fraction of the current scrub pass
	Passes       uint64  // completed full passes
	ChainRate    float64 // WAL chain-points verified/s
	BytesRate    float64 // bytes scrubbed/s
	Corruptions  uint64  // findings detected, lifetime
	RepairedDirs uint64  // directories repaired via anti-entropy, lifetime
	Poisoned     bool    // any shard WAL sticky-poisoned
}

// model is one frame of derived dashboard state: everything render
// needs, precomputed so rendering is pure formatting.
type model struct {
	Addr      string
	Window    time.Duration
	Probe     map[string]any // /readyz body; nil when the probe fetch failed
	SLO       *obs.SLOStatus // /slo.json; nil when the daemon runs without -slo
	Len       float64
	Stages    []stageRow
	Shards    []shardRow
	Repl      replRow
	Runtime   runtimeRow
	Integrity integrityRow
}

// rate converts a counter delta over the window into a per-second rate.
func rate(cur, prev uint64, dt time.Duration) float64 {
	if dt <= 0 || cur < prev {
		return 0
	}
	return float64(cur-prev) / dt.Seconds()
}

// histMean returns the windowed mean of a plain histogram, falling
// back to the lifetime mean when the window is empty or the counter
// went backwards (daemon restart).
func histMean(cur, prev obs.HistogramSnapshot, _ time.Duration) float64 {
	if cur.Count < prev.Count || cur.Sum < prev.Sum {
		return cur.Mean()
	}
	dc := cur.Count - prev.Count
	if dc == 0 {
		return 0
	}
	return float64(cur.Sum-prev.Sum) / float64(dc)
}

// buildModel derives one dashboard frame from two registry snapshots
// taken dt apart. prev may be the zero Snapshot for the first frame —
// rates then read as lifetime averages since process start.
func buildModel(addr string, prev, cur obs.Snapshot, dt time.Duration, probe map[string]any) model {
	m := model{Addr: addr, Window: dt, Probe: probe, Len: cur.Gauge(enginePrefix + "_len")}

	for st := obs.Stage(0); st < obs.NumStages; st++ {
		name := obs.StageMetricName(tracePrefix, st)
		if _, ok := cur.Quantiles[name]; !ok {
			continue // tracing off on this daemon
		}
		w := cur.Quantile(name).Sub(prev.Quantile(name))
		label := st.String()
		if st == obs.StageIssue {
			label = "total"
		}
		m.Stages = append(m.Stages, stageRow{
			Label: label,
			Rate:  rate(w.Count, 0, dt),
			P50:   float64(w.P50) / 1e3,
			P99:   float64(w.P99) / 1e3,
		})
	}

	nShards := int(cur.Gauge(enginePrefix + "_shards"))
	for i := 0; i < nShards; i++ {
		p := fmt.Sprintf("%s_shard%d", enginePrefix, i)
		m.Shards = append(m.Shards, shardRow{
			ID:        i,
			Occupancy: cur.Gauge(p + "_occupancy"),
			Capacity:  cur.Gauge(p + "_capacity"),
			PushRate:  rate(cur.Counter(p+"_pushes_total"), prev.Counter(p+"_pushes_total"), dt),
			PopRate:   rate(cur.Counter(p+"_pops_total"), prev.Counter(p+"_pops_total"), dt),
			DrainMean: histMean(cur.Histograms[p+"_drain_batch"], prev.Histograms[p+"_drain_batch"], dt),
		})
	}

	if _, ok := cur.Gauges[runtimePrefix+"_goroutines"]; ok {
		gc := cur.Quantile(runtimePrefix + "_gc_pause_ns").Sub(prev.Quantile(runtimePrefix + "_gc_pause_ns"))
		sched := cur.Quantile(runtimePrefix + "_sched_latency_ns").Sub(prev.Quantile(runtimePrefix + "_sched_latency_ns"))
		m.Runtime = runtimeRow{
			Present:    true,
			Goroutines: cur.Gauge(runtimePrefix + "_goroutines"),
			HeapLive:   cur.Gauge(runtimePrefix + "_heap_live_bytes"),
			GCPauseP99: float64(gc.P99) / 1e3,
			SchedP99:   float64(sched.P99) / 1e3,
		}
	}

	if _, ok := cur.Gauges[persistPrefix+"_scrub_progress"]; ok {
		poisoned := false
		for name, v := range cur.Gauges {
			if v != 0 && strings.HasPrefix(name, persistPrefix) && strings.HasSuffix(name, "_wal_poisoned") {
				poisoned = true
			}
		}
		m.Integrity = integrityRow{
			Present:      true,
			Progress:     cur.Gauge(persistPrefix + "_scrub_progress"),
			Passes:       cur.Counter(persistPrefix + "_scrub_passes_total"),
			ChainRate:    rate(cur.Counter(persistPrefix+"_scrub_chain_points_total"), prev.Counter(persistPrefix+"_scrub_chain_points_total"), dt),
			BytesRate:    rate(cur.Counter(persistPrefix+"_scrub_bytes_total"), prev.Counter(persistPrefix+"_scrub_bytes_total"), dt),
			Corruptions:  cur.Counter(persistPrefix + "_scrub_corruptions_total"),
			RepairedDirs: cur.Counter(replPrefix + "_repair_dirs_total"),
			Poisoned:     poisoned,
		}
	}

	if _, ok := cur.Gauges[replPrefix+"_role"]; ok {
		ack := cur.Quantile(replPrefix + "_ack_latency_ns").Sub(prev.Quantile(replPrefix + "_ack_latency_ns"))
		m.Repl = replRow{
			Present:      true,
			Lag:          cur.Gauge(replPrefix + "_lag"),
			LogSeq:       cur.Gauge(replPrefix + "_log_seq"),
			AckSeq:       cur.Gauge(replPrefix + "_ack_seq"),
			HeartbeatAge: cur.Gauge(replPrefix + "_heartbeat_age_seconds"),
			AckP50:       float64(ack.P50) / 1e3,
			AckP99:       float64(ack.P99) / 1e3,
			RecordsRate:  rate(cur.Counter(replPrefix+"_records_applied_total"), prev.Counter(replPrefix+"_records_applied_total"), dt),
			AcksRate:     rate(cur.Counter(replPrefix+"_acks_total"), prev.Counter(replPrefix+"_acks_total"), dt),
		}
	}
	return m
}

// fmtRate renders a per-second rate compactly: 12.3, 45.6k, 7.89M.
func fmtRate(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.1f", v)
	}
}

// probeKeys is the display order for the /readyz detail line; any keys
// beyond these are appended sorted so nothing is silently dropped.
var probeKeys = []string{"ok", "role", "serving", "degraded", "caught_up", "repl_lag"}

// render writes one frame as plain text. Screen clearing is the
// caller's concern so the same renderer serves -once and file output.
func render(w io.Writer, m model) {
	fmt.Fprintf(w, "bmwtop — %s    window %.1fs    queue len %.0f\n",
		m.Addr, m.Window.Seconds(), m.Len)

	if m.SLO != nil && m.SLO.Worst != "ok" {
		// Alert banner: the burn-rate state an operator must not miss.
		fmt.Fprintf(w, "!! SLO %s:", strings.ToUpper(m.SLO.Worst))
		for _, o := range m.SLO.Objectives {
			if o.State != "ok" {
				fmt.Fprintf(w, " %s=%s(%.3g>%.3g)", o.Name, o.State, o.Value, o.Bound)
			}
		}
		fmt.Fprintln(w)
	}

	if m.Probe == nil {
		fmt.Fprintf(w, "probe: unreachable\n")
	} else {
		fmt.Fprintf(w, "probe:")
		seen := map[string]bool{}
		emit := func(k string) {
			if v, ok := m.Probe[k]; ok && !seen[k] {
				fmt.Fprintf(w, " %s=%v", k, v)
				seen[k] = true
			}
		}
		for _, k := range probeKeys {
			emit(k)
		}
		rest := make([]string, 0, len(m.Probe))
		for k := range m.Probe {
			if !seen[k] {
				rest = append(rest, k)
			}
		}
		sort.Strings(rest)
		for _, k := range rest {
			emit(k)
		}
		fmt.Fprintln(w)
	}

	if len(m.Stages) > 0 {
		fmt.Fprintf(w, "\n%-10s %10s %12s %12s\n", "STAGE", "REQ/S", "P50(µs)", "P99(µs)")
		for _, s := range m.Stages {
			fmt.Fprintf(w, "%-10s %10s %12.1f %12.1f\n", s.Label, fmtRate(s.Rate), s.P50, s.P99)
		}
	}

	if len(m.Shards) > 0 {
		fmt.Fprintf(w, "\n%-6s %14s %10s %10s %8s\n",
			"SHARD", "OCC/CAP", "PUSH/S", "POP/S", "DRAIN")
		for _, s := range m.Shards {
			fmt.Fprintf(w, "%-6d %6.0f/%-7.0f %10s %10s %8.1f\n",
				s.ID, s.Occupancy, s.Capacity,
				fmtRate(s.PushRate), fmtRate(s.PopRate), s.DrainMean)
		}
	}

	if m.Repl.Present {
		fmt.Fprintf(w, "\nrepl: lag=%.0f log_seq=%.0f ack_seq=%.0f heartbeat_age=%.1fs"+
			" ack_p50=%.1fµs ack_p99=%.1fµs records/s=%s acks/s=%s\n",
			m.Repl.Lag, m.Repl.LogSeq, m.Repl.AckSeq, m.Repl.HeartbeatAge,
			m.Repl.AckP50, m.Repl.AckP99,
			fmtRate(m.Repl.RecordsRate), fmtRate(m.Repl.AcksRate))
	}

	if m.Integrity.Present {
		poisoned := "-"
		if m.Integrity.Poisoned {
			poisoned = "POISONED"
		}
		fmt.Fprintf(w, "\nintegrity: scrub=%.0f%% passes=%d chain_verify/s=%s scrubbed/s=%s"+
			" corruptions=%d repaired_dirs=%d wal=%s\n",
			m.Integrity.Progress*100, m.Integrity.Passes,
			fmtRate(m.Integrity.ChainRate), fmtBytes(m.Integrity.BytesRate),
			m.Integrity.Corruptions, m.Integrity.RepairedDirs, poisoned)
	}

	if m.SLO != nil {
		fmt.Fprintf(w, "\nslo:")
		for _, o := range m.SLO.Objectives {
			fmt.Fprintf(w, " %s=%s", o.Name, o.State)
		}
		fmt.Fprintf(w, " (windows %ds/%ds)\n",
			m.SLO.ShortWindowMS/1000, m.SLO.LongWindowMS/1000)
	}

	if m.Runtime.Present {
		fmt.Fprintf(w, "runtime: goroutines=%.0f heap_live=%s gc_pause_p99=%.1fµs sched_p99=%.1fµs\n",
			m.Runtime.Goroutines, fmtBytes(m.Runtime.HeapLive),
			m.Runtime.GCPauseP99, m.Runtime.SchedP99)
	}
}

// fmtBytes renders a byte count compactly: 512B, 3.2MiB, 1.5GiB.
func fmtBytes(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2fGiB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}
