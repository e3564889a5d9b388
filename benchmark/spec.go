package main

import (
	"repro/internal/engine"
)

// metricDef is one reported metric: its name as BENCHMARK.json lists
// it and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a client of the system sees, reported by the
// untraced run (--trace 0) of every workload.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"batch_p99_us", "us"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// unbounded are measured by the untraced run like the end-to-end
// metrics and printed with them, but carry no regression bound and stay
// out of the result object: on this two-core sandbox their level depends
// on a host state that flips every few minutes (whether a woken
// scheduler thread arrives in time to steal the goroutine a caller just
// made runnable), by up to 85 % for the median batch of
// engine_mixed_b64 and 38 % for its CPU per op, which no bound the
// contract allows would survive. fail_share (ops refused or failed
// over ops attempted, over the whole run) is 0 by construction, and the
// contract wants bounded metrics that are never 0. The traced run
// reports all three as load.*.
var unbounded = []metricDef{
	{"batch_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"fail_share", "ratio"},
}

// perLayer are the single-layer metrics, reported by the traced run
// (--trace 1) of every workload: the ladder is climbed rung by rung
// with that workload's tape, so every name is emitted on every workload.
var perLayer = []metricDef{
	{"core.push_ns", "ns"},
	{"core.pop_ns", "ns"},
	{"core.rung_ns_per_op", "ns"},
	{"core.share", "ratio"},

	{"engine.submit_ns_per_op", "ns"},
	{"engine.self_ns_per_op", "ns"},
	{"engine.allocs_per_batch", "count"},
	{"engine.drain_batch_mean", "count"},
	{"engine.ring_occ_mean", "count"},
	{"engine.refused_share", "ratio"},
	{"engine.shard_len_skew", "ratio"},

	{"wire.codec_ns_per_op", "ns"},
	{"wire.bytes_per_op", "B"},
	{"wire.decode_allocs_per_batch", "count"},
	{"wire.rtt_ns_per_op", "ns"},
	{"wire.self_ns_per_op", "ns"},
	{"wire.frames_per_s", "1/s"},

	{"replic.tap_ns_per_op", "ns"},
	{"replic.sync_ack_ns_per_op", "ns"},
	{"replic.log_bytes_per_op", "B"},
	{"replic.follower_lag_ops", "count"},
	{"replic.degraded", "count"},

	{"cluster.rung_ns_per_op", "ns"},
	{"cluster.push_route_ns_per_op", "ns"},
	{"cluster.popmin_ns_per_pop", "ns"},
	{"cluster.rtts_per_pop", "count"},
	{"cluster.redirects", "count"},
	{"cluster.map_refreshes", "count"},

	{"persist.checkpoint_ms", "ms"},
	{"persist.verify_ms", "ms"},
	{"persist.restore_ms", "ms"},
	{"persist.snapshot_bytes_per_elem", "B"},
	{"persist.wal_record_ns_per_op", "ns"},
	{"persist.wal_bytes_per_op", "B"},

	{"obs.ns_per_op", "ns"},
	{"obs.stage_decode_p50_us", "us"},
	{"obs.stage_enqueue_p50_us", "us"},
	{"obs.stage_dequeue_p50_us", "us"},
	{"obs.stage_apply_p50_us", "us"},
	{"obs.stage_commit_p50_us", "us"},
	{"obs.stage_ack_p50_us", "us"},
	{"obs.stage_write_p50_us", "us"},
	{"obs.stage_total_p50_us", "us"},

	{"load.fail_share", "ratio"},
	{"load.batch_p50_us", "us"},
	{"load.cpu_us_per_op", "us"},
	{"trace.overhead_share", "ratio"},
	{"stall.max_ms", "ms"},
}

// rung names one step of the ladder; a workload's top rung is the one
// its own end-to-end path stops at.
type rung int

const (
	rungCore rung = iota
	rungEngine
	rungWire
	rungReplic
	rungObs
	rungSync
	rungCluster
	rungPersist
)

// shapeKind selects how a workload lays pushes and pops into batches.
type shapeKind int

const (
	// shapeMixed alternates push and pop inside each batch; with batch
	// size 1 whole batches alternate.
	shapeMixed shapeKind = iota
	// shapeSawtooth issues all-push batches from loFill up to hiFill,
	// then all-pop batches back down.
	shapeSawtooth
)

// workload is one benchmark workload: which path it drives, with what
// traffic, and how its fixed parts are sized.
type workload struct {
	name string
	why  string
	top  rung

	// geom is the engine geometry of every node the workload builds
	// (for tree_mixed, the bare tree's order and levels).
	geom engine.Config

	shape  shapeKind
	batch  int     // ops per batch
	fill   float64 // prefill, as a share of capacity
	loFill float64 // sawtooth bounds
	hiFill float64

	conns    int // client connections (serve rungs)
	inflight int // closed-loop callers per connection; conns x inflight submitters on the engine rung

	// warmOps is the fixed warm-up op count, charged to setup_s.
	warmOps int
	// measureOps is the fixed op count of one round's measured interval
	// (see runEndToEnd): about half a second of work on the seed commit,
	// and at most 100 000 on the two-shard bmwd-default node. There, under
	// uniform ranks behind hash routing, nothing restores the balance of
	// shard lengths: one shard drains by some 4 elements per 1000 ops
	// while the other fills, and from about 330 000 ops of a node's life
	// on pops answer empty and pushes full at half fill
	// (engine.shard_len_skew shows the drift). No system the benchmark
	// builds lives longer than its warm-up plus measureOps.
	measureOps uint64
}

// bmwdOverload is cmd/bmwd's default admission control
// (-overload-high 0.85, -overload-drain-latency 20ms).
var bmwdOverload = engine.Overload{HighFrac: 0.85, DrainLatencyHigh: 20e6}

// paperGeom is the paper's RPU-BMW scale: order 4, 8 levels, 87 380
// slots per tree.
func paperGeom(shards int) engine.Config {
	return engine.Config{Shards: shards, Kind: engine.KindCore, Order: 4, Levels: 8,
		RingSize: 1024, BatchSize: 64, Routing: engine.RouteHash, RankBits: rankBits,
		Overload: bmwdOverload}
}

// bmwdGeom is cmd/bmwd's flag defaults (m=2 l=11, ring 1024, batch 64,
// hash routing, 30-bit ranks) with the shard count sized to nproc = 2:
// two shards on a lone node, one each on the cluster workload's two.
func bmwdGeom(shards int) engine.Config {
	return engine.Config{Shards: shards, Kind: engine.KindCore, Order: 2, Levels: 11,
		RingSize: 1024, BatchSize: 64, Routing: engine.RouteHash, RankBits: rankBits,
		Overload: bmwdOverload}
}

const (
	rankBits = 30   // bmwd -rankbits 30: ranks uniform on [0, 2^30)
	flowIDs  = 4096 // Meta is one of 4096 flow ids
)

var workloads = []workload{
	{
		name: "tree_mixed", top: rungCore,
		why:  "bare core tree at the paper's m=4 l=8 scale, alternating push/pop at half fill: core is all of the work",
		geom: paperGeom(1), shape: shapeMixed, batch: 64, fill: 0.5,
		warmOps: 1 << 18, measureOps: 4_000_000,
	},
	{
		name: "engine_mixed_b64", top: rungEngine,
		why:  "engine.SubmitInto, one shard, 32 push + 32 pop per batch: ring, allocs and wake-ups dominate, core is about a third",
		geom: paperGeom(1), shape: shapeMixed, batch: 64, fill: 0.5,
		warmOps: 1 << 17, measureOps: 1_600_000,
	},
	{
		name: "engine_sawtooth_b256", top: rungEngine,
		why:  "same path, homogeneous 256-op batches sweeping 10% to 90% fill: what level-wise batching favours, push and pop apart",
		geom: paperGeom(1), shape: shapeSawtooth, batch: 256, fill: 0.1, loFill: 0.1, hiFill: 0.9,
		warmOps: 1 << 18, measureOps: 1_400_000,
	},
	{
		name: "serve_sat_b64", top: rungObs,
		why:  "bmwd-assembled node over loopback, 2 conns x 4 in flight, 64-op frames: the deployed saturating path with replic tap and obs",
		geom: bmwdGeom(2), shape: shapeMixed, batch: 64, fill: 0.5, conns: 2, inflight: 4,
		warmOps: 1 << 15, measureOps: 100_000,
	},
	{
		name: "serve_lat_b1", top: rungObs,
		why:  "same node, one conn, one op per frame: unloaded round trip where per-request fixed cost dominates and core is under 1%",
		geom: bmwdGeom(2), shape: shapeMixed, batch: 1, fill: 0.5, conns: 1, inflight: 1,
		warmOps: 1 << 12, measureOps: 16_000,
	},
	{
		name: "serve_sync_b64", top: rungSync,
		why:  "primary with sync replication and an in-process follower: the response waits for the follower ack, replic dominates",
		geom: bmwdGeom(2), shape: shapeMixed, batch: 64, fill: 0.5, conns: 2, inflight: 4,
		warmOps: 1 << 14, measureOps: 100_000,
	},
	{
		name: "cluster_rank_b16", top: rungCluster,
		why:  "two primaries under a rank-band map, one routing client, 8 push + 8 pop per call: owner routing and per-pop round trips dominate",
		geom: bmwdGeom(1), shape: shapeMixed, batch: 16, fill: 0.25, conns: 1, inflight: 1,
		warmOps: 1 << 12, measureOps: 32_000,
	},
	{
		name: "restart_large", top: rungPersist,
		why:  "close, checkpoint, verify and restore a 2-shard m=4 l=8 engine at 75% fill: persist does all the work, serving layers none",
		geom: paperGeom(2), shape: shapeMixed, batch: 64, fill: 0.75, conns: 1, inflight: 1,
		warmOps: 0, measureOps: 1_000_000,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
