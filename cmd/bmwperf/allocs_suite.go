package main

import (
	"math/rand"
	"testing"

	bmw "repro"
	"repro/internal/wire"
)

// allocsSuite produces the BENCH_allocs metric set: steady-state
// allocations per operation on the serving hot path, measured with
// testing.AllocsPerRun. Unlike the Mops suites these are not
// noise-banded wall-clock numbers — on a warmed-up path they are exact
// small integers, so the comparator's relative threshold effectively
// gates any new allocation (a 0 → nonzero move on a lower-is-better
// metric is always flagged).
//
// Covered paths:
//
//	engine_submit_batch64   one SubmitInto of 64 ops through a
//	                        prefilled sharded engine (routing, inline
//	                        execution under the shard execution
//	                        locks, recycled submit state: zero)
//	wire_encode_batch64     AppendOps+AppendFrame of 64 ops into a
//	                        reused buffer
//	wire_decode_batch64     DecodeFrame+ParseOps of the same frame
//	                        (ParseOps allocates the []Op — the one
//	                        budgeted allocation)
//	span_lifecycle          tracer Begin → stage stamps → Finish with
//	                        quantile aggregation (pooled: zero)
func allocsSuite(seed int64) map[string]Metric {
	m := map[string]Metric{}

	const batch = 64
	rng := rand.New(rand.NewSource(seed))

	// Engine path: alternate push/pop batches against a half-full
	// engine so neither rejects; the engine and result slices live
	// outside the measured closure.
	eng, err := bmw.NewEngine(bmw.EngineConfig{
		Shards: 2, Order: 2, Levels: 11,
	})
	if err != nil {
		panic(err)
	}
	defer eng.Close()
	fill := make([]bmw.EngineOp, batch)
	for filled := 0; filled < eng.Cap()/2; filled += len(fill) {
		for i := range fill {
			fill[i] = bmw.EnginePushOp(bmw.Element{
				Value: uint64(rng.Intn(1 << 16)), Meta: rng.Uint64(),
			})
		}
		for _, r := range eng.Submit(fill) {
			if r.Err != nil {
				panic(r.Err)
			}
		}
	}
	ops := make([]bmw.EngineOp, batch)
	res := make([]bmw.EngineResult, batch)
	n := 0
	m["engine_submit_batch64_allocs"] = Metric{testing.AllocsPerRun(200, func() {
		n++
		for i := range ops {
			if (n+i)%2 == 0 {
				ops[i] = bmw.EnginePushOp(bmw.Element{
					Value: uint64(n%(1<<16) + i), Meta: uint64(n),
				})
			} else {
				ops[i] = bmw.EnginePopOp()
			}
		}
		eng.SubmitInto(ops, res)
	}), "allocs/batch", lowerIsBetter}

	// Wire codec: encode into a reused buffer, decode the whole frame
	// back. ParseOps allocates exactly one []Op per call by design.
	wops := make([]wire.Op, batch)
	for i := range wops {
		if i%2 == 0 {
			wops[i] = wire.Op{Kind: wire.OpPush, Value: uint64(i), Meta: uint64(i)}
		} else {
			wops[i] = wire.Op{Kind: wire.OpPop}
		}
	}
	opsBuf := make([]byte, 0, 4096)
	frameBuf := make([]byte, 0, 4096)
	m["wire_encode_batch64_allocs"] = Metric{testing.AllocsPerRun(1000, func() {
		opsBuf = wire.AppendOps(opsBuf[:0], wops)
		frameBuf = wire.AppendFrame(frameBuf[:0], wire.TBatch, 1, opsBuf)
	}), "allocs/batch", lowerIsBetter}

	payload := wire.AppendOps(nil, wops)
	frame := wire.AppendFrame(nil, wire.TBatch, 1, payload)
	m["wire_decode_batch64_allocs"] = Metric{testing.AllocsPerRun(1000, func() {
		f, _, err := wire.DecodeFrame(frame)
		if err != nil {
			panic(err)
		}
		if _, err := wire.ParseOps(f.Payload); err != nil {
			panic(err)
		}
	}), "allocs/batch", lowerIsBetter}

	// Span lifecycle: pooled spans and lock-free histogram observes —
	// the per-sampled-request tracing cost. Expected zero.
	tracer := bmw.NewRequestTracer(bmw.RequestTracerOptions{
		Registry: bmw.NewMetricsRegistry(),
		Prefix:   "perf_trace",
	})
	m["span_lifecycle_allocs"] = Metric{testing.AllocsPerRun(1000, func() {
		now := bmw.RequestSpanNow()
		sp := tracer.Begin(0, now)
		sp.StampAt(bmw.StageDecode, now)
		sp.StampAt(bmw.StageEnqueue, now)
		sp.StampAt(bmw.StageDequeue, now)
		sp.StampAt(bmw.StageApply, now)
		now = bmw.RequestSpanNow()
		sp.StampAt(bmw.StageCommit, now)
		sp.StampAt(bmw.StageAck, now)
		sp.StampAt(bmw.StageWrite, now)
		tracer.Finish(sp)
	}), "allocs/span", lowerIsBetter}

	return m
}
