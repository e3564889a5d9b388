package replic

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wire"
)

// benchGroup is the group shape of the serving ladder's serve_sync_b64
// workload: 64 op records over 2 shards, pushes and pops in equal parts.
const benchGroup = 64

// benchChunk is how many groups a benchmark runs between resets of the
// state that grows with history (the genesis-retained log), so that its
// memory is bounded however far b.N goes: 1024 groups are 65 536
// records, 5 MiB of log.
const benchChunk = 1024

var benchGeom = engine.Config{Shards: 2, Order: 2, Levels: 11}

// reportPerRecord adds ns/record beside the per-group ns/op.
func reportPerRecord(b *testing.B, records int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}

// tapBatch is one executed batch as the wire server hands it to the
// batch tap: 64 ops over 2 shards, pushes and pops in equal parts, all
// successful, and the encoded 64-result response.
func tapBatch() ([]engine.Op, []engine.Result, []byte) {
	ops := make([]engine.Op, benchGroup)
	res := make([]engine.Result, benchGroup)
	wres := make([]wire.Result, benchGroup)
	for i := range ops {
		el := core.Element{Value: uint64(i) << 20, Meta: uint64(i)}
		ops[i] = engine.PushOp(el)
		if i%2 == 1 {
			ops[i] = engine.PopOp()
		}
		res[i] = engine.Result{Elem: el, Shard: int32(i % 2), LSN: uint64(i/2 + 1)}
		wres[i] = wire.Result{Status: wire.StatusOK, Value: el.Value, Meta: el.Meta}
	}
	return ops, res, wire.AppendResults(nil, wres)
}

// BenchmarkLogAppend drives the primary's batch tap with 64-op batches
// of a dedup-enrolled session — 65 records a group — into a log that
// starts empty every benchChunk groups: growing from nothing is part of
// what a log costs. B/op is the log memory a group takes.
func BenchmarkLogAppend(b *testing.B) {
	n, _ := applyNode(b, benchGeom)
	ops, res, resp := tapBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchChunk == 0 {
			n.log = NewLog()
		}
		n.onBatch(1, uint64(i+1), ops, res, resp)
	}
	reportPerRecord(b, benchGroup+1)
}

// BenchmarkFollowerApply times applyReady on one frame holding one
// group per call, as a follower keeping up with its primary sees them. The
// history is a real one: a second engine plays the primary, untimed,
// a chunk of groups ahead.
func BenchmarkFollowerApply(b *testing.B) {
	prim, err := engine.New(benchGeom)
	if err != nil {
		b.Fatal(err)
	}
	defer prim.Close()
	n, _ := applyNode(b, benchGeom)
	rng := rand.New(rand.NewSource(1))
	ops := make([]engine.Op, benchGroup/2)
	res := make([]engine.Result, len(ops))
	// nextGroup runs one batch on the primary — per shard, pushes and
	// pops alternating — and returns its records.
	nextGroup := func(pops bool) []Record {
		recs := make([]Record, 0, benchGroup)
		for sh := 0; sh < 2; sh++ {
			for i := range ops {
				if pops && i%2 == 1 {
					ops[i] = engine.PopOp()
				} else {
					v := uint64(rng.Int63n(1 << 30))
					ops[i] = engine.PushOp(core.Element{Value: v, Meta: v})
				}
			}
			if err := prim.ApplyReplica(sh, ops, res); err != nil {
				b.Fatal(err)
			}
			for i, r := range res {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
				rec := Record{Kind: RecOp, Op: OpPush, Shard: uint32(sh), LSN: r.LSN,
					Value: ops[i].Elem.Value, Meta: ops[i].Elem.Meta}
				if ops[i].Kind == engine.OpPop {
					rec.Op, rec.Value, rec.Meta = OpPop, r.Elem.Value, r.Elem.Meta
				}
				recs = append(recs, rec)
			}
		}
		recs[len(recs)-1].End = true
		return recs
	}
	var seq uint64
	apply := func(recs []Record) {
		if moved, err := n.applyReady(seq+1, recs); err != nil || !moved {
			b.Fatalf("apply: %v, frontier moved %v", err, moved)
		}
		seq += uint64(len(recs))
	}
	for i := 0; i < 32; i++ { // half fill, so no pop finds its shard empty
		apply(nextGroup(false))
	}

	b.ReportAllocs()
	b.ResetTimer()
	chunk := make([][]Record, 0, benchChunk)
	for i := 0; i < b.N; i++ {
		if len(chunk) == 0 {
			b.StopTimer()
			for range min(benchChunk, b.N-i) {
				chunk = append(chunk, nextGroup(true))
			}
			n.log = NewLog()
			b.StartTimer()
		}
		apply(chunk[0])
		chunk = chunk[1:]
	}
	reportPerRecord(b, benchGroup)
}
