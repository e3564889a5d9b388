package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	bmw "repro"
)

// engineConfigs is the shards × batch-size sweep the engine suite
// measures: batch=1 exposes the raw per-op ring cost (one lock+signal
// and one shard wakeup per operation), batch=64 the amortized cost the
// serving path actually pays. The shard axis shows how the MPSC fan-out
// scales; on a single-CPU runner it measures coordination overhead, on
// multi-core it measures parallel speedup.
var engineConfigs = []struct {
	shards, batch int
}{
	{1, 1},
	{1, 64},
	{4, 1},
	{4, 64},
	{4, 256},
}

// engineWorkers is the number of concurrent submitters: two, so the
// MPSC ring always sees real producer contention even in quick mode.
const engineWorkers = 2

// engineTraceSample, when positive (-trace-sample), runs the engine
// suite with request-lifecycle tracing installed: one in N batches is
// carried through the full span lifecycle (Begin, the engine's
// enqueue/dequeue/apply stamps, Finish into the stage histograms),
// mirroring the cost profile of bmwd's sampling knob. The measured
// Mops then carry the tracer's amortized overhead and the baseline
// comparison becomes the tracing-cost regression gate. The untraced
// batches still pay the nil-span branch at every stamp site — the
// always-on cost of the instrumentation points themselves.
var engineTraceSample int

// engineFlightRec, when true (-flightrec), runs the engine suite with
// the black-box flight recorder attached: engine hooks record
// overload/backpressure edges, and one in 64 batches (or the
// -trace-sample period when set) is carried through the span lifecycle
// whose Finish performs flight admission. Comparing the measured Mops
// against the untraced committed baseline gates the black box's
// overhead — the acceptance bound is 3%.
var engineFlightRec bool

// engineIntegrity, when true (-integrity), runs the engine suite with
// the deployment-shaped durable-integrity load alongside the measured
// workload: a background lane records a hash-chained WAL through a
// persist manager with periodic Merkle-sealed checkpoints, while an
// io-throttled scrubber (bmwd's default 8 MiB/s) continuously
// re-verifies the directory. Comparing the measured Mops against the
// committed baseline gates scrub+chain overhead — the acceptance bound
// is 3%.
var engineIntegrity bool

// engineMops measures aggregate push+pop throughput of a sharded
// engine at 50% fill: engineWorkers goroutines split ops between them,
// each submitting alternating push/pop batches of the given size.
func engineMops(shards, batch, ops int, seed int64) float64 {
	eng, err := bmw.NewEngine(bmw.EngineConfig{
		Shards: shards,
		Order:  2,
		Levels: 11,
	})
	if err != nil {
		panic(err)
	}
	defer eng.Close()

	// Prefill to half capacity so pops never run dry and pushes never
	// hit the almost-full reject.
	rng := rand.New(rand.NewSource(seed))
	fill := make([]bmw.EngineOp, 0, 256)
	for filled := 0; filled < eng.Cap()/2; filled += len(fill) {
		fill = fill[:0]
		for i := 0; i < 256 && filled+i < eng.Cap()/2; i++ {
			fill = append(fill, bmw.EnginePushOp(bmw.Element{
				Value: uint64(rng.Intn(1 << 16)), Meta: rng.Uint64(),
			}))
		}
		for _, r := range eng.Submit(fill) {
			if r.Err != nil {
				panic(r.Err)
			}
		}
	}

	if engineIntegrity {
		stop, err := startIntegrityLoad(seed)
		if err != nil {
			panic(err)
		}
		defer stop()
	}

	var fr *bmw.FlightRecorder
	if engineFlightRec {
		fr = bmw.NewFlightRecorder(8192)
		eng.SetHooks(bmw.EngineHooks{Flight: fr})
	}
	sampleN := engineTraceSample
	if sampleN <= 0 && fr != nil {
		sampleN = 64
	}
	var tracer *bmw.RequestTracer
	if sampleN > 0 {
		tracer = bmw.NewRequestTracer(bmw.RequestTracerOptions{
			Registry:    bmw.NewMetricsRegistry(),
			Prefix:      "perf_trace",
			SampleEvery: sampleN,
			Flight:      fr,
		})
	}

	perWorker := ops / engineWorkers
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < engineWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed + int64(w)))
			b := make([]bmw.EngineOp, batch)
			res := make([]bmw.EngineResult, batch)
			nbatch := 0
			for done := 0; done < perWorker; done += len(b) {
				nbatch++
				for i := range b {
					// Alternate on the global op index, not the batch
					// offset, so batch=1 still issues pushes and pops in
					// equal measure instead of pushing until full.
					if (done+i)%2 == 0 {
						b[i] = bmw.EnginePushOp(bmw.Element{
							Value: uint64(wrng.Intn(1 << 16)), Meta: wrng.Uint64(),
						})
					} else {
						b[i] = bmw.EnginePopOp()
					}
				}
				if tracer != nil && nbatch%sampleN == 0 {
					// Mirror the server's span lifecycle: the wire stages
					// the bench has no server for are stamped zero-width
					// around the engine stages SubmitTraced fills in,
					// sharing one clock read per side like the server does.
					now := bmw.RequestSpanNow()
					sp := tracer.Begin(int64(w), now)
					sp.StampAt(bmw.StageDecode, now)
					eng.SubmitTraced(b, res, sp)
					now = bmw.RequestSpanNow()
					sp.StampAt(bmw.StageCommit, now)
					sp.StampAt(bmw.StageAck, now)
					sp.StampAt(bmw.StageWrite, now)
					tracer.Finish(sp)
				} else {
					eng.SubmitInto(b, res)
				}
			}
		}(w)
	}
	wg.Wait()
	el := time.Since(start)
	return float64(perWorker*engineWorkers) / el.Seconds() / 1e6
}

// startIntegrityLoad spins up the background integrity lane the
// -integrity gate measures against: one goroutine alternating between
// chained-WAL record bursts (group commit, periodic checkpoints — the
// write-side hash-chain and Merkle cost) and throttled scrub steps
// (the read-side verification cost), against its own scratch
// directory. The returned stop function halts the lane and removes the
// scratch state.
func startIntegrityLoad(seed int64) (func(), error) {
	dir, err := os.MkdirTemp("", "bmwperf-integrity-")
	if err != nil {
		return nil, err
	}
	tree := bmw.NewBMWTree(2, 11)
	m, _, err := bmw.OpenPersist(dir, tree, bmw.PersistOptions{
		WAL: bmw.PersistWALOptions{BatchOps: 64, Sync: bmw.SyncBatch},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	scr := bmw.NewPersistScrubber(bmw.PersistScrubConfig{
		Dirs:      []string{dir},
		RateBytes: 8 << 20, // bmwd's default -scrub-rate
	})

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer os.RemoveAll(dir)
		defer m.Close()
		rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
		// Pace the lane like a daemon's persistence load, not a
		// saturating producer: one 32-op group commit per 50ms tick
		// (~640 chained records/s), a full scrub pass every 8th tick
		// (the Step's own sleep enforces the 8 MiB/s io cap), and a
		// Merkle-sealed checkpoint every 128 ticks.
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		bursts := 0
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			for i := 0; i < 32; i++ {
				var op bmw.PersistOp
				if tree.Len() > 0 && (rng.Intn(3) == 0 || tree.AlmostFull()) {
					e, err := tree.Pop()
					if err != nil {
						return
					}
					p, q := tree.OpStats()
					op = bmw.PersistOp{Kind: bmw.OpPop, Cycle: p + q, Value: e.Value, Meta: e.Meta}
				} else {
					e := bmw.Element{Value: uint64(rng.Intn(1 << 16)), Meta: rng.Uint64()}
					if err := tree.Push(e); err != nil {
						return
					}
					p, q := tree.OpStats()
					op = bmw.PersistOp{Kind: bmw.OpPush, Cycle: p + q, Value: e.Value, Meta: e.Meta}
				}
				if err := m.Record(op); err != nil {
					return
				}
			}
			if bursts++; bursts%128 == 0 {
				if err := m.Checkpoint(); err != nil {
					return
				}
			}
			if bursts%8 == 0 {
				scr.Step() // sleeps dir-bytes/8MiB inside: the io throttle
			}
		}
	}()
	return func() { close(done); wg.Wait() }, nil
}

// engineSuite produces the BENCH_engine metric set: the shards ×
// batch-size throughput sweep over the concurrent scheduling engine.
func engineSuite(quick bool, seed int64) map[string]Metric {
	ops := 1_000_000
	if quick {
		ops = 200_000
	}
	m := map[string]Metric{}
	for _, c := range engineConfigs {
		name := fmt.Sprintf("engine_s%d_b%d_mops", c.shards, c.batch)
		cfg := c
		m[name] = Metric{bestOf(wallReps, func() float64 {
			return engineMops(cfg.shards, cfg.batch, ops, seed)
		}), "Mops/s", higherIsBetter}
	}
	return m
}
