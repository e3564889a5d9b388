package main

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/core"
)

// tapeDigest hashes the first n batches a workload would issue from a
// tape — the determinism test's "byte-identical op tape".
func tapeDigest(w *workload, tape []core.Element, batches int) uint64 {
	capacity := core.Capacity(w.geom.Order, w.geom.Levels)
	g := newGen(w, tape, 0, capacity, int(w.fill*float64(capacity)))
	kinds := make([]bool, w.batch)
	elems := make([]core.Element, w.batch)
	h := fnv.New64a()
	var buf [17]byte
	for b := 0; b < batches; b++ {
		g.next(kinds, elems)
		for i := range kinds {
			buf[0] = 0
			if kinds[i] {
				buf[0] = 1
				binary.LittleEndian.PutUint64(buf[1:], elems[i].Value)
				binary.LittleEndian.PutUint64(buf[9:], elems[i].Meta)
			} else {
				clear(buf[1:])
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// The same seed must give byte-identical op tapes, and a different seed
// a different tape, for every workload's shape.
func TestTapeDeterminism(t *testing.T) {
	a, b, c := newTape(7, tapeLen), newTape(7, tapeLen), newTape(8, tapeLen)
	for i := range workloads {
		w := &workloads[i]
		const batches = 4096
		da, db, dc := tapeDigest(w, a, batches), tapeDigest(w, b, batches), tapeDigest(w, c, batches)
		if da != db {
			t.Errorf("%s: seed 7 gave two different tapes", w.name)
		}
		if da == dc {
			t.Errorf("%s: seeds 7 and 8 gave the same tape", w.name)
		}
	}
}

// With a single caller and a fixed op budget the whole history is a
// function of the seed: the same ops attempted, the same elements acked
// in and popped out (the tally's digests).
func TestHistoryDeterminism(t *testing.T) {
	for _, name := range []string{"tree_mixed", "engine_sawtooth_b256", "serve_lat_b1", "cluster_rank_b16"} {
		w := tiny(*findWorkload(name))
		w.warmOps = 64 * w.batch
		run := func(seed uint64) tally {
			s, err := build(w, w.top, newTape(seed, tapeLen), buildOpts{check: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			tl := s.totals()
			if err := s.finish(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return tl
		}
		a, b, c := run(7), run(7), run(8)
		if a != b {
			t.Errorf("%s: seed 7 gave two histories:\n%+v\n%+v", name, a, b)
		}
		if a.attempted != c.attempted {
			t.Errorf("%s: attempted ops depend on the seed: %d against %d", name, a.attempted, c.attempted)
		}
		if a.inSum == c.inSum {
			t.Errorf("%s: seeds 7 and 8 pushed the same elements", name)
		}
	}
}

// The exact counters do not depend on timing: two traced passes over the
// same seed agree to the last digit.
func TestExactCounters(t *testing.T) {
	w := tiny(*findWorkload("serve_sat_b64"))
	counters := func() (bytesPerOp, snapPerElem, walBytes float64) {
		l := &ladder{w: w, tape: newTape(7, tapeLen), unit: 20 * time.Millisecond,
			res: &result{Metrics: map[string]mvalue{}}, rungs: map[rung]*interval{}}
		if err := l.codec(); err != nil {
			t.Fatal(err)
		}
		if err := l.persist(); err != nil {
			t.Fatal(err)
		}
		m := l.res.Metrics
		return m["wire.bytes_per_op"].Value, m["persist.snapshot_bytes_per_elem"].Value, m["persist.wal_bytes_per_op"].Value
	}
	b1, s1, w1 := counters()
	b2, s2, w2 := counters()
	if b1 != b2 || s1 != s2 || w1 != w2 {
		t.Errorf("exact counters moved between two runs: bytes/op %v %v, snapshot B/elem %v %v, WAL B/op %v %v",
			b1, b2, s1, s2, w1, w2)
	}
	if b1 <= 0 || s1 <= 0 || w1 <= 0 {
		t.Errorf("exact counters not positive: %v %v %v", b1, s1, w1)
	}
}
