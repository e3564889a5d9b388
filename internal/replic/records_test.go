package replic

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/wire"
)

func TestReplHelloRoundTrip(t *testing.T) {
	m := Manifest{Shards: 4, Kind: 2, Order: 4, Levels: 6}
	p := AppendReplHello(nil, m, 77, 0xABCDEF)
	got, resume, logID, err := ParseReplHello(p)
	if err != nil {
		t.Fatal(err)
	}
	if got != m || resume != 77 || logID != 0xABCDEF {
		t.Fatalf("round trip: got %+v resume %d logID %x", got, resume, logID)
	}
	if _, _, _, err := ParseReplHello(p[:len(p)-1]); !errors.Is(err, wire.ErrBadFrame) {
		t.Fatalf("short hello: %v", err)
	}
}

// fourKindHello is a TReplHello as engines that could serve four queue
// kinds and route pushes wrote it for testGeom: shards, kind byte
// (core), routing (0 hash, 1 rank), order, levels, the PIFO capacity
// every config normalised to 4094, rank bits (hex, little-endian u32),
// then resume and log id, each little-endian.
func fourKindHello(kind, routing byte, rankBits, resume, logID string) []byte {
	b, err := hex.DecodeString("02000000" + hex.EncodeToString([]byte{kind, routing}) + "02000000" + "0a000000" +
		"fe0f000000000000" + rankBits + resume + logID)
	if err != nil {
		panic(err)
	}
	return b
}

// TestReplHelloLayoutUnchanged pins the 42-byte hello: an engine today
// writes exactly the bytes an older bmwd wrote for the same core
// geometry with its default flags (hash routing, 30-bit ranks), and
// reads the hello of a rank-routed one, 16-bit ranks, back as its own
// manifest.
func TestReplHelloLayoutUnchanged(t *testing.T) {
	want := fourKindHello(0, 0, "1e000000", "0500000000000000", "8877665544332211")
	got := AppendReplHello(nil, ManifestOf(testGeom), 5, 0x1122334455667788)
	if !bytes.Equal(got, want) || len(got) != 42 {
		t.Fatalf("hello = %x (%d bytes), want %x", got, len(got), want)
	}
	m, resume, logID, err := ParseReplHello(fourKindHello(0, 1, "10000000", "0500000000000000", "8877665544332211"))
	if err != nil {
		t.Fatal(err)
	}
	if m != ManifestOf(testGeom) || resume != 5 || logID != 0x1122334455667788 {
		t.Fatalf("parsed %+v resume %d log %x", m, resume, logID)
	}
}

func TestReplOKRoundTrip(t *testing.T) {
	p := AppendReplOK(nil, 123, 0xFACE)
	tip, logID, err := ParseReplOK(p)
	if err != nil {
		t.Fatal(err)
	}
	if tip != 123 || logID != 0xFACE {
		t.Fatalf("round trip: tip %d logID %x", tip, logID)
	}
	if _, _, err := ParseReplOK(p[:8]); !errors.Is(err, wire.ErrBadFrame) {
		t.Fatalf("short repl ok: %v", err)
	}
}

func TestManifestOfNormalizes(t *testing.T) {
	// Two configs differing only in unset-vs-explicit defaults must
	// yield the same manifest, or a follower started with default flags
	// could never attach to a primary started the same way.
	a := ManifestOf(engine.Config{Shards: 4})
	b := ManifestOf(engine.Config{Shards: 4}.Normalized())
	if a != b {
		t.Fatalf("manifest differs across normalization: %+v vs %+v", a, b)
	}
	if a == ManifestOf(engine.Config{Shards: 8}) {
		t.Fatal("different shard counts produced equal manifests")
	}
}

func TestReplRecordsRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: RecOp, Shard: 3, LSN: 9, Op: OpPush, Value: 42, Meta: 7},
		{Kind: RecOp, Shard: 0, LSN: 1, Op: OpPop, Value: 5, Meta: 1, End: true},
		{Kind: RecDedup, Session: 0xFEED, ReqID: 12, Resp: []byte{1, 2, 3}},
		{Kind: RecDedup, Session: 1, ReqID: 13, End: true}, // empty response
	}
	p := AppendReplRecords(nil, 100, recs)
	first, got, err := ParseReplRecords(p)
	if err != nil {
		t.Fatal(err)
	}
	if first != 100 {
		t.Fatalf("first = %d", first)
	}
	// An empty Resp decodes as empty-but-allocated; normalize.
	for i := range got {
		if len(got[i].Resp) == 0 {
			got[i].Resp = nil
		}
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("records round trip:\n got %+v\nwant %+v", got, recs)
	}

	// Heartbeat: zero records.
	first, got, err = ParseReplRecords(AppendReplRecords(nil, 5, nil))
	if err != nil || first != 5 || len(got) != 0 {
		t.Fatalf("heartbeat: first=%d recs=%v err=%v", first, got, err)
	}
}

func TestReplRecordsRejectsMalformed(t *testing.T) {
	good := AppendReplRecords(nil, 1, []Record{
		{Kind: RecOp, Shard: 1, LSN: 1, Op: OpPush, Value: 2, Meta: 3},
		{Kind: RecDedup, Session: 9, ReqID: 9, Resp: []byte("ok")},
	})
	cases := map[string][]byte{
		"empty":      {},
		"short":      good[:11],
		"truncated":  good[:len(good)-1],
		"trailing":   append(append([]byte(nil), good...), 0),
		"bad-kind":   func() []byte { b := append([]byte(nil), good...); b[12] = 99; return b }(),
		"bad-opcode": func() []byte { b := append([]byte(nil), good...); b[25] = 99; return b }(),
	}
	for name, p := range cases {
		if _, _, err := ParseReplRecords(p); !errors.Is(err, wire.ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
}

// TestReplRecordsGolden pins the record encoding: these bytes are what
// every earlier primary sent for this group, so a follower and a
// primary of different versions still understand each other. The log
// stores the same bytes, so a cursor over it must produce them too.
func TestReplRecordsGolden(t *testing.T) {
	const golden = "0700000000000000" + "02000000" + // first seq 7, 2 records
		"01" + "01000000" + "0200000000000000" + "01" + "0807060504030201" + "0900000000000000" + // push, shard 1, lsn 2
		"82" + "edfe000000000000" + "2a00000000000000" + "02000000" + "6f6b" // dedup (End), session 0xFEED, req 42, "ok"
	group := []Record{
		{Kind: RecOp, Shard: 1, LSN: 2, Op: OpPush, Value: 0x0102030405060708, Meta: 9},
		{Kind: RecDedup, Session: 0xFEED, ReqID: 42, Resp: []byte("ok"), End: true},
	}
	if got := hex.EncodeToString(AppendReplRecords(nil, 7, group)); got != golden {
		t.Fatalf("AppendReplRecords:\n got %s\nwant %s", got, golden)
	}
	l := NewLog()
	for i := range 6 {
		l.AppendGroup([]Record{pushRec(0, uint64(i+1), 0)})
	}
	l.AppendGroup(group)
	first, n, b := l.Cursor(6).Next(MaxRecordsPerFrame, frameBytes)
	if got := hex.EncodeToString(append(appendRecordsHeader(nil, first, n), b...)); got != golden {
		t.Fatalf("log bytes:\n got %s\nwant %s", got, golden)
	}
}

// readLog streams l after sequence after through one cursor the way a
// stream sender does — runs of at most maxRecs records and maxBytes
// bytes, one record always — parses each run as a TReplRecords payload,
// and returns the records.
func readLog(t testing.TB, l *Log, after uint64, maxRecs, maxBytes int) []Record {
	t.Helper()
	var out []Record
	c := l.Cursor(after)
	for seq := after; seq < l.Seq(); {
		first, n, b := c.Next(maxRecs, maxBytes)
		if n == 0 || first != seq+1 {
			t.Fatalf("read after %d below the tip %d: first %d, %d records", seq, l.Seq(), first, n)
		}
		if n > maxRecs || (n > 1 && len(b) > maxBytes) {
			t.Fatalf("run of %d records, %d bytes breaks the bounds %d/%d", n, len(b), maxRecs, maxBytes)
		}
		got, recs, err := ParseReplRecords(append(appendRecordsHeader(nil, first, n), b...))
		if err != nil || got != first || len(recs) != n {
			t.Fatalf("run after %d does not parse: first %d, %d of %d records, %v", seq, got, len(recs), n, err)
		}
		out = append(out, recs...)
		seq += uint64(n)
	}
	return out
}

// sameRecords compares record lists, an empty response equal to none.
func sameRecords(t testing.TB, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if len(g.Resp) == 0 && len(w.Resp) == 0 {
			g.Resp, w.Resp = nil, nil
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

func TestLogGroupsAndCursor(t *testing.T) {
	l := NewLog()
	if l.Seq() != 0 {
		t.Fatalf("fresh log seq = %d", l.Seq())
	}
	c := l.Cursor(0) // seeked on an empty log, it reads what comes later
	tip := l.AppendGroup([]Record{
		{Kind: RecOp, Shard: 0, LSN: 1, Op: OpPush, End: true},
		{Kind: RecDedup, Session: 1, ReqID: 1},
	})
	if tip != 2 || l.Seq() != 2 {
		t.Fatalf("tip = %d seq = %d", tip, l.Seq())
	}
	// AppendGroup stamps the group boundary: End on the last record only.
	sameRecords(t, readLog(t, l, 0, 10, frameBytes), []Record{
		{Kind: RecOp, Shard: 0, LSN: 1, Op: OpPush},
		{Kind: RecDedup, Session: 1, ReqID: 1, End: true},
	})
	if first, n, _ := c.Next(10, frameBytes); first != 1 || n != 2 {
		t.Fatalf("cursor seeked on the empty log read %d records from %d", n, first)
	}
	if recs := readLog(t, l, 1, 1, frameBytes); len(recs) != 1 || recs[0].Kind != RecDedup {
		t.Fatalf("read after 1 = %+v", recs)
	}

	// A reader blocked at the tip is released by an append…
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if first, n, _ := c.Next(10, frameBytes); first != 3 || n != 1 {
			t.Errorf("blocked Next woke with %d records from %d", n, first)
		}
	}()
	l.AppendGroup([]Record{{Kind: RecOp, Shard: 0, LSN: 2, Op: OpPop}})
	wg.Wait()

	// …and by Wake, returning empty. Wake is broadcast-only (no memory),
	// so keep waking until the reader has observed one.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if first, n, _ := c.Next(10, frameBytes); first != 4 || n != 0 {
			t.Errorf("woken Next returned %d records from %d", n, first)
		}
	}()
	for {
		l.Wake()
		select {
		case <-done:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// segmentLog builds a log of several segments from a seeded mix of
// groups — op runs, dedup records of assorted sizes, one dedup record
// larger than a segment — and returns it with the records as a reader
// must see them: End on each group's last record. Every op record's LSN
// is its own sequence, so a misplaced one shows.
func segmentLog(t testing.TB) (*Log, []Record) {
	t.Helper()
	l := NewLog()
	rng := rand.New(rand.NewSource(1))
	var want []Record
	for g := 0; len(l.segs) < 4 || g < 300; g++ {
		var group []Record
		for range rng.Intn(70) {
			group = append(group, pushRec(uint32(rng.Intn(4)), uint64(len(want)+len(group)+1), rng.Uint64()))
		}
		if len(group) == 0 || g == 100 || rng.Intn(2) == 0 {
			resp := make([]byte, rng.Intn(3000))
			if g == 100 {
				resp = make([]byte, segBytes+100)
			}
			rng.Read(resp)
			group = append(group, Record{Kind: RecDedup, Session: uint64(g + 1), ReqID: uint64(g), Resp: resp})
		}
		if tip := l.AppendGroup(group); tip != uint64(len(want)+len(group)) {
			t.Fatalf("group %d: tip %d, want %d", g, tip, len(want)+len(group))
		}
		group[len(group)-1].End = true
		want = append(want, group...)
	}
	return l, want
}

// TestLogSegmentBoundaries checks the segment layout — records whole
// inside one segment, an oversized dedup record alone in its own, the
// index numbering each segment's first record — and that a cursor
// seeked to every sequence reads the right records with each group's
// single End intact, also for groups that straddle a boundary.
func TestLogSegmentBoundaries(t *testing.T) {
	l, want := segmentLog(t)
	if len(l.segs) < 3 {
		t.Fatalf("%d segments, want at least 3", len(l.segs))
	}
	seq, straddles, oversized := uint64(1), 0, 0
	for i, seg := range l.segs {
		if l.firsts[i] != seq {
			t.Fatalf("segment %d indexed at %d, starts at %d", i, l.firsts[i], seq)
		}
		if i > 0 && !want[seq-2].End {
			straddles++
		}
		for off := 0; off < len(seg); seq++ {
			sz := recSize(seg[off:])
			if off+sz > len(seg) {
				t.Fatalf("record %d straddles the end of segment %d", seq, i)
			}
			if sz > segBytes {
				oversized++
				if off != 0 || sz != len(seg) {
					t.Fatalf("oversized record %d shares segment %d", seq, i)
				}
			}
			off += sz
		}
	}
	if seq-1 != l.Seq() || straddles == 0 || oversized != 1 {
		t.Fatalf("%d records in segments (tip %d), %d groups straddling, %d oversized records",
			seq-1, l.Seq(), straddles, oversized)
	}
	sameRecords(t, readLog(t, l, 0, MaxRecordsPerFrame, frameBytes), want)

	// A cursor seeked anywhere reads on from exactly there.
	for after := uint64(0); after < l.Seq(); after++ {
		first, n, b := l.Cursor(after).Next(1, frameBytes)
		_, recs, err := ParseReplRecords(append(appendRecordsHeader(nil, first, n), b...))
		if err != nil || first != after+1 || n != 1 {
			t.Fatalf("cursor after %d: first %d, %d records, %v", after, first, n, err)
		}
		sameRecords(t, recs, want[after:after+1])
	}
}

// TestCursorFrameBounds streams runs under both frame bounds: the
// record count splits a long op run, the byte budget splits large
// dedup records, and a record larger than the budget still ships,
// alone.
func TestCursorFrameBounds(t *testing.T) {
	l := NewLog()
	var want []Record
	ops := make([]Record, MaxRecordsPerFrame+3)
	for i := range ops {
		ops[i] = pushRec(0, uint64(i+1), uint64(i))
	}
	l.AppendGroup(ops)
	ops[len(ops)-1].End = true
	want = append(want, ops...)
	for _, n := range []int{30 << 10, 30 << 10, 30 << 10, 600 << 10} {
		d := Record{Kind: RecDedup, Session: 1, ReqID: uint64(n), Resp: make([]byte, n)}
		l.AppendGroup([]Record{d})
		d.End = true
		want = append(want, d)
	}

	const budget = 64 << 10
	c := l.Cursor(0)
	var runs []int
	for seq := uint64(0); seq < l.Seq(); {
		_, n, b := c.Next(MaxRecordsPerFrame, budget)
		runs = append(runs, n)
		if n > 1 && len(b) > budget {
			t.Fatalf("run of %d records is %d bytes", n, len(b))
		}
		seq += uint64(n)
	}
	// 512 ops; the other 3 and two dedup records, under the budget; the
	// third, the end of the segment; the record larger than the budget
	// (and than a segment), alone.
	if !slices.Equal(runs, []int{MaxRecordsPerFrame, 5, 1, 1}) {
		t.Fatalf("runs %v", runs)
	}
	sameRecords(t, readLog(t, l, 0, MaxRecordsPerFrame, budget), want)
}

// TestTapAllocates nothing: the batch tap encodes a 64-op batch and its
// dedup record straight into the log, so the only allocations are new
// segments, which amortise to zero per batch.
func TestTapAllocates(t *testing.T) {
	n, _ := applyNode(t, benchGeom)
	ops, res, resp := tapBatch()
	id := uint64(0)
	if avg := testing.AllocsPerRun(500, func() {
		id++
		n.onBatch(1, id, ops, res, resp)
	}); avg != 0 {
		t.Fatalf("%v allocations per tapped batch", avg)
	}
	if n.log.Seq() != 501*(benchGroup+1) {
		t.Fatalf("log tip %d after 501 batches", n.log.Seq())
	}
}
