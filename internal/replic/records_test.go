package replic

import (
	"bytes"
	"encoding/hex"
	"errors"
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

func TestLogGroupsAndReadFrom(t *testing.T) {
	l := NewLog()
	if l.Seq() != 0 {
		t.Fatalf("fresh log seq = %d", l.Seq())
	}
	tip := l.AppendGroup([]Record{
		{Kind: RecOp, Shard: 0, LSN: 1, Op: OpPush},
		{Kind: RecDedup, Session: 1, ReqID: 1},
	})
	if tip != 2 || l.Seq() != 2 {
		t.Fatalf("tip = %d seq = %d", tip, l.Seq())
	}
	recs := l.ReadFrom(0, 10)
	if len(recs) != 2 || recs[1].Kind != RecDedup {
		t.Fatalf("ReadFrom(0) = %+v", recs)
	}
	// AppendGroup stamps the group boundary: End on the last record only.
	if recs[0].End || !recs[1].End {
		t.Fatalf("group-end flags: %v/%v, want false/true", recs[0].End, recs[1].End)
	}
	if recs := l.ReadFrom(1, 1); len(recs) != 1 || recs[0].Kind != RecDedup {
		t.Fatalf("ReadFrom(1,1) = %+v", recs)
	}

	// A reader blocked at the tip is released by an append…
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if recs := l.ReadFrom(2, 10); len(recs) != 1 {
			t.Errorf("blocked ReadFrom woke with %+v", recs)
		}
	}()
	l.AppendGroup([]Record{{Kind: RecOp, Shard: 0, LSN: 2, Op: OpPop}})
	wg.Wait()

	// …and by Wake, returning empty. Wake is broadcast-only (no memory),
	// so keep waking until the reader has observed one.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if recs := l.ReadFrom(3, 10); len(recs) != 0 {
			t.Errorf("woken ReadFrom returned %+v", recs)
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

// TestLogSegmentBoundaries appends across a segment boundary: a group
// that straddles it keeps its single End, sequence numbers run on, no
// read crosses a segment, and a reader can resume anywhere inside one.
// Every record's LSN is its own sequence, so a misplaced one shows.
func TestLogSegmentBoundaries(t *testing.T) {
	l := NewLog()
	next := uint64(0)
	group := func(n int) []Record {
		recs := make([]Record, n)
		for i := range recs {
			next++
			recs[i] = Record{Kind: RecOp, Op: OpPush, LSN: next}
		}
		return recs
	}
	if tip := l.AppendGroup(group(segRecords - 2)); tip != segRecords-2 {
		t.Fatalf("tip %d, want %d", tip, segRecords-2)
	}
	// Two records of this group close segment 0, three open segment 1.
	if tip := l.AppendGroup(group(5)); tip != segRecords+3 || l.Seq() != segRecords+3 {
		t.Fatalf("tip %d seq %d, want %d", tip, l.Seq(), segRecords+3)
	}
	l.AppendGroup(group(2*segRecords + 7)) // a group longer than a segment

	head := l.ReadFrom(segRecords-2, MaxRecordsPerFrame)
	tail := l.ReadFrom(segRecords, 3)
	if len(head) != 2 || len(tail) != 3 {
		t.Fatalf("straddling group read as %d + %d records, want 2 + 3", len(head), len(tail))
	}
	for i, r := range slices.Concat(head, tail) {
		if want := uint64(segRecords - 1 + i); r.LSN != want || r.End != (i == 4) {
			t.Fatalf("straddling group record %d: lsn %d end %v, want lsn %d end %v", i, r.LSN, r.End, want, i == 4)
		}
	}

	// Stream the whole log the way a sender does, from a resume point in
	// the middle of segment 0.
	const resume = 1000
	ends := 0
	for seq := uint64(resume); seq < l.Seq(); {
		recs := l.ReadFrom(seq, MaxRecordsPerFrame)
		if len(recs) == 0 {
			t.Fatalf("empty read at %d below the tip %d", seq, l.Seq())
		}
		if first, last := seq/segRecords, (seq+uint64(len(recs))-1)/segRecords; first != last {
			t.Fatalf("read of %d records after %d spans segments %d..%d", len(recs), seq, first, last)
		}
		for i, r := range recs {
			if want := seq + uint64(i) + 1; r.LSN != want {
				t.Fatalf("sequence %d holds the record appended as %d", want, r.LSN)
			}
			if r.End {
				ends++
			}
		}
		seq += uint64(len(recs))
	}
	if ends != 3 {
		t.Fatalf("%d group ends past the resume point, want 3", ends)
	}
}

func TestChunkRecords(t *testing.T) {
	if got := chunkRecords(nil); len(got) != 1 || got[0] != nil {
		t.Fatalf("empty input: %+v", got)
	}
	recs := make([]Record, MaxRecordsPerFrame+3)
	for i := range recs {
		recs[i] = Record{Kind: RecOp, Op: OpPush, LSN: uint64(i + 1)}
	}
	chunks := chunkRecords(recs)
	if len(chunks) != 2 || len(chunks[0]) != MaxRecordsPerFrame || len(chunks[1]) != 3 {
		t.Fatalf("count split: %d chunks, sizes %d/%d", len(chunks), len(chunks[0]), len(chunks[len(chunks)-1]))
	}
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	if total != len(recs) {
		t.Fatalf("chunks cover %d of %d records", total, len(recs))
	}

	// Size budget: a few large dedup responses split early.
	big := []Record{
		{Kind: RecDedup, Resp: make([]byte, 400<<10)},
		{Kind: RecDedup, Resp: make([]byte, 400<<10)},
	}
	if chunks := chunkRecords(big); len(chunks) != 2 {
		t.Fatalf("size split: %d chunks", len(chunks))
	}
}
