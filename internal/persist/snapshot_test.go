package persist

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestSnapshotEnvelopeRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5, 250, 251, 252}
	want := SnapshotHeader{Kind: "rbmw", Version: 3, Seq: 17, LSN: 12345678901}
	b, err := encodeSnapshotFile(want, payload)
	if err != nil {
		t.Fatal(err)
	}
	got, p, err := DecodeSnapshotFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("header %+v, want %+v", got, want)
	}
	if string(p) != string(payload) {
		t.Fatalf("payload %v, want %v", p, payload)
	}
}

func TestSnapshotEmptyPayload(t *testing.T) {
	b, err := encodeSnapshotFile(SnapshotHeader{Kind: "core", Version: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, p, err := DecodeSnapshotFile(b)
	if err != nil || h.Kind != "core" || len(p) != 0 {
		t.Fatalf("h=%+v p=%v err=%v", h, p, err)
	}
}

// TestSnapshotDetectsEveryByteFlip flips every byte of a valid envelope
// in turn: each corruption must fail validation (the whole-file CRC32C
// covers everything before it; a flip inside the CRC itself mismatches
// the recomputed sum).
func TestSnapshotDetectsEveryByteFlip(t *testing.T) {
	b, err := encodeSnapshotFile(SnapshotHeader{Kind: "pifo", Version: 2, Seq: 9, LSN: 99}, []byte("payload-bytes"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		mut := append([]byte(nil), b...)
		mut[i] ^= 0x5a
		if _, _, err := DecodeSnapshotFile(mut); err == nil {
			t.Fatalf("byte %d flip not detected", i)
		}
	}
}

// TestSnapshotDetectsEveryTruncation cuts the envelope at every length:
// a torn snapshot (crash mid-write without rename protection) must
// never validate.
func TestSnapshotDetectsEveryTruncation(t *testing.T) {
	b, err := encodeSnapshotFile(SnapshotHeader{Kind: "rpubmw", Version: 1, Seq: 3, LSN: 40}, []byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, _, err := DecodeSnapshotFile(b[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes not detected", cut, len(b))
		}
	}
}

func TestSnapshotKindValidation(t *testing.T) {
	if _, err := encodeSnapshotFile(SnapshotHeader{Kind: ""}, nil); err == nil {
		t.Fatal("empty kind accepted")
	}
	if _, err := encodeSnapshotFile(SnapshotHeader{Kind: strings.Repeat("x", 256)}, nil); err == nil {
		t.Fatal("oversized kind accepted")
	}
}

func TestSnapshotTrailingGarbageRejected(t *testing.T) {
	b, err := encodeSnapshotFile(SnapshotHeader{Kind: "core", Version: 1}, []byte("p"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeSnapshotFile(append(b, 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestSnapshotEnvelopeOneAlloc: an envelope streams through the pooled
// buffer, so writing one allocates only its leaf list — no payload, no
// whole-file image.
func TestSnapshotEnvelopeOneAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("counts a pooled buffer, which -race drops")
	}
	var src snapSource = payloadSource(make([]byte, 1<<16))
	h := SnapshotHeader{Kind: "core", Version: 1, Seq: 2, LSN: 3}
	var err error
	if n := testing.AllocsPerRun(50, func() { _, _, err = writeSnapshot(io.Discard, h, src, 0) }); n > 1 {
		t.Errorf("writeSnapshot: %.1f allocs, want 1", n)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// payloadSource serves a fixed payload as a snapshot source.
type payloadSource []byte

func (p payloadSource) SnapshotSize() int { return len(p) }

func (p payloadSource) EncodeSnapshot(off int, dst []byte) { copy(dst, p[off:]) }

// encodeSnapshotFile streams the envelope of payload into memory.
func encodeSnapshotFile(h SnapshotHeader, payload []byte) ([]byte, error) {
	var buf bytes.Buffer
	if _, _, err := writeSnapshot(&buf, h, payloadSource(payload), 0); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// TestSnapshotScanBlockEdges streams envelopes of every payload length
// up to twice the smallest block through the smallest block, so the
// header, the payload's end and the CRC32C each land on every offset of
// a block edge. Each must scan clean and hand its restore exactly the
// payload; with its last byte flipped it must fail.
func TestSnapshotScanBlockEdges(t *testing.T) {
	const cs = 16
	payload := make([]byte, 1200)
	for i := range payload {
		payload[i] = byte(i*13 + 5)
	}
	for n := 0; n <= len(payload); n++ {
		b, err := encodeSnapshotFile(SnapshotHeader{Kind: "edge", Version: 1, Seq: 2, LSN: 9}, payload[:n])
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		sc := snapScanner{chunk: cs, block: 1, restore: func(_ SnapshotHeader, _, _ int, p []byte) error {
			got = append(got, p...)
			return nil
		}}
		if res := sc.scan(bytes.NewReader(b)); !res.clean() || !bytes.Equal(got, payload[:n]) {
			t.Fatalf("%d-byte payload: scan %v, restored %d bytes", n, res.err, len(got))
		}
		b[len(b)-1] ^= 1
		if res := (&snapScanner{chunk: cs, block: 1}).scan(bytes.NewReader(b)); res.err == nil {
			t.Fatalf("%d-byte payload: flipped CRC32C byte accepted", n)
		}
	}
}
