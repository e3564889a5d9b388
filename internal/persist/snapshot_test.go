package persist

import (
	"strings"
	"testing"
)

func TestSnapshotEnvelopeRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5, 250, 251, 252}
	want := SnapshotHeader{Kind: "rbmw", Version: 3, Seq: 17, LSN: 12345678901}
	b, err := EncodeSnapshotFile(want, payload)
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
	b, err := EncodeSnapshotFile(SnapshotHeader{Kind: "core", Version: 1}, nil)
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
	b, err := EncodeSnapshotFile(SnapshotHeader{Kind: "pifo", Version: 2, Seq: 9, LSN: 99}, []byte("payload-bytes"))
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
	b, err := EncodeSnapshotFile(SnapshotHeader{Kind: "rpubmw", Version: 1, Seq: 3, LSN: 40}, []byte("0123456789abcdef"))
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
	if _, err := EncodeSnapshotFile(SnapshotHeader{Kind: ""}, nil); err == nil {
		t.Fatal("empty kind accepted")
	}
	if _, err := EncodeSnapshotFile(SnapshotHeader{Kind: strings.Repeat("x", 256)}, nil); err == nil {
		t.Fatal("oversized kind accepted")
	}
}

func TestSnapshotTrailingGarbageRejected(t *testing.T) {
	b, err := EncodeSnapshotFile(SnapshotHeader{Kind: "core", Version: 1}, []byte("p"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeSnapshotFile(append(b, 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestSnapshotEnvelopeOneAlloc: the envelope is built in one buffer of
// its exact length, so wrapping a payload copies it once.
func TestSnapshotEnvelopeOneAlloc(t *testing.T) {
	payload := make([]byte, 1<<16)
	h := SnapshotHeader{Kind: "core", Version: 1, Seq: 2, LSN: 3}
	var b []byte
	if n := testing.AllocsPerRun(50, func() { b, _ = EncodeSnapshotFile(h, payload) }); n > 1 {
		t.Errorf("EncodeSnapshotFile: %.1f allocs, want 1", n)
	}
	if len(b) != cap(b) {
		t.Errorf("envelope len %d, cap %d: not sized exactly", len(b), cap(b))
	}
}
