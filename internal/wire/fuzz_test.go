package wire

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzFrameDecode holds the decoder to its contract on arbitrary
// bytes, mirroring FuzzWALReplay's torn-input discipline: never panic,
// never return a frame from input that fails validation, classify
// every failure as either ErrTruncated (valid prefix, needs more) or
// ErrBadFrame (structurally invalid), and stay consistent with the
// stream reader. Any frame that does decode must re-encode to exactly
// the consumed bytes, and its payload codecs must not panic either.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, THello, 1, AppendHello(nil, 0xFEED)))
	f.Add(AppendFrame(nil, TBatch, 2, AppendOps(nil, []Op{
		{Kind: OpPush, Value: 7, Meta: 9}, {Kind: OpPop},
	})))
	f.Add(AppendFrame(nil, TBatchOK, 3, AppendResults(nil, []Result{{Status: StatusOK, Value: 1, Meta: 2}})))
	f.Add(AppendFrame(nil, TBatch, 4, AppendOps(nil, []Op{
		{Kind: OpPopBounded, Value: 1 << 29}, {Kind: OpPopBounded, Value: 1 << 29}, {Kind: OpPeek},
	})))
	f.Add(AppendFrame(nil, TBatchOK, 5, AppendResults(nil, []Result{
		{Status: StatusOK, Value: 5, Meta: 6}, {Status: StatusMiss}, {Status: StatusOK, Value: 9},
	})))
	f.Add(AppendFrame(nil, Type(10), 6, []byte{2})) // unassigned type
	f.Add(AppendFrame(nil, Type(11), 7, make([]byte, 27)))
	f.Add(AppendFrame(nil, TReplHello, 8, []byte{1, 2, 3, 4}))
	f.Add(AppendFrame(nil, TReplOK, 9, make([]byte, 8)))
	f.Add(AppendFrame(nil, TReplRecords, 10, make([]byte, 20)))
	f.Add(AppendFrame(nil, TReplAck, 11, make([]byte, 8)))
	full := AppendFrame(nil, TBatch, 4, AppendOps(nil, []Op{{Kind: OpPop}}))
	f.Add(full[:len(full)-3]) // torn tail
	mangled := append([]byte(nil), full...)
	mangled[21] ^= 0x40 // header CRC corruption
	f.Add(mangled)
	flipped := append([]byte(nil), full...)
	flipped[HeaderSize] ^= 0x01 // payload corruption, caught by the trailer CRC
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := DecodeFrame(b)
		switch {
		case err == nil:
			if n < HeaderSize+TrailerSize || n > len(b) {
				t.Fatalf("consumed %d of %d", n, len(b))
			}
			if len(fr.Payload) != n-HeaderSize-TrailerSize {
				t.Fatalf("payload %d bytes, frame %d", len(fr.Payload), n)
			}
			// Re-encoding must reproduce the consumed bytes exactly:
			// the decoder accepted nothing it could not have written.
			re := AppendFrame(nil, fr.Type, fr.ID, fr.Payload)
			if !bytes.Equal(re, b[:n]) {
				t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, b[:n])
			}
			// Payload codecs must be panic-free on whatever arrived.
			switch fr.Type {
			case TBatch:
				_, _ = ParseOps(fr.Payload)
			case TBatchOK:
				_, _ = ParseResults(fr.Payload)
			case THello:
				_, _, _ = ParseHello(fr.Payload)
			case THelloOK:
				_, _ = ParseHelloOK(fr.Payload)
			}
		case errors.Is(err, ErrTruncated):
			// A truncated verdict promises completability: appending
			// bytes may eventually produce a frame. It must never fire
			// on input that already holds a full invalid header.
			if n != 0 {
				t.Fatalf("truncated but consumed %d", n)
			}
		case errors.Is(err, ErrBadFrame):
			if n != 0 {
				t.Fatalf("bad frame but consumed %d", n)
			}
		default:
			t.Fatalf("unclassified decode error: %v", err)
		}

		// The stream reader must agree with the flat decoder: it
		// returns a frame only when DecodeFrame would.
		rf, rerr := ReadFrame(bytes.NewReader(b))
		if (rerr == nil) != (err == nil) {
			t.Fatalf("ReadFrame err=%v vs DecodeFrame err=%v", rerr, err)
		}
		if rerr == nil && (rf.Type != fr.Type || rf.ID != fr.ID || !bytes.Equal(rf.Payload, fr.Payload)) {
			t.Fatalf("ReadFrame %+v != DecodeFrame %+v", rf, fr)
		}
	})
}

// FuzzBatchCodecs holds ParseOps/ParseResults to panic-freedom and
// round-trip identity on arbitrary payload bytes.
func FuzzBatchCodecs(f *testing.F) {
	f.Add(AppendOps(nil, []Op{{Kind: OpPush, Value: 3, Meta: 4}, {Kind: OpPop}}))
	f.Add(AppendResults(nil, []Result{{Status: StatusEmpty}}))
	f.Add(AppendOps(nil, []Op{{Kind: OpPopBounded, Value: 1<<64 - 1}, {Kind: OpPopBounded}, {Kind: OpPeek}}))
	f.Add(AppendResults(nil, []Result{{Status: StatusOK, Value: 2, Meta: 3}, {Status: StatusMiss}}))
	bounded := AppendOps(nil, []Op{{Kind: OpPush, Value: 3, Meta: 4}, {Kind: OpPopBounded, Value: 8}})
	f.Add(bounded[:len(bounded)-5]) // torn inside the bound
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		if ops, err := ParseOps(b); err == nil {
			if !bytes.Equal(AppendOps(nil, ops), b) {
				t.Fatal("ops re-encode mismatch")
			}
		}
		if res, err := ParseResults(b); err == nil {
			if !bytes.Equal(AppendResults(nil, res), b) {
				t.Fatal("results re-encode mismatch")
			}
		}
	})
}
