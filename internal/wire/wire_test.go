package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// TestFrameRoundTrip pins encode/decode identity for every frame type
// and representative payloads.
func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAB}, 1000)}
	for _, typ := range []Type{THello, THelloOK, TBatch, TBatchOK, TError,
		TReplHello, TReplOK, TReplRecords, TReplAck, TReplFetch, TReplChunk,
		TClusterHello, TClusterMap} {
		for _, p := range payloads {
			buf := AppendFrame(nil, typ, 42, p)
			f, n, err := DecodeFrame(buf)
			if err != nil {
				t.Fatalf("type %d payload %d: %v", typ, len(p), err)
			}
			if n != len(buf) {
				t.Fatalf("consumed %d of %d", n, len(buf))
			}
			if f.Type != typ || f.ID != 42 || !bytes.Equal(f.Payload, p) {
				t.Fatalf("round trip mismatch: %+v", f)
			}
		}
	}
}

// TestTornFrameNeverReturnedAsData is the torn-input contract: every
// strict prefix of a valid frame decodes to ErrTruncated — never to a
// frame, never to ErrBadFrame (the prefix is still completable).
func TestTornFrameNeverReturnedAsData(t *testing.T) {
	full := AppendFrame(nil, TBatch, 7, AppendOps(nil, []Op{
		{Kind: OpPush, Value: 10, Meta: 20},
		{Kind: OpPop},
		{Kind: OpPopBounded, Value: 30},
	}))
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeFrame(full[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("prefix %d/%d: err = %v, want ErrTruncated", cut, len(full), err)
		}
		// The stream reader must report the tear, not fabricate a frame.
		if _, err := ReadFrame(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("ReadFrame on %d/%d torn bytes succeeded", cut, len(full))
		}
	}
	if _, err := ReadFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream = %v, want io.EOF", err)
	}
}

// TestBadFrames pins ErrBadFrame on structural corruption.
func TestBadFrames(t *testing.T) {
	good := AppendFrame(nil, TBatch, 1, []byte{0, 0, 0, 0})
	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mut(b)
		return b
	}
	cases := map[string][]byte{
		"magic":       corrupt(func(b []byte) { b[0] ^= 0xFF }),
		"version":     corrupt(func(b []byte) { b[4] = 99 }),
		"type":        corrupt(func(b []byte) { b[5] = 200 }),
		"flags":       corrupt(func(b []byte) { b[6] = 1 }),
		"crc":         corrupt(func(b []byte) { b[20] ^= 0xFF }),
		"length":      corrupt(func(b []byte) { b[16] = 0xFF; b[17] = 0xFF; b[18] = 0xFF }),
		"payload":     corrupt(func(b []byte) { b[HeaderSize] ^= 0x01 }),
		"payload-crc": corrupt(func(b []byte) { b[len(b)-1] ^= 0x01 }),
		// Well formed in every other field: types 10 and 11 are
		// unassigned.
		"type-10": AppendFrame(nil, 10, 1, []byte{1}),
		"type-11": AppendFrame(nil, 11, 1, []byte{1}),
	}
	for name, b := range cases {
		if _, _, err := DecodeFrame(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s corruption: err = %v, want ErrBadFrame", name, err)
		}
	}
	// Corrupting version/type/flags/length without fixing the CRC must
	// fail regardless of which check fires first; corrupting the CRC
	// itself fails the CRC check. All covered above.
}

// TestOpsRoundTrip pins the batch payload codecs.
func TestOpsRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: OpPush, Value: 1, Meta: 2},
		{Kind: OpPop},
		{Kind: OpPush, Value: 1<<63 + 5, Meta: 0},
		{Kind: OpPop},
		{Kind: OpPopBounded, Value: 1<<64 - 1},
		{Kind: OpPeek},
		{Kind: OpPopBounded, Value: 0},
	}
	got, err := ParseOps(AppendOps(nil, ops))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("got %d ops", len(got))
	}
	for i := range ops {
		if got[i] != ops[i] {
			t.Fatalf("op %d: %+v != %+v", i, got[i], ops[i])
		}
	}

	results := []Result{
		{Status: StatusOK, Value: 9, Meta: 8},
		{Status: StatusEmpty},
		{Status: StatusBackpressure},
		{Status: StatusMiss},
	}
	gr, err := ParseResults(AppendResults(nil, results))
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if gr[i] != results[i] {
			t.Fatalf("result %d: %+v != %+v", i, gr[i], results[i])
		}
	}
	if _, err := ParseResults(AppendResults(nil, []Result{{Status: maxStatus + 1}})); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("status past maxStatus: err = %v, want ErrBadFrame", err)
	}
}

// TestOpsPayloadTruncation sweeps every strict prefix of a batch payload
// holding each op kind: a payload cut anywhere — inside the count, a
// push's element or a bounded pop's bound, or between ops — is
// ErrBadFrame, never a shorter batch.
func TestOpsPayloadTruncation(t *testing.T) {
	full := AppendOps(nil, []Op{
		{Kind: OpPopBounded, Value: 77},
		{Kind: OpPush, Value: 1, Meta: 2},
		{Kind: OpPop},
		{Kind: OpPeek},
		{Kind: OpPopBounded, Value: 1 << 40},
	})
	if want := 4 + opPopBoundedSize + opPushSize + 2*opPopSize + opPopBoundedSize; len(full) != want {
		t.Fatalf("payload is %d bytes, want %d", len(full), want)
	}
	for cut := 0; cut < len(full); cut++ {
		if ops, err := ParseOps(full[:cut]); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("prefix %d/%d: ops=%v err=%v, want ErrBadFrame", cut, len(full), ops, err)
		}
	}
	if _, err := ParseOps(append(full[:len(full):len(full)], 0)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing byte: err = %v, want ErrBadFrame", err)
	}
}

// TestBatchCodecAllocs: encoding a 64-op batch into reused buffers
// allocates nothing, and decoding it allocates at most the one []Op
// ParseOps returns.
func TestBatchCodecAllocs(t *testing.T) {
	ops := make([]Op, 64)
	for i := range ops {
		ops[i] = Op{Kind: OpPop}
		if i%2 == 0 {
			ops[i] = Op{Kind: OpPush, Value: uint64(i), Meta: uint64(i)}
		}
	}
	opsBuf := make([]byte, 0, 4096)
	frameBuf := make([]byte, 0, 4096)
	if avg := testing.AllocsPerRun(1000, func() {
		opsBuf = AppendOps(opsBuf[:0], ops)
		frameBuf = AppendFrame(frameBuf[:0], TBatch, 1, opsBuf)
	}); avg != 0 {
		t.Errorf("%v allocations per 64-op AppendOps+AppendFrame, want 0", avg)
	}
	frame := AppendFrame(nil, TBatch, 1, AppendOps(nil, ops))
	if avg := testing.AllocsPerRun(1000, func() {
		f, _, err := DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseOps(f.Payload); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Errorf("%v allocations per 64-op DecodeFrame+ParseOps, want <= 1", avg)
	}
}

// TestHelloRoundTrip pins the handshake codecs.
func TestHelloRoundTrip(t *testing.T) {
	v, session, err := ParseHello(AppendHello(nil, 0xDEAD))
	if err != nil || v != Version || session != 0xDEAD {
		t.Fatalf("hello: v=%d session=%#x err=%v", v, session, err)
	}
	info := HelloInfo{Version: Version, Shards: 8, Capacity: 1 << 20}
	got, err := ParseHelloOK(AppendHelloOK(nil, info))
	if err != nil || got != info {
		t.Fatalf("hello-ok: %+v err=%v", got, err)
	}
}

// TestReadFrameOneAlloc: reading a 64-op batch frame off a stream costs
// one allocation, the frame's own bytes, which the payload aliases.
func TestReadFrameOneAlloc(t *testing.T) {
	ops := make([]Op, 64)
	for i := range ops {
		ops[i] = Op{Kind: OpPush, Value: uint64(i), Meta: uint64(i)}
	}
	frame := AppendFrame(nil, TBatch, 1, AppendOps(nil, ops))
	r := bytes.NewReader(frame)
	if avg := testing.AllocsPerRun(1000, func() {
		r.Reset(frame)
		if _, err := ReadFrame(r); err != nil {
			t.Fatal(err)
		}
	}); avg != 1 {
		t.Errorf("%v allocations per 64-op ReadFrame, want 1", avg)
	}
}

// TestWriteFrameOneAlloc: writing a frame costs one allocation, the
// frame's own bytes, sized for header, payload and CRC trailer at once.
func TestWriteFrameOneAlloc(t *testing.T) {
	payload := make([]byte, 1000)
	if avg := testing.AllocsPerRun(1000, func() {
		if err := WriteFrame(io.Discard, TReplAck, 1, payload); err != nil {
			t.Fatal(err)
		}
	}); avg != 1 {
		t.Errorf("%v allocations per 1000-byte WriteFrame, want 1", avg)
	}
}
