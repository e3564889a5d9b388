package persist

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"hash/crc32"
	"io"
	"slices"
	"testing"

	"repro/internal/hw"
)

// FuzzWALReplay feeds arbitrary bytes to the WAL reader. The contract
// under fuzz:
//
//   - never panic;
//   - either the image decodes cleanly or the error is a typed
//     ErrTornRecord;
//   - the reported valid prefix is exactly the decoded records —
//     torn bytes are never returned as data;
//   - re-reading the valid prefix reproduces the same ops with no
//     error (truncation to the valid prefix is a fixpoint).
func FuzzWALReplay(f *testing.F) {
	two := encodeLog([]Op{
		{Kind: hw.Push, Cycle: 1, Value: 42, Meta: 7},
		{Kind: hw.Pop, Cycle: 2, Value: 42, Meta: 7},
	})
	// Seed corpus: truncations at every offset of a two-record log.
	for cut := 0; cut <= len(two); cut++ {
		f.Add(append([]byte(nil), two[:cut]...))
	}
	// Plus a few corrupted variants: kind, length field, checksum.
	for _, i := range []int{0, 4, recHeaderLen, RecordLen - 1} {
		mut := append([]byte(nil), two...)
		mut[i] ^= 0xff
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ops, valid, err := ReadAll(data)
		if err != nil && !errors.Is(err, ErrTornRecord) {
			t.Fatalf("non-torn error from ReadAll: %v", err)
		}
		if valid < int64(len(ops))*RecordLen {
			t.Fatalf("valid prefix %d bytes cannot hold %d fixed-size records", valid, len(ops))
		}
		if valid > int64(len(data)) {
			t.Fatalf("valid prefix %d exceeds input length %d", valid, len(data))
		}
		if err == nil && valid != int64(len(data)) {
			t.Fatalf("clean decode but %d of %d bytes consumed", valid, len(data))
		}
		for i, op := range ops {
			if !op.Kind.Valid() || op.Kind == hw.Nop {
				t.Fatalf("op %d decoded with invalid kind %v", i, op.Kind)
			}
		}
		again, validAgain, errAgain := ReadAll(data[:valid])
		if errAgain != nil || validAgain != valid || len(again) != len(ops) {
			t.Fatalf("valid prefix is not a fixpoint: %v / %d / %d ops", errAgain, validAgain, len(again))
		}
		for i := range ops {
			if again[i] != ops[i] {
				t.Fatalf("re-decode diverged at op %d", i)
			}
		}
	})
}

// FuzzChainVerify feeds arbitrary bytes to the localising WAL verifier.
// The contract under fuzz:
//
//   - never panic, with or without an expected sealed head;
//   - decoded ops carry strictly increasing LSNs;
//   - a report with no faults and no torn tail consumes every byte and
//     has contiguous LSNs from 1;
//   - mutating any single byte of a sealed image is detected (one of:
//     fault range, torn tail, head mismatch) — zero undetected escapes.
func FuzzChainVerify(f *testing.F) {
	ops := []Op{
		{Kind: hw.Push, Cycle: 1, Value: 42, Meta: 7},
		{Kind: hw.Push, Cycle: 2, Value: 9, Meta: 1},
		{Kind: hw.Pop, Cycle: 3, Value: 9, Meta: 1},
		{Kind: hw.Push, Cycle: 4, Value: 5, Meta: 2},
	}
	img, _ := BuildWALImage(ops, 2)
	f.Add(append([]byte(nil), img...))
	for cut := 0; cut <= len(img); cut += 7 {
		f.Add(append([]byte(nil), img[:cut]...))
	}
	for _, i := range []int{0, 4, recHeaderLen, RecordLen, RecordLen + 8, 2*RecordLen + ChainRecordLen} {
		mut := append([]byte(nil), img...)
		mut[i] ^= 0xff
		f.Add(mut)
	}

	_, sealed := BuildWALImage(ops, 2)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, expect := range []*ChainState{nil, &sealed} {
			r := VerifyWALImage(data, expect)
			var last uint64
			for _, v := range r.Ops {
				if v.LSN <= last {
					t.Fatalf("non-increasing LSN %d after %d", v.LSN, last)
				}
				last = v.LSN
			}
			if r.ValidBytes > int64(len(data)) {
				t.Fatalf("valid bytes %d exceed input %d", r.ValidBytes, len(data))
			}
			if len(r.Bad) == 0 && !r.TornTail && !r.HeadMismatch {
				if expect == nil && r.ValidBytes != int64(len(data)) {
					t.Fatalf("clean report consumed %d of %d bytes", r.ValidBytes, len(data))
				}
				for i, v := range r.Ops {
					if v.LSN != uint64(i+1) {
						t.Fatalf("clean report with LSN gap at %d", i)
					}
				}
			}
		}

		// Detection completeness: use the fuzz input to pick a byte of
		// the sealed image to flip; the verifier must notice.
		if len(data) >= 3 {
			mut := append([]byte(nil), img...)
			pos := (int(data[0]) | int(data[1])<<8) % len(mut)
			bit := data[2] % 8
			mut[pos] ^= 1 << bit
			r := VerifyWALImage(mut, &sealed)
			if len(r.Bad) == 0 && !r.TornTail && !r.HeadMismatch {
				t.Fatalf("flipped bit %d at byte %d escaped undetected", bit, pos)
			}
		}
	})
}

// FuzzSnapshotScan feeds arbitrary bytes through the snapshot stream
// scanner at chunk sizes 16 and the default, each with blocks of 1, 7
// and one chunk's bytes (rounded up to the scanner's smallest block,
// and read that many bytes at a time) and of the default block. Every
// pass must agree with a one-shot reading of the same bytes
// (oneShotScan): the same header and envelope verdict; no bad chunk
// against a manifest sealing the input's own one-shot leaves, so every
// streamed leaf is the one-shot one; the same bad chunks against a
// manifest sealing the seed envelope; and a clean file hands its
// restore exactly its payload, in order, from offset 0.
func FuzzSnapshotScan(f *testing.F) {
	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	seed, err := encodeSnapshotFile(SnapshotHeader{Kind: "core", Version: 1, Seq: 4, LSN: 77}, payload)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	for _, cut := range []int{0, 11, 12, 40, 41, len(seed) / 2, len(seed) - 4, len(seed) - 1} {
		f.Add(append([]byte(nil), seed[:cut]...))
	}
	for _, i := range []int{0, 8, 9, 14, 37, 41, 1000, len(seed) - 1} {
		mut := append([]byte(nil), seed...)
		mut[i] ^= 0x24
		f.Add(mut)
	}
	f.Add(append(append([]byte(nil), seed...), 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkScan(t, seed, data)
		// The same bytes as a payload give a valid envelope of every
		// length, so the trailer lands on every block offset.
		env, err := encodeSnapshotFile(SnapshotHeader{Kind: "k", Version: 2, Seq: 1, LSN: 3}, data)
		if err != nil {
			t.Fatal(err)
		}
		checkScan(t, seed, env)
	})
}

// checkScan holds the scanner to oneShotScan on data, for
// FuzzSnapshotScan.
func checkScan(t *testing.T, seed, data []byte) {
	for _, cs := range []int{16, DefaultChunkSize} {
		h, ok, leaves, _ := oneShotScan(data, cs, nil)
		_, _, sealed, _ := oneShotScan(seed, cs, nil)
		_, _, _, bad := oneShotScan(data, cs, sealed)
		seals := []struct {
			man *Manifest
			bad []int
		}{
			{nil, nil},
			{&Manifest{ChunkSize: cs, leaves: leaves}, nil},
			{&Manifest{ChunkSize: cs, leaves: sealed}, bad},
		}
		for _, block := range []int{1, 7, cs, snapBlockBytes} {
			for _, seal := range seals {
				var got []byte
				sc := snapScanner{man: seal.man, chunk: cs, block: block,
					restore: func(rh SnapshotHeader, size, off int, b []byte) error {
						if off != len(got) || off+len(b) > size {
							t.Fatalf("cs %d block %d: restore of [%d,%d) of %d after %d bytes", cs, block, off, off+len(b), size, len(got))
						}
						got = append(got, b...)
						return nil
					}}
				res := sc.scan(&shortReader{b: data, n: block})
				if (res.err == nil) != ok {
					t.Fatalf("cs %d block %d: scanner verdict %v, one-shot ok %v", cs, block, res.err, ok)
				}
				if ok && res.hdr != h {
					t.Fatalf("cs %d block %d: header %+v, one-shot %+v", cs, block, res.hdr, h)
				}
				if !slices.Equal(res.bad, seal.bad) {
					t.Fatalf("cs %d block %d: bad chunks %v, want %v", cs, block, res.bad, seal.bad)
				}
				if res.clean() {
					head := snapHeadLen(h.Kind)
					if !bytes.Equal(got, data[head:len(data)-4]) {
						t.Fatalf("cs %d block %d: restore got %d bytes, not the %d-byte payload", cs, block, len(got), len(data)-head-4)
					}
				}
			}
		}
	}
}

// oneShotScan reads a whole in-memory snapshot file the way the
// envelope was checked before the stream: CRC32C over everything before
// the trailer, then the header and exactly its payload. It also returns
// every chunk's leaf, hashed one chunk at a time, and the chunks that
// disagree with sealed.
func oneShotScan(b []byte, chunk int, sealed [][sha256.Size]byte) (SnapshotHeader, bool, [][sha256.Size]byte, []int) {
	var h SnapshotHeader
	ok := len(b) >= len(snapMagic)+4 && bytes.Equal(b[:len(snapMagic)], snapMagic) &&
		crc32.Checksum(b[:len(b)-4], castagnoli) == getU32(b[len(b)-4:])
	if ok {
		d := NewDec(b[len(snapMagic) : len(b)-4])
		h.Kind = string(d.take(int(d.U8())))
		h.Version, h.Seq, h.LSN = d.U32(), d.U64(), d.U64()
		d.Bytes()
		ok = d.Done() == nil && h.Kind != ""
	}
	var leaves [][sha256.Size]byte
	for off := 0; off < len(b); off += chunk {
		leaves = append(leaves, sha256.Sum256(append([]byte{0}, b[off:min(off+chunk, len(b))]...)))
	}
	var bad []int
	if sealed != nil {
		for i := 0; i < max(len(leaves), len(sealed)); i++ {
			if i >= len(leaves) || i >= len(sealed) || leaves[i] != sealed[i] {
				bad = append(bad, i)
			}
		}
	}
	return h, ok, leaves, bad
}

// shortReader returns at most n bytes per Read.
type shortReader struct {
	b []byte
	n int
}

func (r *shortReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	k := copy(p[:min(len(p), r.n)], r.b)
	r.b = r.b[k:]
	return k, nil
}
