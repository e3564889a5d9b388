package replic

import (
	"bytes"
	"testing"
)

// FuzzRecordsDecode feeds arbitrary bytes to ParseReplRecords and, for
// payloads that do decode, re-encodes and checks the identity — the
// decoder must never panic and must accept exactly what the encoder
// produces.
func FuzzRecordsDecode(f *testing.F) {
	f.Add(AppendReplRecords(nil, 1, nil)) // heartbeat
	f.Add(AppendReplRecords(nil, 7, []Record{
		{Kind: RecOp, Shard: 2, LSN: 5, Op: OpPush, Value: 99, Meta: 3},
		{Kind: RecOp, Shard: 0, LSN: 1, Op: OpPop, Value: 4, Meta: 0, End: true},
	}))
	f.Add(AppendReplRecords(nil, 1000, []Record{
		{Kind: RecDedup, Session: 0xFEED, ReqID: 42, Resp: []byte("cached response"), End: true},
	}))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, p []byte) {
		first, recs, err := ParseReplRecords(p)
		if err != nil {
			return
		}
		re := AppendReplRecords(nil, first, recs)
		if !bytes.Equal(re, p) {
			t.Fatalf("re-encode differs:\n in  %x\n out %x", p, re)
		}
	})
}

// FuzzLogStream appends fuzzed groups to a log and streams them back
// through a cursor, seeked to a fuzzed resume point, under fuzzed frame
// bounds, parsing every run as a TReplRecords payload: the records must
// come back as appended, in order, with End on each group's last record
// alone, every run inside its bounds.
//
// Each script byte is one record: bit 0 picks an op (0) or a dedup
// record (1), bit 1 ends the group, and the upper six bits p pick the
// op's kind and shard, or size the dedup response at p×2200 bytes —
// past a segment from p = 60 on.
func FuzzLogStream(f *testing.F) {
	f.Add([]byte{0x00, 0x04, 0x0B}, uint16(MaxRecordsPerFrame), uint32(frameBytes), uint16(0))
	f.Add([]byte{0x02, 0xF3, 0x00, 0x81, 0xFE, 0x43}, uint16(1), uint32(1), uint16(2))
	f.Add(bytes.Repeat([]byte{0x00, 0x04, 0x08, 0x0E, 0x7B}, 400), uint16(100), uint32(40<<10), uint16(777))
	f.Fuzz(func(t *testing.T, script []byte, maxRecs uint16, maxBytes uint32, resume uint16) {
		l := NewLog()
		var want, group []Record
		for i, c := range script {
			p := uint64(c >> 2)
			if c&1 == 0 {
				r := pushRec(uint32(p>>1&3), uint64(len(want)+len(group)+1), p<<32|uint64(i))
				if p&1 == 1 {
					r.Op = OpPop
				}
				group = append(group, r)
			} else {
				resp := bytes.Repeat([]byte{c}, int(p)*2200)
				group = append(group, Record{Kind: RecDedup, Session: p, ReqID: uint64(i), Resp: resp})
			}
			if c&2 != 0 || i == len(script)-1 {
				l.AppendGroup(group)
				group[len(group)-1].End = true
				want, group = append(want, group...), nil
			}
		}
		after := uint64(resume) % (l.Seq() + 1)
		got := readLog(t, l, after, 1+int(maxRecs)%MaxRecordsPerFrame, 1+int(maxBytes)%frameBytes)
		sameRecords(t, got, want[after:])
	})
}

// FuzzFetchCodecs feeds arbitrary bytes, as a peer process could send
// them, to both anti-entropy fetch decoders: neither may panic, and
// whatever decodes must re-encode to the same bytes.
func FuzzFetchCodecs(f *testing.F) {
	f.Add(AppendFetchReq(nil, FetchReq{File: FetchSnapshot, Shard: 1, Seq: 3, Offset: 512 << 10}))
	f.Add(AppendFetchReq(nil, FetchReq{File: FetchEngineManifest}))
	f.Add(AppendFetchResp(nil, FetchResp{Size: 5, Data: []byte("wal")}))
	f.Add(AppendFetchResp(nil, FetchResp{}))
	f.Add([]byte{})
	f.Add([]byte{9, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, p []byte) {
		if req, err := ParseFetchReq(p); err == nil {
			if re := AppendFetchReq(nil, req); !bytes.Equal(re, p) {
				t.Fatalf("request re-encode differs:\n in  %x\n out %x", p, re)
			}
		}
		if resp, err := ParseFetchResp(p); err == nil {
			if re := AppendFetchResp(nil, resp); !bytes.Equal(re, p) {
				t.Fatalf("response re-encode differs:\n in  %x\n out %x", p, re)
			}
		}
	})
}
