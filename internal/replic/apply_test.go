package replic

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wire"
)

// applyNode is a Node with no stream behind it: the tests hand a
// frame's records straight to applyReady, the way streamOnce does.
func applyNode(t testing.TB, geom engine.Config) (*Node, *engine.Engine) {
	t.Helper()
	eng, err := engine.New(geom)
	if err != nil {
		t.Fatal(err)
	}
	n := Attach(eng, wire.NewServer(eng), Config{Engine: geom})
	t.Cleanup(func() {
		n.Close()
		eng.Close()
	})
	return n, eng
}

func pushRec(shard uint32, lsn, value uint64) Record {
	return Record{Kind: RecOp, Op: OpPush, Shard: shard, LSN: lsn, Value: value, Meta: value}
}

func popRec(shard uint32, lsn, value uint64) Record {
	return Record{Kind: RecOp, Op: OpPop, Shard: shard, LSN: lsn, Value: value, Meta: value}
}

// logString renders a log as one token per record — s<shard>@<lsn> for
// an op, d for a dedup record — with | closing each group.
func logString(t testing.TB, l *Log) string {
	var b strings.Builder
	for _, r := range readLog(t, l, 0, MaxRecordsPerFrame, frameBytes) {
		if r.Kind == RecDedup {
			b.WriteString("d")
		} else {
			fmt.Fprintf(&b, "s%d@%d", r.Shard, r.LSN)
		}
		if r.End {
			b.WriteString("|")
		}
		b.WriteString(" ")
	}
	return strings.TrimSpace(b.String())
}

// end marks r as its group's last record.
func end(r Record) Record {
	r.End = true
	return r
}

// TestApplyReadyInOrder drives applyReady through the streams a
// follower can see, one frame per step: each step checks where the
// frontier lands and the engine's per-shard LSNs, and each case ends on
// the follower log's content and the engine's per-shard drain. A gap or
// an inversion in a shard's LSNs is divergence: the step fails, the
// stream latches fatal, and nothing of that frame is applied, logged or
// acknowledged.
func TestApplyReadyInOrder(t *testing.T) {
	longRun := make([]Record, 80)
	longLog := make([]string, len(longRun))
	longDrain := make([]uint64, len(longRun))
	for i := range longRun {
		longRun[i] = pushRec(0, uint64(i+1), uint64(1000-i))
		longLog[i] = fmt.Sprintf("s0@%d", i+1)
		longDrain[len(longRun)-1-i] = uint64(1000 - i)
	}
	longRun[len(longRun)-1].End = true

	type frame struct {
		recs         []Record
		wantFrontier uint64
		wantLSN      [2]uint64
		wantErr      bool
	}
	dedup := Record{Kind: RecDedup, Session: 9, ReqID: 1, Resp: []byte{1}}
	cases := []struct {
		name      string
		pre       []Record // applied to the engine before the first frame
		frames    []frame
		wantLog   string
		wantDrain [2][]uint64
	}{
		{
			name: "in order",
			frames: []frame{{
				recs:         []Record{pushRec(0, 1, 10), pushRec(1, 1, 20), end(dedup), pushRec(0, 2, 5), end(popRec(0, 3, 5))},
				wantFrontier: 5,
				wantLSN:      [2]uint64{3, 1},
			}},
			wantLog:   "s0@1 s1@1 d| s0@2 s0@3|",
			wantDrain: [2][]uint64{{10}, {20}},
		},
		{
			// A group's head leaves no engine trace until the frame that
			// ends it arrives; a frame may end inside a group and end
			// another that a previous frame began.
			name: "group split across frames",
			frames: []frame{
				{
					recs:         []Record{end(pushRec(0, 1, 10)), pushRec(0, 2, 20), pushRec(1, 1, 60)},
					wantFrontier: 1,
					wantLSN:      [2]uint64{1, 0},
				},
				{
					recs:         []Record{pushRec(1, 2, 70)},
					wantFrontier: 1,
					wantLSN:      [2]uint64{1, 0},
				},
				{
					recs:         []Record{end(popRec(0, 3, 10)), pushRec(0, 4, 30)},
					wantFrontier: 5,
					wantLSN:      [2]uint64{3, 2},
				},
				{
					recs:         []Record{end(dedup)},
					wantFrontier: 7,
					wantLSN:      [2]uint64{4, 2},
				},
			},
			wantLog:   "s0@1| s0@2 s1@1 s1@2 s0@3| s0@4 d|",
			wantDrain: [2][]uint64{{20, 30}, {60, 70}},
		},
		{
			// A group the engine already holds (a follower restored from
			// a checkpoint) is not applied again, but it is logged, its
			// dedup entry installed, and the frontier moves over it. The
			// second group is half replay, half new.
			name: "replay at or below the shard lsn",
			pre:  []Record{pushRec(0, 1, 10), pushRec(0, 2, 11)},
			frames: []frame{{
				recs:         []Record{pushRec(0, 1, 10), end(dedup), pushRec(0, 2, 11), end(pushRec(0, 3, 12))},
				wantFrontier: 4,
				wantLSN:      [2]uint64{3, 0},
			}},
			wantLog:   "s0@1 d| s0@2 s0@3|",
			wantDrain: [2][]uint64{{10, 11, 12}, nil},
		},
		{
			name: "long run in one group",
			frames: []frame{{
				recs:         longRun,
				wantFrontier: uint64(len(longRun)),
				wantLSN:      [2]uint64{uint64(len(longRun)), 0},
			}},
			wantLog:   strings.Join(longLog, " ") + "|",
			wantDrain: [2][]uint64{longDrain, nil},
		},
		{
			// Shard 0 skips LSN 2. The frame's sound first group is not
			// applied either: the frame is judged before any of it lands.
			name: "gap latches divergence",
			frames: []frame{
				{
					recs:         []Record{end(pushRec(0, 1, 10))},
					wantFrontier: 1,
					wantLSN:      [2]uint64{1, 0},
				},
				{
					recs:         []Record{end(pushRec(1, 1, 60)), pushRec(0, 3, 30), end(pushRec(1, 2, 70))},
					wantFrontier: 1,
					wantLSN:      [2]uint64{1, 0},
					wantErr:      true,
				},
			},
			wantLog:   "s0@1|",
			wantDrain: [2][]uint64{{10}, nil},
		},
		{
			// The batch that took shard 0's LSN 3 is logged ahead of the
			// one that took LSN 2: completion order, not execution order.
			name: "inversion latches divergence",
			frames: []frame{
				{
					recs:         []Record{end(pushRec(0, 1, 10))},
					wantFrontier: 1,
					wantLSN:      [2]uint64{1, 0},
				},
				{
					recs:         []Record{end(pushRec(1, 1, 60)), end(pushRec(0, 3, 30)), end(pushRec(0, 2, 20))},
					wantFrontier: 1,
					wantLSN:      [2]uint64{1, 0},
					wantErr:      true,
				},
			},
			wantLog:   "s0@1|",
			wantDrain: [2][]uint64{{10}, nil},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, eng := applyNode(t, engine.Config{Shards: 2, Order: 2, Levels: 8})
			for _, r := range tc.pre {
				res := make([]engine.Result, 1)
				op := []engine.Op{engine.PushOp(core.Element{Value: r.Value, Meta: r.Meta})}
				if err := eng.ApplyReplica(int(r.Shard), op, res); err != nil || res[0].Err != nil || res[0].LSN != r.LSN {
					t.Fatalf("pre-apply %+v: %v %+v", r, err, res[0])
				}
			}
			var seq uint64
			for fi, f := range tc.frames {
				_, err := n.applyReady(seq+1, slices.Clone(f.recs))
				seq += uint64(len(f.recs))
				if (err != nil) != f.wantErr || n.streamFatal.Load() != f.wantErr {
					t.Fatalf("frame %d: err %v, fatal latch %v; want error %v", fi, err, n.streamFatal.Load(), f.wantErr)
				}
				if fr := n.streamPos.Load(); fr != f.wantFrontier {
					t.Errorf("frame %d: frontier %d, want %d", fi, fr, f.wantFrontier)
				}
				if got := [2]uint64{eng.ShardLSN(0), eng.ShardLSN(1)}; got != f.wantLSN {
					t.Errorf("frame %d: shard lsns %v, want %v", fi, got, f.wantLSN)
				}
			}
			if got := logString(t, n.log); got != tc.wantLog {
				t.Errorf("follower log:\n got %s\nwant %s", got, tc.wantLog)
			}
			eng.Close()
			for sh, want := range tc.wantDrain {
				els, err := eng.ShardDrain(sh)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]uint64, len(els))
				for i, el := range els {
					got[i] = el.Value
				}
				if !slices.Equal(got, want) {
					t.Errorf("shard %d drain %v, want %v", sh, got, want)
				}
			}
		})
	}
}

// TestApplyReadyDetectsDivergence feeds applyReady records the engine
// cannot reproduce. Each must come back as an error with the stream
// latched fatal, and the offending group must not be logged.
func TestApplyReadyDetectsDivergence(t *testing.T) {
	cases := []struct {
		name string
		recs []Record
	}{
		{"pop of another element", []Record{pushRec(0, 1, 10), popRec(0, 2, 11)}},
		{"pop from an empty shard", []Record{popRec(0, 1, 10)}},
		{"one lsn twice", []Record{pushRec(0, 1, 10), pushRec(0, 1, 10)}},
		{"shard out of range", []Record{pushRec(2, 1, 10)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, _ := applyNode(t, engine.Config{Shards: 2, Order: 2, Levels: 8})
			recs := slices.Clone(tc.recs)
			recs[len(recs)-1].End = true
			_, err := n.applyReady(1, recs)
			if err == nil || !n.streamFatal.Load() {
				t.Fatalf("err %v, fatal latch %v: divergence not detected", err, n.streamFatal.Load())
			}
			if n.log.Seq() != 0 {
				t.Fatalf("diverged group reached the log (%s)", logString(t, n.log))
			}
			if fr := n.streamPos.Load(); fr != 0 {
				t.Fatalf("frontier %d moved over a diverged group", fr)
			}
		})
	}
}

// TestApplyReadyPopRunBitIdentical replicates groups that hold runs of
// pops: the primary executes each batch through SubmitInto, which hands
// a run to the trees whole, and the follower applies the group's
// records through applyReady, which hands each shard's records to
// ApplyReplica in one call, applied op by op. After every group both engines must publish the
// same per-shard LSN and length, and at the end each shard's snapshot
// must match byte for byte.
func TestApplyReadyPopRunBitIdentical(t *testing.T) {
	geom := engine.Config{Shards: 2, Order: 4, Levels: 5}
	prim, err := engine.New(geom)
	if err != nil {
		t.Fatal(err)
	}
	n, fol := applyNode(t, geom)
	var seq, meta uint64
	for b := 0; b < 40; b++ {
		ops := make([]engine.Op, 96+b%3*32) // pushes
		if b%2 == 1 {
			ops = ops[:48+b%5*8] // a run of pops, fewer than the pushes before it
		}
		for i := range ops {
			meta++
			ops[i] = engine.PushOp(core.Element{Value: meta * 2654435761 % 1000, Meta: meta})
			if b%2 == 1 {
				ops[i] = engine.PopOp()
			}
		}
		res := prim.Submit(ops)
		var recs []Record
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("batch %d op %d: %v", b, i, r.Err)
			}
			rec := Record{Kind: RecOp, Op: OpPush, Shard: uint32(r.Shard), LSN: r.LSN,
				Value: ops[i].Elem.Value, Meta: ops[i].Elem.Meta}
			if ops[i].Kind == engine.OpPop {
				rec.Op, rec.Value, rec.Meta = OpPop, r.Elem.Value, r.Elem.Meta
			}
			recs = append(recs, rec)
		}
		recs[len(recs)-1].End = true
		if moved, err := n.applyReady(seq+1, recs); err != nil || !moved {
			t.Fatalf("batch %d: apply %v, frontier moved %v", b, err, moved)
		}
		seq += uint64(len(recs))
		for sh := 0; sh < geom.Shards; sh++ {
			if p, f := prim.ShardLSN(sh), fol.ShardLSN(sh); p != f || prim.ShardLen(sh) != fol.ShardLen(sh) {
				t.Fatalf("batch %d shard %d: lsn %d len %d (primary) vs lsn %d len %d (follower)",
					b, sh, p, prim.ShardLen(sh), f, fol.ShardLen(sh))
			}
		}
	}
	if prim.Len() == 0 {
		t.Fatal("the batches left nothing to compare")
	}
	prim.Close()
	fol.Close()
	pdir, fdir := t.TempDir(), t.TempDir()
	if err := prim.Checkpoint(pdir); err != nil {
		t.Fatal(err)
	}
	if err := fol.Checkpoint(fdir); err != nil {
		t.Fatal(err)
	}
	for sh := 0; sh < geom.Shards; sh++ {
		ps, _ := filepath.Glob(filepath.Join(engine.ShardDir(pdir, sh), "*.snap"))
		fs, _ := filepath.Glob(filepath.Join(engine.ShardDir(fdir, sh), "*.snap"))
		if len(ps) != 1 || len(fs) != 1 {
			t.Fatalf("shard %d: snapshots %v and %v, want one each", sh, ps, fs)
		}
		pb, err := os.ReadFile(ps[0])
		if err != nil {
			t.Fatal(err)
		}
		fb, err := os.ReadFile(fs[0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pb, fb) {
			t.Fatalf("shard %d: follower snapshot differs from the primary's", sh)
		}
	}
}
