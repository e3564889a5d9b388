package obs

import (
	"bytes"
	"sync"
	"testing"
)

func TestStageNames(t *testing.T) {
	want := []string{"issue", "decode", "enqueue", "dequeue", "apply", "commit", "ack", "write"}
	for st := Stage(0); st < NumStages; st++ {
		if st.String() != want[st] {
			t.Errorf("stage %d = %q, want %q", st, st.String(), want[st])
		}
	}
	if Stage(200).String() != "invalid" {
		t.Errorf("out-of-range stage name = %q", Stage(200).String())
	}
}

func TestStageMetricNames(t *testing.T) {
	names := StageMetricNames("x")
	if len(names) != int(NumStages) {
		t.Fatalf("got %d names, want %d", len(names), NumStages)
	}
	if names[0] != "x_stage_total_ns" {
		t.Errorf("total metric = %q", names[0])
	}
	if names[StageWrite] != "x_stage_write_ns" {
		t.Errorf("write metric = %q", names[StageWrite])
	}
}

func TestNilTracerAndSpan(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin(1, 0)
	if sp != nil {
		t.Fatal("nil tracer minted a span")
	}
	// All nil-receiver paths must be no-ops.
	sp.Stamp(StageDecode)
	sp.StampAt(StageApply, 5)
	if sp.Track() != 0 {
		t.Error("nil span track")
	}
	if ts := sp.Stages(); ts != ([NumStages]int64{}) {
		t.Error("nil span stages non-zero")
	}
	tr.Finish(sp)
	tr.NameTrack(1, "x")
	if NewTracer(TracerOptions{}) != nil {
		t.Error("NewTracer with no sinks should return nil")
	}
}

func TestSpanStampFirstWins(t *testing.T) {
	sp := new(Span)
	sp.StampAt(StageDecode, 100)
	sp.StampAt(StageDecode, 50)
	sp.Stamp(StageDecode)
	if got := sp.Stages()[StageDecode]; got != 100 {
		t.Fatalf("first-wins violated: got %d, want 100", got)
	}
	// StampAt with 0 must not "stamp" (0 means unstamped).
	sp.StampAt(StageApply, 0)
	if got := sp.Stages()[StageApply]; got != 0 {
		t.Fatalf("StampAt(0) stamped: %d", got)
	}
}

func TestTracerAggregates(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerOptions{Registry: reg, Prefix: "t"})
	if tr == nil {
		t.Fatal("tracer disabled with a registry")
	}
	for i := 0; i < 10; i++ {
		sp := tr.Begin(1, int64(1000*(i+1)))
		base := sp.Stages()[StageIssue]
		for st := StageDecode; st < NumStages; st++ {
			sp.StampAt(st, base+int64(st)*10)
		}
		tr.Finish(sp)
	}
	for st := Stage(0); st < NumStages; st++ {
		snap := reg.QuantileHistogram(StageMetricName("t", st)).Snapshot()
		if snap.Count != 10 {
			t.Errorf("stage %v: count %d, want 10", st, snap.Count)
		}
		want := uint64(10)
		if st == StageIssue {
			want = uint64(NumStages-1) * 10 // whole span: issue → write
		}
		if snap.Min != want || snap.Max != want {
			t.Errorf("stage %v: min/max %d/%d, want %d", st, snap.Min, snap.Max, want)
		}
	}
}

// TestSpanLifecycleZeroAlloc: Begin, a stamp for each of the seven
// later stages and Finish into a registry's histograms allocate nothing
// — spans come from the tracer's pool and observes are lock-free.
func TestSpanLifecycleZeroAlloc(t *testing.T) {
	tr := NewTracer(TracerOptions{Registry: NewRegistry(), Prefix: "t"})
	if avg := testing.AllocsPerRun(1000, func() {
		now := SpanNow()
		sp := tr.Begin(0, now)
		for st := StageDecode; st < NumStages; st++ {
			sp.StampAt(st, now+int64(st))
		}
		tr.Finish(sp)
	}); avg != 0 {
		t.Errorf("%v allocations per span lifecycle, want 0", avg)
	}
}

func TestTracerSkippedStages(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerOptions{Registry: reg, Prefix: "t"})
	sp := tr.Begin(1, 100)
	// Only decode and write stamped: write's segment spans from decode.
	sp.StampAt(StageDecode, 150)
	sp.StampAt(StageWrite, 400)
	tr.Finish(sp)
	if snap := reg.QuantileHistogram(StageMetricName("t", StageWrite)).Snapshot(); snap.Max != 250 {
		t.Errorf("write segment %d, want 250 (decode→write)", snap.Max)
	}
	if snap := reg.QuantileHistogram(StageMetricName("t", StageApply)).Snapshot(); snap.Count != 0 {
		t.Errorf("apply observed %d segments for an unstamped stage", snap.Count)
	}
	if snap := reg.QuantileHistogram(StageMetricName("t", StageIssue)).Snapshot(); snap.Max != 300 {
		t.Errorf("total %d, want 300", snap.Max)
	}
}

func TestTracerSampling(t *testing.T) {
	reg := NewRegistry()
	rec := NewTraceRecorder()
	tr := NewTracer(TracerOptions{Registry: reg, Prefix: "t", Recorder: rec, SampleEvery: 4})
	tr.NameTrack(7, "conn 7")
	for i := 0; i < 16; i++ {
		sp := tr.Begin(7, 0)
		sp.Stamp(StageDecode)
		sp.Stamp(StageWrite)
		tr.Finish(sp)
	}
	if got := reg.Counter("t_spans_total").Value(); got != 16 {
		t.Errorf("spans_total %d, want 16", got)
	}
	if got := reg.Counter("t_spans_sampled_total").Value(); got != 4 {
		t.Errorf("spans_sampled_total %d, want 4", got)
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tr2, err := ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(tr2); err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	slices := 0
	for _, ev := range tr2.TraceEvents {
		if ev.Phase == "X" {
			slices++
		}
	}
	// 4 sampled spans × 2 stamped segments each.
	if slices != 8 {
		t.Errorf("exported %d slices, want 8", slices)
	}
}

func TestTracerConcurrentStampMonotonic(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerOptions{Registry: reg, Prefix: "t"})
	var bad int
	tr.OnFinish = func(track int64, ts [NumStages]int64) {
		prev := int64(0)
		for st := Stage(0); st < NumStages; st++ {
			if ts[st] == 0 {
				continue
			}
			if ts[st] < prev {
				bad++
			}
			prev = ts[st]
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		sp := tr.Begin(int64(i), 0)
		sp.Stamp(StageDecode)
		sp.Stamp(StageEnqueue)
		wg.Add(2)
		// Racing stampers, as shard goroutines would be.
		go func() { defer wg.Done(); sp.Stamp(StageDequeue); sp.Stamp(StageApply) }()
		go func() { defer wg.Done(); sp.Stamp(StageDequeue); sp.Stamp(StageApply) }()
		wg.Wait()
		sp.Stamp(StageWrite)
		tr.Finish(sp)
	}
	if bad != 0 {
		t.Fatalf("%d non-monotonic stage sequences", bad)
	}
}

func TestSpanPoolReuse(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerOptions{Registry: reg, Prefix: "t"})
	sp := tr.Begin(3, 0)
	sp.Stamp(StageDecode)
	tr.Finish(sp)
	sp2 := tr.Begin(9, 0)
	if got := sp2.Stages()[StageDecode]; got != 0 {
		t.Fatalf("pooled span kept stale decode stamp %d", got)
	}
	if sp2.Track() != 9 {
		t.Fatalf("pooled span track %d, want 9", sp2.Track())
	}
	tr.Finish(sp2)
}
