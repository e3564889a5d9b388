package obs

import (
	"bytes"
	"sync"
	"testing"
)

func TestFlightRecorderNilDisabled(t *testing.T) {
	var f *FlightRecorder
	f.Record(FlightSpan, 0, 1, 2, 3)
	f.RecordMsg(FlightReplState, 0, "promoted", 0, 0, 0)
	f.Instrument(NewRegistry(), "x")
	if f.Size() != 0 || f.Recorded() != 0 {
		t.Fatalf("nil recorder reports size %d recorded %d", f.Size(), f.Recorded())
	}
	d := f.Dump()
	if d.Schema != FlightDumpSchema || len(d.Events) != 0 {
		t.Fatalf("nil dump: %+v", d)
	}
	if NewFlightRecorder(0) != nil || NewFlightRecorder(-5) != nil {
		t.Fatal("size <= 0 must return the disabled recorder")
	}
}

func TestFlightRecorderSizeRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{1, 64}, {64, 64}, {65, 128}, {100, 128}, {4096, 4096},
	} {
		if got := NewFlightRecorder(tc.ask).Size(); got != tc.want {
			t.Errorf("NewFlightRecorder(%d).Size() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

func TestFlightRecordAndDump(t *testing.T) {
	f := NewFlightRecorder(64)
	f.Record(FlightBackpressure, 0, 3, 1, 900)
	f.RecordMsg(FlightReplState, 0, "promoted", 42, 0, 0)
	f.Record(FlightWALStall, 0, 80e6, 50e6, 1)

	d := f.Dump()
	if d.Recorded != 3 || len(d.Events) != 3 || d.Dropped != 0 {
		t.Fatalf("dump: recorded=%d events=%d dropped=%d", d.Recorded, len(d.Events), d.Dropped)
	}
	// Oldest first, sequence numbers contiguous.
	for i, ev := range d.Events {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if d.Events[0].Kind != "backpressure" || d.Events[0].A != 3 || d.Events[0].C != 900 {
		t.Fatalf("backpressure event: %+v", d.Events[0])
	}
	if d.Events[1].Kind != "repl_state" || d.Events[1].Msg != "promoted" || d.Events[1].A != 42 {
		t.Fatalf("repl event: %+v", d.Events[1])
	}
	if d.Events[2].Kind != "wal_stall" {
		t.Fatalf("wal event: %+v", d.Events[2])
	}
}

func TestFlightRecorderWrap(t *testing.T) {
	f := NewFlightRecorder(64)
	for i := 0; i < 200; i++ {
		f.Record(FlightSpan, 0, uint64(i), 0, 0)
	}
	d := f.Dump()
	if d.Recorded != 200 {
		t.Fatalf("recorded = %d", d.Recorded)
	}
	if len(d.Events) != 64 {
		t.Fatalf("wrapped dump holds %d events, want the ring's 64", len(d.Events))
	}
	// The surviving window is the newest 64 generations: 136..199.
	for i, ev := range d.Events {
		want := uint64(136 + i)
		if ev.Seq != want || ev.A != want {
			t.Fatalf("event %d: seq=%d a=%d, want %d", i, ev.Seq, ev.A, want)
		}
	}
}

func TestFlightRecorderInstrument(t *testing.T) {
	reg := NewRegistry()
	f := NewFlightRecorder(128)
	f.Instrument(reg, "fl")
	f.Record(FlightReady, 0, 1, 0, 0)
	f.Record(FlightReady, 0, 0, 0, 0)
	s := reg.Snapshot()
	if got := s.Counter("fl_events_total"); got != 2 {
		t.Fatalf("fl_events_total = %d", got)
	}
	if got := s.Gauge("fl_ring_size"); got != 128 {
		t.Fatalf("fl_ring_size = %v", got)
	}
}

// TestFlightRecorderConcurrent hammers the ring from many writers while
// a reader dumps continuously: every event that survives a dump must be
// internally consistent (a known kind, the writer-stamped payload
// relation A==B), torn slots may only be dropped, never corrupted.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(64) // small ring: constant lapping
	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := uint64(w)<<32 | uint64(i)
				f.Record(FlightSpan, 0, v, v, 0)
			}
		}(w)
	}
	go func() { wg.Wait(); close(stop) }()
	for {
		d := f.Dump()
		for _, ev := range d.Events {
			if ev.Kind != "span" {
				t.Fatalf("corrupt kind %q in concurrent dump", ev.Kind)
			}
			if ev.A != ev.B {
				t.Fatalf("torn payload surfaced: a=%d b=%d", ev.A, ev.B)
			}
		}
		select {
		case <-stop:
			if got := f.Recorded(); got != writers*perWriter {
				t.Fatalf("recorded = %d, want %d", got, writers*perWriter)
			}
			return
		default:
		}
	}
}

func TestParseFlightDumpRoundtrip(t *testing.T) {
	f := NewFlightRecorder(64)
	f.RecordMsg(FlightSLO, int32(SLOPage), "p99", 7, 8, 0)
	var buf bytes.Buffer
	if err := f.Dump().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ParseFlightDump(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) != 1 || d.Events[0].Kind != "slo" || d.Events[0].Msg != "p99" {
		t.Fatalf("roundtrip dump: %+v", d)
	}
	if _, err := ParseFlightDump([]byte(`{"schema":"bogus/v9"}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if _, err := ParseFlightDump([]byte(`{nope`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestFlightKindNames(t *testing.T) {
	for k := FlightSpan; k <= FlightIncident; k++ {
		if k.String() == "kind_unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if FlightKind(250).String() != "kind_unknown" {
		t.Error("unknown kind must stringify as kind_unknown")
	}
}
