package hw

import (
	"strings"
	"testing"
)

func TestOpKindString(t *testing.T) {
	if Nop.String() != "nop" || Push.String() != "push" || Pop.String() != "pop" {
		t.Error("OpKind names wrong")
	}
	if OpKind(9).String() != "OpKind(9)" {
		t.Error("unknown OpKind name wrong")
	}
}

func TestOpBuilders(t *testing.T) {
	p := PushOp(5, 7)
	if p.Kind != Push || p.Value != 5 || p.Meta != 7 {
		t.Errorf("PushOp = %+v", p)
	}
	if PopOp().Kind != Pop {
		t.Error("PopOp kind wrong")
	}
	if NopOp().Kind != Nop {
		t.Error("NopOp kind wrong")
	}
}

func TestSDPRAMBasicReadWrite(t *testing.T) {
	r := NewSDPRAM[int](8)
	if r.Words() != 8 {
		t.Fatalf("Words = %d", r.Words())
	}
	// Cycle 0: write 42 to addr 3.
	r.Write(3, 42)
	r.Tick()
	if _, ok := r.Data(); ok {
		t.Fatal("data valid without a read")
	}
	// Cycle 1: read addr 3.
	r.Read(3)
	r.Tick()
	d, ok := r.Data()
	if !ok || d != 42 {
		t.Fatalf("read = %d,%v want 42", d, ok)
	}
	// Data is one-shot per read.
	r.Tick()
	if _, ok := r.Data(); ok {
		t.Fatal("stale data still valid")
	}
}

// TestSDPRAMWriteFirst verifies the property of Section 5.2.3: a read and
// a write to the same address in the same cycle return the newly written
// data (the paper's example: old value 32, new value 28, the read gets 28).
func TestSDPRAMWriteFirst(t *testing.T) {
	r := NewSDPRAM[int](4)
	r.Write(1, 32)
	r.Tick()

	r.Write(1, 28)
	r.Read(1)
	r.Tick()
	d, ok := r.Data()
	if !ok || d != 28 {
		t.Fatalf("read-during-write = %d,%v want 28", d, ok)
	}
	if r.Peek(1) != 28 {
		t.Fatalf("committed value = %d want 28", r.Peek(1))
	}
	_, _, coll := r.Stats()
	if coll != 1 {
		t.Fatalf("collisions = %d want 1", coll)
	}
}

// TestSDPRAMDistinctAddresses verifies that a same-cycle read of a
// different address returns the old committed data, not the in-flight
// write.
func TestSDPRAMDistinctAddresses(t *testing.T) {
	r := NewSDPRAM[int](4)
	r.Write(0, 10)
	r.Tick()
	r.Write(1, 20)
	r.Read(0)
	r.Tick()
	if d, _ := r.Data(); d != 10 {
		t.Fatalf("read = %d want 10", d)
	}
}

func TestSDPRAMReadBeforeAnyWriteIsZero(t *testing.T) {
	r := NewSDPRAM[int](2)
	r.Read(1)
	r.Tick()
	if d, ok := r.Data(); !ok || d != 0 {
		t.Fatalf("read of untouched word = %d,%v want 0,true", d, ok)
	}
}

func TestSDPRAMDoublePortUsePanics(t *testing.T) {
	r := NewSDPRAM[int](2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double read did not panic")
			}
		}()
		r.Read(0)
		r.Read(1)
	}()
	r.Tick()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double write did not panic")
			}
		}()
		r.Write(0, 1)
		r.Write(1, 2)
	}()
}

func TestSDPRAMStats(t *testing.T) {
	r := NewSDPRAM[int](4)
	for i := 0; i < 5; i++ {
		r.Write(i%4, i)
		r.Tick()
	}
	for i := 0; i < 3; i++ {
		r.Read(i)
		r.Tick()
	}
	reads, writes, _ := r.Stats()
	if reads != 3 || writes != 5 {
		t.Fatalf("stats = %d reads %d writes, want 3, 5", reads, writes)
	}
}

// TestSDPRAMAddressBounds proves out-of-range addresses fail at issue
// time, on both ports, with a message naming the port and the range —
// not later inside Tick as a raw slice-index panic.
func TestSDPRAMAddressBounds(t *testing.T) {
	cases := []struct {
		name string
		use  func(r *SDPRAM[int])
		want string
	}{
		{"read-negative", func(r *SDPRAM[int]) { r.Read(-1) }, "read address -1 out of range [0,4)"},
		{"read-high", func(r *SDPRAM[int]) { r.Read(4) }, "read address 4 out of range [0,4)"},
		{"write-negative", func(r *SDPRAM[int]) { r.Write(-3, 0) }, "write address -3 out of range [0,4)"},
		{"write-high", func(r *SDPRAM[int]) { r.Write(7, 0) }, "write address 7 out of range [0,4)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewSDPRAM[int](4)
			defer func() {
				msg, ok := recover().(string)
				if !ok {
					t.Fatalf("no panic for %s", tc.name)
				}
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q does not contain %q", msg, tc.want)
				}
				// The port must not be left half-issued: legal traffic
				// still works afterwards.
				r.Write(0, 42)
				r.Read(0)
				r.Tick()
				if d, ok := r.Data(); !ok || d != 42 {
					t.Fatalf("RAM unusable after rejected address: %d, %v", d, ok)
				}
			}()
			tc.use(r)
		})
	}
}

// TestSDPRAMInBoundsEdgeAddresses exercises the accepted boundary
// addresses 0 and Words()-1 end to end.
func TestSDPRAMInBoundsEdgeAddresses(t *testing.T) {
	r := NewSDPRAM[int](4)
	r.Write(0, 10)
	r.Tick()
	r.Write(3, 13)
	r.Tick()
	r.Read(0)
	r.Tick()
	if d, _ := r.Data(); d != 10 {
		t.Fatalf("word 0 = %d", d)
	}
	r.Read(3)
	r.Tick()
	if d, _ := r.Data(); d != 13 {
		t.Fatalf("word 3 = %d", d)
	}
}
