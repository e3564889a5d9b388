package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/refpq"
)

// FuzzTreeAgainstReference interprets fuzz bytes as a tree shape and
// an operation stream. The first byte picks the order (2, 3, 4 or 8: the
// fixed-width walk at 4, the runtime-M walk otherwise) and 1 to 4
// levels; every later byte is a push, a pop, or a bounded PopRun: a byte
// from 0xE0 up pops a run of 1 + 8·(b & 0x1F) under the bound the next
// byte names (its low 7 bits, or no bound when its top bit is set).
// Every pop is validated against the reference queue, and against a
// twin tree driven through the runtime-M walks, plus the structural
// invariants. Run with
// `go test -fuzz=FuzzTreeAgainstReference ./internal/core` to explore;
// the seed corpus runs under plain `go test`.
func FuzzTreeAgainstReference(f *testing.F) {
	f.Add([]byte{0x01, 0x82, 0x43, 0xDF, 0x00, 0x7E})
	f.Add([]byte("push-pop-push-pop"))
	f.Add([]byte{0, 0, 0, 0, 0x80, 0x80, 0x80, 0x80})
	// Bounded runs on an order-4 tree, 3 levels: one stopped by its
	// bound, one by the empty tree.
	run := []byte{0x0A}
	for i := 0; i < 120; i++ {
		run = append(run, byte(i*37)&0x7F)
	}
	f.Add(append(run, 0xE3, 0x40, 0xFF, 0x80))
	// Fill-then-drain runs on an order-2 and an order-4 tree, 4 levels.
	for _, shape := range []byte{0x0C, 0x0E} {
		run := []byte{shape}
		for i := 0; i < 400; i++ {
			run = append(run, byte(i*37)&0x7F)
		}
		for i := 0; i < 400; i++ {
			run = append(run, 0x80+byte(i%0x60), byte(i*11)&0x7F, 0x80)
		}
		f.Add(run)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		tr := New([]int{2, 3, 4, 8}[data[0]&3], 1+int(data[0]>>2)%4)
		twin := New(tr.Order(), tr.Levels())
		data = data[1:]
		ref := refpq.New()
		out := make([]Element, 1+8*0x1F)
		for i := 0; i < len(data); i++ {
			b := data[i]
			if b >= 0xE0 && i+1 < len(data) {
				i++
				bound := uint64(data[i] & 0x7F)
				if data[i]&0x80 != 0 {
					bound = math.MaxUint64
				}
				want := 1 + 8*int(b&0x1F)
				n := tr.PopRun(out[:want], bound)
				for _, e := range out[:n] {
					te, _, _ := slowPop(twin)
					switch {
					case te != e:
						t.Fatalf("run popped %+v, runtime-M twin popped %+v", e, te)
					case e.Value != ref.MinValue() || e.Value > bound:
						t.Fatalf("run popped %d, reference min %d, bound %d", e.Value, ref.MinValue(), bound)
					case !ref.RemoveExact(refpq.Entry{Value: e.Value, Meta: e.Meta}):
						t.Fatal("popped element not in reference")
					}
				}
				if n < want && ref.Len() > 0 && ref.MinValue() <= bound {
					t.Fatalf("run stopped at %d of %d, reference min %d under bound %d", n, want, ref.MinValue(), bound)
				}
			} else if b&0x80 != 0 && ref.Len() > 0 {
				e, err := tr.Pop()
				if err != nil {
					t.Fatalf("pop: %v", err)
				}
				if te, _, _ := slowPop(twin); te != e {
					t.Fatalf("pop %+v, runtime-M twin popped %+v", e, te)
				}
				if e.Value != ref.MinValue() {
					t.Fatalf("pop %d, reference min %d", e.Value, ref.MinValue())
				}
				if !ref.RemoveExact(refpq.Entry{Value: e.Value, Meta: e.Meta}) {
					t.Fatal("popped element not in reference")
				}
			} else if !tr.AlmostFull() {
				e := Element{Value: uint64(b & 0x7F), Meta: uint64(i)}
				if err := tr.Push(e); err != nil {
					t.Fatalf("push: %v", err)
				}
				slowPush(twin, e)
				ref.Push(refpq.Entry{Value: e.Value, Meta: e.Meta})
			}
			if i%13 == 0 {
				if err := tr.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != ref.Len() {
			t.Fatalf("size mismatch %d vs %d", tr.Len(), ref.Len())
		}
	})
}

// FuzzSnapshotRestore feeds arbitrary payloads to RestoreSnapshot on an
// order-2 and an order-4 receiver. It must never panic; a payload it
// accepts must re-encode to the same bytes, and one it refuses must
// leave the receiver as empty as it was. The seeds are real payloads
// of both orders, whole and truncated. Run with
// `go test -fuzz=FuzzSnapshotRestore ./internal/core` to explore.
func FuzzSnapshotRestore(f *testing.F) {
	for _, m := range []int{2, 4} {
		tr := New(m, 3)
		for i := 0; i < 3*tr.Cap()/4; i++ {
			if err := tr.Push(Element{Value: uint64(i * 7919 % 1000), Meta: uint64(i)}); err != nil {
				f.Fatal(err)
			}
		}
		for i := 0; i < tr.Cap()/4; i++ {
			if _, err := tr.Pop(); err != nil {
				f.Fatal(err)
			}
		}
		p := snapshotPayload(tr)
		for _, cut := range []int{len(p), len(p) - 1, snapHeaderBytes + snapSlotBytes, snapHeaderBytes, 7, 0} {
			f.Add(p[:cut])
		}
	}
	empty := map[int][]byte{}
	for _, m := range []int{2, 4} {
		empty[m] = snapshotPayload(New(m, 3))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, m := range []int{2, 4} {
			r := New(m, 3)
			err := restorePayload(r, coreSnapVersion, payload)
			got := snapshotPayload(r)
			if err != nil {
				if !bytes.Equal(got, empty[m]) {
					t.Fatalf("m=%d: refused payload (%v) changed the receiver", m, err)
				}
				continue
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("m=%d: accepted %d-byte payload re-encodes to %d different bytes", m, len(payload), len(got))
			}
		}
	})
}
