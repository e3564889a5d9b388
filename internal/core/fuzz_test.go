package core

import (
	"bytes"
	"testing"

	"repro/internal/refpq"
)

// FuzzTreeAgainstReference interprets fuzz bytes as a tree shape and
// an operation stream. The first byte picks the order (2, 3, 4 or 8: the
// fixed-width walk at 4, the runtime-M walk otherwise) and 1 to 4
// levels; every later byte is a push or a pop. Every pop is validated against the
// reference queue, and against a twin tree driven through the runtime-M
// walks, plus the structural invariants. Run with
// `go test -fuzz=FuzzTreeAgainstReference ./internal/core` to explore;
// the seed corpus runs under plain `go test`.
func FuzzTreeAgainstReference(f *testing.F) {
	f.Add([]byte{0x01, 0x82, 0x43, 0xFF, 0x00, 0x7E})
	f.Add([]byte("push-pop-push-pop"))
	f.Add([]byte{0, 0, 0, 0, 255, 255, 255, 255})
	// Fill-then-drain runs on an order-2 and an order-4 tree, 4 levels.
	for _, shape := range []byte{0x0C, 0x0E} {
		run := []byte{shape}
		for i := 0; i < 400; i++ {
			run = append(run, byte(i*37)&0x7F)
		}
		for i := 0; i < 400; i++ {
			run = append(run, 0x80|byte(i), byte(i*11)&0x7F, 0x80)
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
		for i, b := range data {
			if b&0x80 != 0 && ref.Len() > 0 {
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
		p, err := tr.EncodeSnapshot()
		if err != nil {
			f.Fatal(err)
		}
		for _, cut := range []int{len(p), len(p) - 1, snapHeaderBytes + snapSlotBytes, snapHeaderBytes, 7, 0} {
			f.Add(p[:cut])
		}
	}
	empty := map[int][]byte{}
	for _, m := range []int{2, 4} {
		empty[m], _ = New(m, 3).EncodeSnapshot()
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, m := range []int{2, 4} {
			r := New(m, 3)
			err := r.RestoreSnapshot(coreSnapVersion, payload)
			got, _ := r.EncodeSnapshot()
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
