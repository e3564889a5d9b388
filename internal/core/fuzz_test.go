package core

import (
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
