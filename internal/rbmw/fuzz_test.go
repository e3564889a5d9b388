package rbmw

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/treecheck"
)

// FuzzRBMWVsCore interprets fuzz bytes as a legal issue schedule for the
// R-BMW wave pipeline and cross-checks every pop against the golden
// software model. The first byte selects the tree geometry and whether
// the shared treecheck invariants run on every quiescent tick; they
// always run once the drained pipeline has settled.
// Run with `go test -fuzz=FuzzRBMWVsCore ./internal/rbmw`.
func FuzzRBMWVsCore(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x90, 0x20, 0xA0, 0x30})
	f.Add([]byte{0x03, 255, 0, 255, 0, 255, 0, 255, 0})
	f.Add([]byte("interleaved operations everywhere"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := data[0]
		data = data[1:]
		m := 2 + int(cfg&0x03) // order 2..5
		const l = 3
		s := New(m, l)
		checkEvery := cfg&0x0C != 0
		g := core.New(m, l)
		for i, b := range data {
			var op hw.Op
			switch {
			case !s.PopAvailable():
				op = hw.NopOp() // mandatory idle after a pop
			case b&0x80 != 0 && g.Len() > 0:
				op = hw.PopOp()
			case !g.AlmostFull():
				op = hw.PushOp(uint64(b&0x7F), uint64(i))
			default:
				op = hw.NopOp()
			}
			got, err := s.Tick(op)
			if err != nil {
				t.Fatalf("tick %d (%v): %v", i, op.Kind, err)
			}
			switch op.Kind {
			case hw.Push:
				if err := g.Push(core.Element{Value: op.Value, Meta: op.Meta}); err != nil {
					t.Fatal(err)
				}
			case hw.Pop:
				want, err := g.Pop()
				if err != nil {
					t.Fatal(err)
				}
				if got == nil || *got != want {
					t.Fatalf("tick %d: sim %v golden %v", i, got, want)
				}
			}
			if checkEvery && s.Quiescent() {
				if err := treecheck.Check(s); err != nil {
					t.Fatalf("tick %d: %v", i, err)
				}
			}
		}
		for g.Len() > 0 {
			if !s.PopAvailable() {
				s.Tick(hw.NopOp())
				continue
			}
			want, _ := g.Pop()
			got, err := s.Tick(hw.PopOp())
			if err != nil {
				t.Fatal(err)
			}
			if *got != want {
				t.Fatalf("drain: sim %v golden %v", got, want)
			}
		}
		for !s.Quiescent() {
			s.Tick(hw.NopOp())
		}
		if err := treecheck.Check(s); err != nil {
			t.Fatalf("drained: %v", err)
		}
	})
}
