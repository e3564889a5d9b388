package rpubmw

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/treecheck"
)

// FuzzPipelineEquivalence interprets fuzz bytes as a legal issue
// schedule for the RPU pipeline and cross-checks every pop against the
// golden software model. Run with `go test -fuzz=FuzzPipelineEquivalence
// ./internal/rpubmw` to explore; the seed corpus runs in plain tests.
func FuzzPipelineEquivalence(f *testing.F) {
	f.Add([]byte{0x10, 0x90, 0x20, 0xA0, 0x30})
	f.Add([]byte("interleaved operations everywhere"))
	f.Add([]byte{255, 0, 255, 0, 255, 0, 255, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New(2, 4)
		g := core.New(2, 4)
		for i, b := range data {
			var op hw.Op
			switch {
			case !s.PushAvailable():
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
	})
}

// FuzzRPUBMWVsCore is the geometry-sweeping differential target: the
// first byte selects the tree order and whether the shared treecheck
// invariants run on every quiescent tick (they always run once the
// drained pipeline has settled), and the rest drives a legal issue
// schedule cross-checked against the golden model. Run with
// `go test -fuzz=FuzzRPUBMWVsCore ./internal/rpubmw`.
func FuzzRPUBMWVsCore(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x90, 0x20, 0xA0, 0x30})
	f.Add([]byte{0x17, 255, 0, 255, 0, 255, 0, 255, 0})
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
		checkEvery := cfg&0x1C != 0
		g := core.New(m, l)
		for i, b := range data {
			var op hw.Op
			switch {
			case !s.PushAvailable():
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
