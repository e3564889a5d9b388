package harness

import (
	"errors"
	"testing"

	"repro/internal/wire"
)

func ok(v uint64) wire.Result { return wire.Result{Status: wire.StatusOK, Value: v} }

var empty = wire.Result{Status: wire.StatusEmpty}

// pushAll feeds acked pushes of vs into a fresh lockstep.
func pushAll(t *testing.T, vs ...uint64) *Lockstep {
	t.Helper()
	l := NewLockstep()
	for i, v := range vs {
		if err := l.Push(v, uint64(i), wire.StatusOK); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// TestLockstepAcceptsPIFOHistory feeds a correct history: refusals are
// acked as not applied, pops return the minimum, and empty comes
// exactly when the reference runs out.
func TestLockstepAcceptsPIFOHistory(t *testing.T) {
	l := pushAll(t, 5, 3, 9)
	for _, st := range []wire.Status{wire.StatusFull, wire.StatusBackpressure, wire.StatusOverloaded} {
		if err := l.Push(1, 99, st); err != nil {
			t.Fatalf("refused push (%v): %v", st, err)
		}
	}
	for _, r := range []wire.Result{ok(3), ok(5), ok(9), empty} {
		if err := l.Pop(r); err != nil {
			t.Fatalf("pop %+v: %v", r, err)
		}
	}
	if l.Pushes != 3 || l.Pops != 3 || l.Len() != 0 {
		t.Fatalf("pushes=%d pops=%d len=%d, want 3 3 0", l.Pushes, l.Pops, l.Len())
	}
}

// TestLockstepDivergences feeds deliberately wrong histories; each must
// be reported as its named divergence.
func TestLockstepDivergences(t *testing.T) {
	cases := []struct {
		name string
		feed func(*Lockstep) error
		want error
	}{
		{"pop of the wrong value", func(l *Lockstep) error { return l.Pop(ok(5)) }, ErrOutOfOrder},
		{"pop past an empty reference", func(l *Lockstep) error {
			for _, v := range []uint64{3, 5, 9} {
				if err := l.Pop(ok(v)); err != nil {
					return err
				}
			}
			return l.Pop(ok(9))
		}, ErrDuplicatedApply},
		{"empty while the reference holds elements", func(l *Lockstep) error { return l.Pop(empty) }, ErrAckedOpLoss},
		{"push acked with a non-refusal status", func(l *Lockstep) error { return l.Push(1, 7, wire.StatusNotOwner) }, ErrUnexpectedStatus},
		{"pop acked with a non-pop status", func(l *Lockstep) error { return l.Pop(wire.Result{Status: wire.StatusFull}) }, ErrUnexpectedStatus},
		{"drain that ends early", func(l *Lockstep) error {
			_, err := l.Drain(replay(ok(3), ok(5), empty))
			return err
		}, ErrAckedOpLoss},
		{"drain that runs long", func(l *Lockstep) error {
			_, err := l.Drain(replay(ok(3), ok(5), ok(9), ok(9), empty))
			return err
		}, ErrDuplicatedApply},
		{"drain out of order", func(l *Lockstep) error {
			_, err := l.Drain(replay(ok(3), ok(9), ok(5), empty))
			return err
		}, ErrOutOfOrder},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.feed(pushAll(t, 5, 3, 9))
			if !errors.Is(err, c.want) {
				t.Fatalf("got %v, want %v", err, c.want)
			}
		})
	}
}

// TestDrainExact drains a correct tail, counting the values drained
// and leaving the acked-pop count alone.
func TestDrainExact(t *testing.T) {
	l := pushAll(t, 5, 3, 9)
	if err := l.Pop(ok(3)); err != nil {
		t.Fatal(err)
	}
	n, err := l.Drain(replay(ok(5), ok(9), empty))
	if err != nil || n != 2 || l.Pops != 1 {
		t.Fatalf("drained %d (err %v), pops %d; want 2, nil, 1", n, err, l.Pops)
	}
}

// replay returns a pop function that serves rs in order.
func replay(rs ...wire.Result) func() (wire.Result, error) {
	return func() (wire.Result, error) {
		r := rs[0]
		rs = rs[1:]
		return r, nil
	}
}
