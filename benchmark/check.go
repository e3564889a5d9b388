package main

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/refpq"
)

// Outcome statuses, the same at every layer.
const (
	stOK      uint8 = iota
	stEmpty         // pop answered "empty"
	stRefused       // backpressure, overloaded, full, not-owner, transport
)

// outcome is one op's result, reduced to what the checkers need. el is
// the pushed element for a push and the popped one for an OK pop.
type outcome struct {
	push   bool
	status uint8
	el     core.Element
}

// tally counts ops and keeps an order-free digest of the (value, meta)
// pairs that went in and came out, so that conservation — every acked
// push is popped or still queued at the end, nothing else is — can be
// checked without remembering the elements.
type tally struct {
	attempted, failed uint64
	pushOK, popOK     uint64
	inSum, outSum     uint64
	inXor, outXor     uint64
}

func elemHash(e core.Element) uint64 {
	s := splitmix(e.Value*0x9e3779b97f4a7c15 ^ e.Meta)
	return s.next()
}

func (t *tally) observe(o outcome) {
	t.attempted++
	if o.status != stOK {
		t.failed++
		return
	}
	h := elemHash(o.el)
	if o.push {
		t.pushOK++
		t.inSum += h
		t.inXor ^= h
	} else {
		t.popOK++
		t.outSum += h
		t.outXor ^= h
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.pushOK += o.pushOK
	t.popOK += o.popOK
	t.inSum += o.inSum
	t.outSum += o.outSum
	t.inXor ^= o.inXor
	t.outXor ^= o.outXor
}

// conserve checks the tally against the elements still queued at exit.
func (t *tally) conserve(remaining []core.Element) error {
	sum, xor := t.outSum, t.outXor
	for _, e := range remaining {
		h := elemHash(e)
		sum += h
		xor ^= h
	}
	if t.pushOK != t.popOK+uint64(len(remaining)) {
		return fmt.Errorf("conservation: %d acked pushes, %d acked pops + %d drained",
			t.pushOK, t.popOK, len(remaining))
	}
	if sum != t.inSum || xor != t.inXor {
		return fmt.Errorf("conservation: elements popped and drained are not the elements pushed")
	}
	return nil
}

// lockstep replays a sequential caller's outcomes through the reference
// queue: every OK pop must return the reference minimum, and "empty"
// is only right when the reference is empty too. Elements tied on rank
// are interchangeable, so the rank is compared and the tally carries
// the (value, meta) identity.
type lockstep struct {
	ref *refpq.Queue
	// pushesFirst applies a batch's pushes before its pops, which is
	// the order cluster.Client.Do executes them in.
	pushesFirst bool
}

func newLockstep(pushesFirst bool) *lockstep {
	return &lockstep{ref: refpq.New(), pushesFirst: pushesFirst}
}

func (l *lockstep) observe(batch []outcome) error {
	if l.pushesFirst {
		for _, o := range batch {
			if o.push && o.status == stOK {
				l.ref.Push(refpq.Entry{Value: o.el.Value, Meta: o.el.Meta})
			}
		}
	}
	for i, o := range batch {
		switch {
		case o.push:
			if o.status == stOK && !l.pushesFirst {
				l.ref.Push(refpq.Entry{Value: o.el.Value, Meta: o.el.Meta})
			}
		case o.status == stOK:
			if l.ref.Len() == 0 {
				return fmt.Errorf("lockstep: op %d popped %d from a queue the reference holds empty", i, o.el.Value)
			}
			if want := l.ref.MinValue(); o.el.Value != want {
				return fmt.Errorf("lockstep: op %d popped rank %d, reference minimum is %d", i, o.el.Value, want)
			}
			l.ref.PopMin()
		case o.status == stEmpty:
			if l.ref.Len() != 0 {
				return fmt.Errorf("lockstep: op %d answered empty, reference holds %d", i, l.ref.Len())
			}
		}
	}
	return nil
}

// finish checks the drained remainder against the reference content.
func (l *lockstep) finish(remaining []core.Element) error {
	if len(remaining) != l.ref.Len() {
		return fmt.Errorf("lockstep: %d elements drained, reference holds %d", len(remaining), l.ref.Len())
	}
	got := make([]uint64, len(remaining))
	for i, e := range remaining {
		got[i] = e.Value
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, v := range got {
		if want := l.ref.PopMin().Value; v != want {
			return fmt.Errorf("lockstep: drained rank %d at position %d, reference has %d", v, i, want)
		}
	}
	return nil
}

// sortedDrain checks one queue's drain came out in PIFO order.
func sortedDrain(els []core.Element) error {
	for i := 1; i < len(els); i++ {
		if els[i].Value < els[i-1].Value {
			return fmt.Errorf("drain: rank %d after %d at position %d", els[i].Value, els[i-1].Value, i)
		}
	}
	return nil
}

// sameDrain checks two per-shard drains are identical, element for
// element — follower against primary, restored against checkpointed.
func sameDrain(what string, a, b [][]core.Element) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: %d shards against %d", what, len(a), len(b))
	}
	for s := range a {
		if len(a[s]) != len(b[s]) {
			return fmt.Errorf("%s: shard %d holds %d elements against %d", what, s, len(a[s]), len(b[s]))
		}
		for i := range a[s] {
			if a[s][i] != b[s][i] {
				return fmt.Errorf("%s: shard %d position %d: %v against %v", what, s, i, a[s][i], b[s][i])
			}
		}
	}
	return nil
}
