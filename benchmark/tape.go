package main

import "repro/internal/core"

// tapeLen is the length of the element tape, replayed cyclically.
const tapeLen = 1 << 20

// splitmix is the tape's generator: small, seedable, and the same on
// every platform, so a seed names one tape byte for byte.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	x := uint64(*s)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newTape generates the element tape for a seed before any timing
// starts: ranks uniform on [0, 2^rankBits), Meta one of flowIDs flows.
// The program under test only ever sees elements read from it.
func newTape(seed uint64, n int) []core.Element {
	rng := splitmix(seed)
	t := make([]core.Element, n)
	for i := range t {
		t[i] = core.Element{
			Value: rng.next() >> (64 - rankBits),
			Meta:  rng.next() % flowIDs,
		}
	}
	return t
}

// gen lays the tape into batches of one workload's shape. Each caller
// of a concurrent workload owns one gen starting at its own tape
// offset, so the ops a caller issues do not depend on scheduling.
type gen struct {
	w    *workload
	tape []core.Element
	pos  int
	n    int // batches built so far
	// pushOnly overrides the shape with all-push batches: the prefill.
	pushOnly bool

	// Sawtooth state: current direction and the fill it tracks.
	popping  bool
	fill, lo int
	hi       int
}

// newGen starts a gen at a tape offset. capacity and startFill size the
// sawtooth: it sweeps between the workload's lo and hi shares of
// capacity, starting from the prefilled count.
func newGen(w *workload, tape []core.Element, offset, capacity, startFill int) *gen {
	g := &gen{w: w, tape: tape, pos: offset % len(tape)}
	if w.shape == shapeSawtooth {
		g.lo = int(w.loFill * float64(capacity))
		g.hi = int(w.hiFill * float64(capacity))
		g.fill = startFill
	}
	return g
}

func (g *gen) elem() core.Element {
	e := g.tape[g.pos]
	g.pos++
	if g.pos == len(g.tape) {
		g.pos = 0
	}
	return e
}

// next fills kinds (true = push) and elems for the next batch; elems[i]
// is meaningful where kinds[i] is a push. Both slices have the
// workload's batch length.
func (g *gen) next(kinds []bool, elems []core.Element) {
	switch {
	case g.pushOnly:
		for i := range kinds {
			kinds[i], elems[i] = true, g.elem()
		}
	case g.w.shape == shapeSawtooth:
		if !g.popping && g.fill+len(kinds) > g.hi {
			g.popping = true
		} else if g.popping && g.fill-len(kinds) < g.lo {
			g.popping = false
		}
		for i := range kinds {
			kinds[i] = !g.popping
			if !g.popping {
				elems[i] = g.elem()
			}
		}
		if g.popping {
			g.fill -= len(kinds)
		} else {
			g.fill += len(kinds)
		}
	default:
		for i := range kinds {
			push := i%2 == 0
			if len(kinds) == 1 {
				push = g.n%2 == 0
			}
			kinds[i] = push
			if push {
				elems[i] = g.elem()
			}
		}
	}
	g.n++
}
