package main

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func el(v, m uint64) core.Element { return core.Element{Value: v, Meta: m} }

func pushed(e core.Element) outcome { return outcome{push: true, el: e} }
func popped(e core.Element) outcome { return outcome{el: e} }

// Each checker is fed a correct history, which it must accept, and then
// the same history with one result falsified, which it must refuse.
func TestCheckersHaveTeeth(t *testing.T) {
	a, b, c := el(5, 1), el(3, 2), el(9, 3)

	mustFail := func(name string, err error, want string) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: a wrong result was accepted", name)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: refused for the wrong reason: %v", name, err)
		}
	}

	t.Run("lockstep", func(t *testing.T) {
		good := []outcome{pushed(a), pushed(b), popped(b), pushed(c), popped(a)}
		l := newLockstep(false)
		if err := l.observe(good); err != nil {
			t.Fatalf("correct history refused: %v", err)
		}
		if err := l.finish([]core.Element{c}); err != nil {
			t.Fatalf("correct remainder refused: %v", err)
		}

		l = newLockstep(false)
		mustFail("pop of a non-minimum",
			l.observe([]outcome{pushed(a), pushed(b), popped(a)}), "reference minimum")
		l = newLockstep(false)
		mustFail("empty answered over a non-empty queue",
			l.observe([]outcome{pushed(a), {status: stEmpty}}), "answered empty")
		l = newLockstep(false)
		mustFail("pop from an empty queue", l.observe([]outcome{popped(a)}), "holds empty")
		l = newLockstep(false)
		if err := l.observe(good); err != nil {
			t.Fatal(err)
		}
		mustFail("wrong remainder", l.finish([]core.Element{a}), "reference has")
		l = newLockstep(false)
		if err := l.observe(good); err != nil {
			t.Fatal(err)
		}
		mustFail("lost remainder", l.finish(nil), "reference holds")

		// cluster.Client.Do runs a batch's pushes before its pops: a pop
		// listed before a smaller push of the same batch must return it.
		l = newLockstep(true)
		if err := l.observe([]outcome{pushed(a), popped(b), pushed(b)}); err != nil {
			t.Errorf("pushes-first order refused: %v", err)
		}
		l = newLockstep(true)
		mustFail("pushes-first, stale minimum",
			l.observe([]outcome{pushed(a), popped(a), pushed(b)}), "reference minimum")
	})

	t.Run("conservation", func(t *testing.T) {
		var tl tally
		for _, o := range []outcome{pushed(a), pushed(b), pushed(c), popped(b)} {
			tl.observe(o)
		}
		if err := tl.conserve([]core.Element{c, a}); err != nil {
			t.Fatalf("correct drain refused: %v", err)
		}
		mustFail("lost element", tl.conserve([]core.Element{a}), "acked pushes")
		mustFail("duplicated element", tl.conserve([]core.Element{a, c, c}), "acked pushes")
		mustFail("swapped meta", tl.conserve([]core.Element{c, el(5, 7)}), "not the elements pushed")
		mustFail("swapped rank", tl.conserve([]core.Element{c, el(6, 1)}), "not the elements pushed")

		// A refused op must count as failed and not as content.
		tl.observe(outcome{push: true, status: stRefused, el: el(1, 1)})
		if tl.failed != 1 || tl.conserve([]core.Element{a, c}) != nil {
			t.Errorf("refused push changed the content digest (failed=%d)", tl.failed)
		}
	})

	t.Run("drains", func(t *testing.T) {
		x := [][]core.Element{{b, a}, {c}}
		if err := sameDrain("t", x, [][]core.Element{{b, a}, {c}}); err != nil {
			t.Fatalf("equal drains refused: %v", err)
		}
		mustFail("follower missing an element", sameDrain("t", x, [][]core.Element{{b}, {c}}), "holds")
		mustFail("follower differs", sameDrain("t", x, [][]core.Element{{b, a}, {el(9, 4)}}), "position 0")
		mustFail("shard count", sameDrain("t", x, [][]core.Element{{b, a}}), "shards")
		if err := sortedDrain([]core.Element{b, a, c}); err != nil {
			t.Fatalf("sorted drain refused: %v", err)
		}
		mustFail("out-of-order drain", sortedDrain([]core.Element{a, b}), "after")
	})
}

// A system whose results are tampered with between the program and the
// checker must fail its finish: the checkers are wired to what the run
// loop actually observes.
func TestTamperedRunFails(t *testing.T) {
	w := tiny(*findWorkload("engine_mixed_b64"))
	s, err := build(w, w.top, newTape(1, tapeLen), buildOpts{check: true})
	if err != nil {
		t.Fatal(err)
	}
	// Forge one acked push the engine never saw.
	s.callers[0].tally.observe(pushed(el(1, 1)))
	if err := s.finish(); err == nil {
		t.Fatal("a forged acked push went unnoticed")
	}
}
