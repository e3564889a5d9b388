// Package harness is the kit the socket acceptance harnesses
// (cmd/bmwchaos, cmd/bmwcluster) share: a golden lockstep that checks
// PIFO order against a refpq reference, a sync-replicating
// primary/standby pair of nodes with kill-then-promote, and the
// evidence writer.
package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/node"
	"repro/internal/refpq"
	"repro/internal/wire"
)

// The divergences Lockstep reports; every error it returns wraps one.
var (
	ErrDuplicatedApply  = errors.New("duplicated apply")
	ErrAckedOpLoss      = errors.New("acked-op loss")
	ErrOutOfOrder       = errors.New("out-of-order pop")
	ErrUnexpectedStatus = errors.New("unexpected status")
)

// Lockstep mirrors the acked operations of one sequential caller in a
// reference queue. A sequential caller sees the served queue as
// sequentially consistent, so an acked push is visible to the next pop
// and every acked pop must return exactly the reference minimum.
type Lockstep struct {
	ref *refpq.Queue
	// Pushes and Pops count the acked applies fed through Push and Pop
	// (Drain's pops are not counted).
	Pushes, Pops uint64
}

// NewLockstep returns a lockstep over an empty reference.
func NewLockstep() *Lockstep { return &Lockstep{ref: refpq.New()} }

// Len is the number of acked elements not yet popped.
func (l *Lockstep) Len() int { return l.ref.Len() }

// Push applies the acked status of a push of (value, meta). A refusal
// (full, backpressure, overloaded) is acked as not applied.
func (l *Lockstep) Push(value, meta uint64, st wire.Status) error {
	switch st {
	case wire.StatusOK:
		l.ref.Push(refpq.Entry{Value: value, Meta: meta})
		l.Pushes++
	case wire.StatusFull, wire.StatusBackpressure, wire.StatusOverloaded:
	default:
		return fmt.Errorf("push acked with status %v: %w", st, ErrUnexpectedStatus)
	}
	return nil
}

// Pop applies the acked result of a pop.
func (l *Lockstep) Pop(r wire.Result) error {
	if err := l.pop(r); err != nil {
		return err
	}
	if r.Status == wire.StatusOK {
		l.Pops++
	}
	return nil
}

func (l *Lockstep) pop(r wire.Result) error {
	switch r.Status {
	case wire.StatusOK:
		if l.ref.Len() == 0 {
			return fmt.Errorf("pop returned value %d beyond the reference: %w", r.Value, ErrDuplicatedApply)
		}
		if want := l.ref.PopMin(); r.Value != want.Value {
			return fmt.Errorf("pop returned value %d, reference says %d: %w", r.Value, want.Value, ErrOutOfOrder)
		}
	case wire.StatusEmpty:
		if l.ref.Len() != 0 {
			return fmt.Errorf("pop says empty, reference holds %d: %w", l.ref.Len(), ErrAckedOpLoss)
		}
	default:
		return fmt.Errorf("pop acked with status %v: %w", r.Status, ErrUnexpectedStatus)
	}
	return nil
}

// Drain is the exact final drain: it pops through pop until the served
// queue says empty, checking every value, and requires the reference
// to run out at the same pop. It returns the number of values drained.
func (l *Lockstep) Drain(pop func() (wire.Result, error)) (int, error) {
	for n := 0; ; n++ {
		r, err := pop()
		if err == nil {
			err = l.pop(r)
		}
		if err != nil {
			return n, fmt.Errorf("final drain: %w", err)
		}
		if r.Status == wire.StatusEmpty {
			return n, nil
		}
	}
}

// Pair is a sync-replicating primary and its hot standby.
type Pair struct {
	Primary *node.Node
	Standby *node.Node // nil after Failover until the caller attaches a fresh one
}

// WaitReplicated blocks until the standby is ready and has acknowledged
// the primary's full log, for at most 30 s.
func (p *Pair) WaitReplicated() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		prim := p.Primary.Repl()
		if prim.AckSeq() == prim.LogSeq() && p.Standby.Repl().Ready() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("standby never caught up: ack %d, tip %d", prim.AckSeq(), prim.LogSeq())
		}
		time.Sleep(time.Millisecond)
	}
}

// Failover waits for the standby to hold the primary's full log, kills
// the primary, promotes the standby and requires the promoted log to
// sit at the replicated tip. The promoted standby becomes Primary and
// Standby is left nil. It returns the tip and the moment of the kill.
func (p *Pair) Failover() (tip uint64, killed time.Time, err error) {
	if err := p.WaitReplicated(); err != nil {
		return 0, time.Time{}, err
	}
	tip = p.Primary.Repl().LogSeq()
	p.Primary.Kill()
	killed = time.Now()
	p.Standby.Promote()
	p.Primary, p.Standby = p.Standby, nil
	if got := p.Primary.Repl().LogSeq(); got != tip {
		return tip, killed, fmt.Errorf("promoted at log seq %d, want replicated tip %d", got, tip)
	}
	return tip, killed, nil
}

// Kill stops both nodes.
func (p *Pair) Kill() {
	for _, n := range []*node.Node{p.Primary, p.Standby} {
		if n != nil {
			n.Kill()
		}
	}
}

// WriteEvidence writes v as indented JSON to dir/name, creating dir,
// and returns the file's path.
func WriteEvidence(dir, name string, v any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("evidence dir: %w", err)
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", fmt.Errorf("encode evidence: %w", err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("write evidence: %w", err)
	}
	return path, nil
}
