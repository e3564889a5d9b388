package main

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wire"
)

// driver issues one batch at a time against one layer's public API. The
// run loop times exec alone: build and harvest are the generator and
// the checker's intake, kept out of the batch round-trip time.
type driver interface {
	// name labels the batch's root span.
	name() string
	// build lays the next batch from g into the layer's own op type.
	build(g *gen)
	// exec issues the built batch and waits for every result. Drivers
	// that make more than one call record them as child spans of parent.
	exec(rec *spanRec, parent, req, tid int32) error
	// harvest appends the batch's outcomes to outs.
	harvest(outs []outcome) []outcome
}

// batchBuf is the shape-level view of a batch every driver keeps.
type batchBuf struct {
	kinds []bool
	elems []core.Element
}

func newBatchBuf(n int) batchBuf {
	return batchBuf{kinds: make([]bool, n), elems: make([]core.Element, n)}
}

// coreDriver calls the bare tree: the bottom rung.
type coreDriver struct {
	batchBuf
	t    *core.Tree
	res  []core.Element
	errs []error
}

func newCoreDriver(t *core.Tree, batch int) *coreDriver {
	return &coreDriver{batchBuf: newBatchBuf(batch), t: t,
		res: make([]core.Element, batch), errs: make([]error, batch)}
}

func (d *coreDriver) name() string { return "core.Tree.Push/Pop" }
func (d *coreDriver) build(g *gen) { g.next(d.kinds, d.elems) }

func (d *coreDriver) exec(*spanRec, int32, int32, int32) error {
	for i, push := range d.kinds {
		if push {
			d.errs[i] = d.t.Push(d.elems[i])
		} else {
			d.res[i], d.errs[i] = d.t.Pop()
		}
	}
	return nil
}

func (d *coreDriver) harvest(outs []outcome) []outcome {
	for i, push := range d.kinds {
		o := outcome{push: push, el: d.elems[i]}
		if !push {
			o.el = d.res[i]
		}
		switch {
		case d.errs[i] == nil:
		case errors.Is(d.errs[i], core.ErrEmpty):
			o.status = stEmpty
		default:
			o.status = stRefused
		}
		outs = append(outs, o)
	}
	return outs
}

// engineDriver calls engine.SubmitInto from one submitter.
type engineDriver struct {
	batchBuf
	eng *engine.Engine
	ops []engine.Op
	res []engine.Result
}

func newEngineDriver(eng *engine.Engine, batch int) *engineDriver {
	return &engineDriver{batchBuf: newBatchBuf(batch), eng: eng,
		ops: make([]engine.Op, batch), res: make([]engine.Result, batch)}
}

func (d *engineDriver) name() string { return "engine.SubmitInto" }

func (d *engineDriver) build(g *gen) {
	g.next(d.kinds, d.elems)
	for i, push := range d.kinds {
		if push {
			d.ops[i] = engine.PushOp(d.elems[i])
		} else {
			d.ops[i] = engine.PopOp()
		}
	}
}

func (d *engineDriver) exec(*spanRec, int32, int32, int32) error {
	d.eng.SubmitInto(d.ops, d.res)
	return nil
}

func (d *engineDriver) harvest(outs []outcome) []outcome {
	for i, push := range d.kinds {
		o := outcome{push: push, el: d.elems[i]}
		if !push {
			o.el = d.res[i].Elem
		}
		switch err := d.res[i].Err; {
		case err == nil:
		case errors.Is(err, core.ErrEmpty):
			o.status = stEmpty
		default:
			o.status = stRefused
		}
		outs = append(outs, o)
	}
	return outs
}

// doer is the client side of the wire protocol: one connection
// (*wire.Client, *wire.ResilientClient) or the cluster's routing client.
type doer interface {
	Do(ops []wire.Op) ([]wire.Result, error)
}

// wireDriver calls a doer with the whole batch in one request.
type wireDriver struct {
	batchBuf
	label string
	c     doer
	ops   []wire.Op
	res   []wire.Result
}

func newWireDriver(label string, c doer, batch int) *wireDriver {
	return &wireDriver{batchBuf: newBatchBuf(batch), label: label, c: c, ops: make([]wire.Op, batch)}
}

func (d *wireDriver) name() string { return d.label }

func (d *wireDriver) build(g *gen) {
	g.next(d.kinds, d.elems)
	for i, push := range d.kinds {
		if push {
			d.ops[i] = wire.Op{Kind: wire.OpPush, Value: d.elems[i].Value, Meta: d.elems[i].Meta}
		} else {
			d.ops[i] = wire.Op{Kind: wire.OpPop}
		}
	}
}

func (d *wireDriver) exec(*spanRec, int32, int32, int32) (err error) {
	d.res, err = d.c.Do(d.ops)
	return err
}

func (d *wireDriver) harvest(outs []outcome) []outcome {
	for i, push := range d.kinds {
		o := outcome{push: push, el: d.elems[i]}
		if !push {
			o.el = core.Element{Value: d.res[i].Value, Meta: d.res[i].Meta}
		}
		switch d.res[i].Status {
		case wire.StatusOK:
		case wire.StatusEmpty:
			o.status = stEmpty
		default:
			o.status = stRefused
		}
		outs = append(outs, o)
	}
	return outs
}

// splitDriver issues a batch's pushes and its pops as two calls, timed
// apart, so a routing client's push path and pop path can each be set
// against a direct connection's. cluster.Client.Do runs a batch's
// pushes before its pops anyway, so the work is the same as one call.
type splitDriver struct {
	wireDriver
	pushOps, popOps []wire.Op
	splitTimes
}

// splitTimes are the two halves' round trips, summed, and the ops they
// carried.
type splitTimes struct {
	pushNs, popNs time.Duration
	pushes, pops  uint64
}

func (t *splitTimes) add(o splitTimes) {
	t.pushNs += o.pushNs
	t.popNs += o.popNs
	t.pushes += o.pushes
	t.pops += o.pops
}

func newSplitDriver(label string, c doer, batch int) *splitDriver {
	return &splitDriver{wireDriver: *newWireDriver(label, c, batch)}
}

func (d *splitDriver) build(g *gen) {
	d.wireDriver.build(g)
	d.pushOps, d.popOps = d.pushOps[:0], d.popOps[:0]
	for _, op := range d.ops {
		if op.Kind == wire.OpPush {
			d.pushOps = append(d.pushOps, op)
		} else {
			d.popOps = append(d.popOps, op)
		}
	}
}

func (d *splitDriver) exec(rec *spanRec, parent, req, tid int32) error {
	var pushRes, popRes []wire.Result
	var err error
	if len(d.pushOps) > 0 {
		h := rec.begin(d.label+" pushes", parent, req, tid)
		t0 := time.Now()
		pushRes, err = d.c.Do(d.pushOps)
		d.pushNs += time.Since(t0)
		rec.end(h)
		if err != nil {
			return err
		}
		d.pushes += uint64(len(d.pushOps))
	}
	if len(d.popOps) > 0 {
		h := rec.begin(d.label+" pops", parent, req, tid)
		t0 := time.Now()
		popRes, err = d.c.Do(d.popOps)
		d.popNs += time.Since(t0)
		rec.end(h)
		if err != nil {
			return err
		}
		d.pops += uint64(len(d.popOps))
	}
	d.res = d.res[:0]
	for _, push := range d.kinds {
		if push {
			d.res, pushRes = append(d.res, pushRes[0]), pushRes[1:]
		} else {
			d.res, popRes = append(d.res, popRes[0]), popRes[1:]
		}
	}
	return nil
}

// budget ends a run loop after a fixed number of attempted ops. The
// end-to-end run, the prefill and the warm-up set only that. A ladder
// rung also sets until, the end of its share of the run's time, and
// stops at whichever comes first.
type budget struct {
	ops   uint64
	until time.Time
}

func (b budget) done(attempted uint64) bool {
	return attempted >= b.ops || (!b.until.IsZero() && !time.Now().Before(b.until))
}

// batches caps a chunk of n batches so that the op budget is met
// exactly (to within one batch).
func (b budget) batches(n, batch int, attempted uint64) int {
	return min(n, int((b.ops-attempted+uint64(batch)-1)/uint64(batch)))
}

// caller is one closed-loop caller: it issues a batch, waits for the
// reply, and only then issues the next.
type caller struct {
	w   *workload
	d   driver
	g   *gen
	chk *lockstep // nil for concurrent callers
	rec *spanRec
	tid int32
	// meterCPU charges process CPU per chunk of timed batches, leaving
	// the lockstep check between chunks out. Only a lone caller may set
	// it; concurrent callers are metered around the whole interval.
	meterCPU bool

	tally tally
	lat   samples
	busy  time.Duration // sum of timed batch round trips
	cpu   time.Duration

	outs []outcome
}

// chunkOps is how many ops a caller issues between checks: enough that
// the getrusage pair is noise, few enough that the outcomes buffered for
// the checker stay cache-sized.
const chunkOps = 4096

// run issues batches until the budget ends. With keep false the batch
// times are not kept (prefill and warm-up).
func (c *caller) run(b budget, keep bool) error {
	batch := c.w.batch
	chunk := chunkOps / batch
	if chunk < 1 {
		chunk = 1
	}
	start := c.tally.attempted
	// At least one chunk: a rung whose set-up used up its share of the
	// time still measures something.
	for first := true; first || !b.done(c.tally.attempted-start); first = false {
		var c0 time.Duration
		if c.meterCPU {
			c0 = cpuTime()
		}
		c.outs = c.outs[:0]
		for i, n := 0, b.batches(chunk, batch, c.tally.attempted-start); i < n; i++ {
			c.d.build(c.g)
			req := c.rec.newReq()
			h := c.rec.begin(c.d.name(), 0, req, c.tid)
			t0 := time.Now()
			err := c.d.exec(c.rec, h, req, c.tid)
			dt := time.Since(t0)
			c.rec.end(h)
			if err != nil {
				return err
			}
			if keep {
				c.lat = append(c.lat, int64(dt))
				c.busy += dt
			}
			c.outs = c.d.harvest(c.outs)
		}
		if c.meterCPU && keep {
			c.cpu += cpuTime() - c0
		}
		for _, o := range c.outs {
			c.tally.observe(o)
		}
		if c.chk != nil {
			for i := 0; i < len(c.outs); i += batch {
				if err := c.chk.observe(c.outs[i : i+batch]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
