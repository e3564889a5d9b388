package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
)

// minRounds is the least number of rounds a run makes, however short
// its time: enough for a median.
const minRounds = 3

// result is what one run of one workload reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]mvalue `json:"metrics"`
	// Unbounded metrics are printed but kept out of the result object.
	Unbounded map[string]mvalue `json:"-"`
	// Samples is how many batch round trips the percentiles rest on,
	// over Rounds rounds.
	Samples int `json:"-"`
	Rounds  int `json:"-"`
}

type mvalue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = mvalue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("metric not declared in spec.go: " + name)
}

func (iv *interval) cpuUsPerOp() float64 {
	return float64(iv.cpu.Nanoseconds()) / 1e3 / float64(iv.acked())
}

// interval is one measured interval's raw numbers, from which both the
// end-to-end metrics and the traced run's rung timings are derived.
type interval struct {
	tally  tally // ops attempted/failed inside the interval only
	lat    []samples
	wall   time.Duration // what ops_per_s divides by
	cpu    time.Duration
	rssMiB float64 // peak RSS when the interval ended
}

// add folds another interval of the same system shape into iv: a ladder
// rung is the sum of its rounds.
func (iv *interval) add(o *interval) {
	iv.tally.merge(&o.tally)
	iv.lat = append(iv.lat, o.lat...)
	iv.wall += o.wall
	iv.cpu += o.cpu
	iv.rssMiB = max(iv.rssMiB, o.rssMiB)
}

func (iv *interval) opsPerS() float64 { return float64(iv.acked()) / iv.wall.Seconds() }

func (iv *interval) acked() uint64 { return iv.tally.pushOK + iv.tally.popOK }

func (iv *interval) nsPerOp() float64 {
	return float64(iv.wall.Nanoseconds()) / float64(max(iv.acked(), 1))
}

// measure runs a built system for the budget's attempted ops, shared
// equally among the callers. The interval ends when the last caller finishes its share. A lone
// caller's wall time is the sum of its timed batch round trips — the
// lockstep check runs between them and is left out; concurrent callers
// are timed around the whole interval. The caller of measure finishes
// the system afterwards.
func measure(s *system, b budget) (*interval, error) {
	n := len(s.callers)
	b.ops /= uint64(n)
	before := make([]tally, n)
	for i, c := range s.callers {
		before[i] = c.tally
		c.lat = make(samples, 0, 1<<16)
	}
	iv := &interval{}
	wall, cpu, err := s.run(b, true)
	if err == nil && s.follower != nil && s.primary().repl.Status().Degraded {
		// Degraded is sticky: from the first timed-out ack on, the primary
		// answers without waiting for the follower, and what the interval
		// measured is no longer synchronous replication.
		err = fmt.Errorf("replic.degraded > 0: a sync ack timed out, so the run is not reportable")
	}
	if err == nil {
		iv.rssMiB, err = peakRSSMiB()
	}
	if err != nil {
		s.teardown()
		return nil, err
	}
	iv.wall, iv.cpu = wall, cpu
	for i, c := range s.callers {
		m := c.tally
		m.attempted -= before[i].attempted
		m.failed -= before[i].failed
		m.pushOK -= before[i].pushOK
		m.popOK -= before[i].popOK
		iv.tally.merge(&m)
		iv.lat = append(iv.lat, c.lat)
	}
	if n == 1 {
		iv.wall = s.callers[0].busy
	}
	return iv, nil
}

// runEndToEnd is the untraced run of one workload. It works in rounds
// until the time is up: each round sets the workload up from nothing,
// measures a fixed op count on it with the output checks on, and tears
// it down. Every metric is the median over the rounds, so a disturbance
// that hits one round does not decide it, setup_s has several set-ups
// to take its median from, and paths whose memory grows with every op
// (the replication log is kept from genesis) are measured over the same
// short history each time instead of one history whose collector cycles
// grow until they swamp the run.
func runEndToEnd(w *workload, seed uint64, d time.Duration) (*result, error) {
	tape := newTape(seed, tapeLen)
	r := &result{Correct: true, Metrics: map[string]mvalue{}, Unbounded: map[string]mvalue{}}
	per := map[string][]float64{}
	var firstCheckErr error
	for start := time.Now(); len(per["setup_s"]) < minRounds || time.Since(start) < d; {
		iv, setup, checkErr, err := round(w, tape)
		if err != nil {
			return nil, err
		}
		if iv.acked() == 0 {
			return nil, fmt.Errorf("no op was acknowledged")
		}
		if checkErr != nil && firstCheckErr == nil {
			firstCheckErr = checkErr
		}
		r.Attempted += iv.tally.attempted
		r.Failed += iv.tally.failed
		r.Samples += count(iv.lat)
		for name, v := range map[string]float64{
			"ops_per_s":     iv.opsPerS(),
			"batch_p50_us":  float64(quantileOf(iv.lat, 0.5)) / 1e3,
			"batch_p99_us":  float64(quantileOf(iv.lat, 0.99)) / 1e3,
			"cpu_us_per_op": iv.cpuUsPerOp(),
			"peak_rss_mb":   iv.rssMiB,
			"setup_s":       setup.Seconds(),
		} {
			per[name] = append(per[name], v)
		}
		// The next round starts from a collected heap.
		runtime.GC()
	}
	for _, m := range endToEnd {
		r.set(endToEnd, m.name, median(per[m.name]))
	}
	per["fail_share"] = []float64{float64(r.Failed) / float64(r.Attempted)}
	for _, m := range unbounded {
		r.Unbounded[m.name] = mvalue{Value: median(per[m.name]), Unit: m.unit}
	}
	r.Rounds = len(per["setup_s"])
	if firstCheckErr != nil {
		r.Correct = false
		return r, fmt.Errorf("output check: %w", firstCheckErr)
	}
	return r, nil
}

// round is one set-up, one measured interval of the workload's fixed op
// count, and the finish with its output checks.
func round(w *workload, tape []core.Element) (iv *interval, setup time.Duration, checkErr, err error) {
	resetPeakRSS()
	t0 := time.Now()
	if w.top == rungPersist {
		rst, err := buildRestarter(w, tape)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("set-up: %w", err)
		}
		setup = time.Since(t0)
		if iv, err = measureRestarts(rst, budget{ops: w.measureOps}, nil); err != nil {
			return nil, 0, nil, err
		}
		return iv, setup, rst.finish(), nil
	}
	sys, err := build(w, w.top, tape, buildOpts{check: true})
	if err != nil {
		return nil, 0, nil, fmt.Errorf("set-up: %w", err)
	}
	setup = time.Since(t0)
	if iv, err = measure(sys, budget{ops: w.measureOps}); err != nil {
		return nil, 0, nil, err
	}
	return iv, setup, sys.finish(), nil
}

// measureRestarts is measure for the restart workload: cycles, at least
// one, until the budget's elements have been carried through.
func measureRestarts(r *restarter, b budget, rec *spanRec) (*interval, error) {
	for cycles := uint64(0); cycles == 0 || !b.done(cycles*uint64(r.elems)); cycles++ {
		if err := r.cycle(rec); err != nil {
			r.close()
			return nil, err
		}
	}
	iv := &interval{lat: []samples{r.lat}, cpu: r.cpu}
	for _, l := range r.lat {
		iv.wall += time.Duration(l)
	}
	n := uint64(len(r.lat)) * uint64(r.elems)
	iv.tally = tally{attempted: n, pushOK: n}
	var err error
	if iv.rssMiB, err = peakRSSMiB(); err != nil {
		r.close()
		return nil, err
	}
	return iv, nil
}
