package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	bmw "repro"
)

// report is the machine-readable result written by -metrics-out: flat
// headline numbers, full metric snapshots of the instrumented runs, and
// the paper's rate claims re-derived from counted cycles.
type report struct {
	Experiment string   `json:"experiment"`
	GoVersion  string   `json:"go_version"`
	Seed       int64    `json:"seed"`
	Ran        []string `json:"ran"`
	// Metrics are scalar results (cycles per pair, Mpps, ...).
	Metrics map[string]float64 `json:"metrics"`
	// Claims are paper statements checked against counted cycles.
	Claims map[string]bool `json:"claims,omitempty"`
	// Snapshots are the full obs registries of instrumented runs.
	Snapshots map[string]bmw.MetricsSnapshot `json:"snapshots,omitempty"`
}

// rep is the active report; nil when -metrics-out is not given.
// Experiments record into it when present.
var rep *report

func newReport(exp string, seed int64) *report {
	return &report{
		Experiment: exp,
		GoVersion:  runtime.Version(),
		Seed:       seed,
		Metrics:    map[string]float64{},
		Claims:     map[string]bool{},
		Snapshots:  map[string]bmw.MetricsSnapshot{},
	}
}

func (r *report) ran(name string) {
	if r != nil {
		r.Ran = append(r.Ran, name)
	}
}

func (r *report) metric(name string, v float64) {
	if r != nil {
		r.Metrics[name] = v
	}
}

func (r *report) claim(name string, ok bool) {
	if r != nil {
		r.Claims[name] = ok
	}
}

func (r *report) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// throughputProof re-derives the paper's sustained-rate claims from
// counted cycles on instrumented simulators and records the evidence
// (claims plus full metric snapshots) into the report. It runs the
// three regimes the paper headlines:
//
//   - R-BMW sustains 1 push per cycle and a push-pop pair in 2 cycles
//     (Section 4.2.2);
//   - RPU-BMW takes a mandatory idle cycle after every pop, making a
//     push-pop pair 3 cycles (Section 5.2.3);
//   - PIFO enqueues and dequeues concurrently in 1 cycle (baseline).
func throughputProof(r *report) {
	const fill, pairs = 2000, 1000

	// R-BMW: consecutive pushes, then alternating pop/push pairs.
	rbReg := bmw.NewMetricsRegistry()
	rb := bmw.NewRBMWSim(2, 11)
	rb.Instrument(rbReg, "rbmw")
	c0 := rb.Cycle()
	for i := 0; i < fill; i++ {
		if _, err := rb.Tick(bmw.PushOp(uint64(i%997), 0)); err != nil {
			panic(err)
		}
	}
	pushCycles := rb.Cycle() - c0
	c0 = rb.Cycle()
	for i := 0; i < pairs; i++ {
		if _, err := rb.Tick(bmw.PopOp()); err != nil {
			panic(err)
		}
		if _, err := rb.Tick(bmw.PushOp(uint64(i%997), 0)); err != nil {
			panic(err)
		}
	}
	pairCycles := rb.Cycle() - c0
	r.metric("rbmw_fill_pushes_per_cycle", float64(fill)/float64(pushCycles))
	r.metric("rbmw_pair_cycles_per_pair", float64(pairCycles)/float64(pairs))
	r.claim("rbmw_sustains_1_push_per_cycle", pushCycles == fill)
	r.claim("rbmw_push_pop_pair_is_2_cycles", pairCycles == 2*pairs)
	rbSnap := rbReg.Snapshot()
	r.claim("rbmw_zero_stall_cycles_in_proof",
		rbSnap.Counter("rbmw_cycles_stall_total") == 0 &&
			rbSnap.Counter("rbmw_rejected_issues_total") == 0)
	r.Snapshots["rbmw"] = rbSnap

	// RPU-BMW: consecutive pushes, then pop / mandatory idle / push.
	rpReg := bmw.NewMetricsRegistry()
	rp := bmw.NewRPUBMWSim(4, 8)
	rp.Instrument(rpReg, "rpubmw")
	c0 = rp.Cycle()
	for i := 0; i < fill; i++ {
		if _, err := rp.Tick(bmw.PushOp(uint64(i%997), 0)); err != nil {
			panic(err)
		}
	}
	pushCycles = rp.Cycle() - c0
	c0 = rp.Cycle()
	for i := 0; i < pairs; i++ {
		if _, err := rp.Tick(bmw.PopOp()); err != nil {
			panic(err)
		}
		if _, err := rp.Tick(bmw.NopOp()); err != nil {
			panic(err)
		}
		if _, err := rp.Tick(bmw.PushOp(uint64(i%997), 0)); err != nil {
			panic(err)
		}
	}
	pairCycles = rp.Cycle() - c0
	r.metric("rpubmw_fill_pushes_per_cycle", float64(fill)/float64(pushCycles))
	r.metric("rpubmw_pair_cycles_per_pair", float64(pairCycles)/float64(pairs))
	r.claim("rpubmw_sustains_1_push_per_cycle", pushCycles == fill)
	r.claim("rpubmw_push_pop_pair_is_3_cycles", pairCycles == 3*pairs)
	rpSnap := rpReg.Snapshot()
	r.claim("rpubmw_mandatory_idle_after_every_pop",
		rpSnap.Counter("rpubmw_mandatory_idle_total") == rpSnap.Counter("rpubmw_pops_total"))
	r.claim("rpubmw_operation_hiding_exercised",
		rpSnap.Counter("rpubmw_sram_write_first_hits_total") > 0)
	r.Snapshots["rpubmw"] = rpSnap

	// PIFO baseline: concurrent enqueue+dequeue, 1 cycle per pair.
	pfReg := bmw.NewMetricsRegistry()
	pf := bmw.NewPIFOSim(4096)
	pf.Instrument(pfReg, "pifo")
	for i := 0; i < 64; i++ {
		pf.Tick(bmw.PushOp(uint64(i%997), 0))
	}
	c0 = pf.Cycle()
	for i := 0; i < pairs; i++ {
		if _, err := pf.TickPushPop(bmw.PushOp(uint64(i%997), 0)); err != nil {
			panic(err)
		}
	}
	pairCycles = pf.Cycle() - c0
	r.metric("pifo_pair_cycles_per_pair", float64(pairCycles)/float64(pairs))
	r.claim("pifo_push_pop_pair_is_1_cycle", pairCycles == uint64(pairs))
	r.Snapshots["pifo"] = pfReg.Snapshot()

	for name, ok := range r.Claims {
		if !ok {
			fmt.Printf("CLAIM FAILED: %s\n", name)
		}
	}
}
