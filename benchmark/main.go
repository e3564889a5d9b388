// The serving ladder: the repository's benchmark. It assembles the
// system in one process the way cmd/bmwd does on its serving path,
// drives it from closed-loop callers over loopback, and measures every
// layer from outside, through its public functions only.
//
// One workload, as the benchmark driver runs it (see BENCHMARK.json):
//
//	bash benchmark/run.sh --workload serve_sat_b64 --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh --workload serve_sat_b64 --seed 1 --seconds 12 --trace 1 --trace-out t.json
//
// Every workload, untraced then traced, each in a process of its own:
//
//	bash benchmark/run.sh [--out results.json]
//
// Steadiness self-check over N sets of untraced runs:
//
//	bash benchmark/run.sh --sets 2
//
// README.md in this directory has the metric and workload tables.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/buildinfo"
)

// maxRSSMiB is the guard rail: a workload whose resident set passes it
// is not reported.
const maxRSSMiB = 6 * 1024

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
		seed     = flag.Uint64("seed", 1, "tape seed: the same seed gives the same ops")
		seconds  = flag.Float64("seconds", 0, "measured time per run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run rung by rung, per-layer metrics")
		traceOut = flag.String("trace-out", "", "with --trace 1: write the benchmark's spans here as Chrome-trace JSON")
		sets     = flag.Int("sets", 0, "run this many sets of untraced runs (seeds seed, seed+1, ...) and check their spread against the bounds")
		out      = flag.String("out", "", "all-workloads mode: write the results JSON here")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if runtime.GOMAXPROCS(0) < 2 {
		fatalf("GOMAXPROCS is %d: the load is sized for at least 2 processors, refusing to report", runtime.GOMAXPROCS(0))
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatalf("%v", err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	d := time.Duration(*seconds * float64(time.Second))

	switch {
	case *sets > 0:
		os.Exit(runSets(spec, *name, *seed, *seconds, *sets))
	case *name == "":
		os.Exit(runAll(*seed, *seconds, *out))
	}

	w := findWorkload(*name)
	if w == nil {
		fatalf("unknown workload %q", *name)
	}
	var res *result
	if *trace == 0 {
		res, err = runEndToEnd(w, *seed, d)
	} else {
		res, err = runLadder(w, *seed, d, *traceOut)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
	}
	if res == nil {
		os.Exit(1)
	}
	if rss, rerr := peakRSSMiB(); rerr != nil || rss > maxRSSMiB {
		fatalf("%s: peak RSS %.0f MiB passes the %d MiB guard rail (%v)", w.name, rss, maxRSSMiB, rerr)
	}
	printResult(w.name, res)
	line, merr := json.Marshal(res)
	if merr != nil {
		fatalf("%v", merr)
	}
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// printResult prints one line per metric: workload metric value unit.
func printResult(workload string, r *result) {
	for _, metrics := range []map[string]mvalue{r.Metrics, r.Unbounded} {
		names := make([]string, 0, len(metrics))
		for n := range metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%s %s %s %s\n", workload, n, strconv.FormatFloat(metrics[n].Value, 'g', -1, 64), metrics[n].Unit)
		}
	}
	fmt.Printf("%s attempted %d failed %d", workload, r.Attempted, r.Failed)
	if r.Rounds > 0 {
		fmt.Printf(" batch_samples %d rounds %d", r.Samples, r.Rounds)
	}
	fmt.Println()
}

// benchSpec is the part of BENCHMARK.json the runner reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the root of the checkout: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// child runs one workload in a process of its own (fresh heap, fresh
// VmHWM). It returns what the child printed before its last line — one
// line per metric, bounded or not, and the counts — and the result
// object parsed off the last line.
func child(name string, seed uint64, seconds float64, trace int) (printed []byte, r *result, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	stdout = bytes.TrimSpace(stdout)
	cut := bytes.LastIndexByte(stdout, '\n') + 1
	r = &result{}
	if jerr := json.Unmarshal(stdout[cut:], r); jerr != nil {
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		return nil, nil, fmt.Errorf("%s: last line is not a result: %w", name, jerr)
	}
	if err != nil || !r.Correct {
		return stdout[:cut], r, fmt.Errorf("%s: failed its output checks (%v)", name, err)
	}
	return stdout[:cut], r, nil
}

// runAll runs every workload untraced and traced, passes on what each
// child printed (every metric, the unbounded ones too, and the sample
// and round counts), and writes the same metrics to the results file.
// It returns the exit code.
func runAll(seed uint64, seconds float64, out string) int {
	type entry struct {
		Workload string            `json:"workload"`
		Metrics  map[string]mvalue `json:"metrics"`
	}
	doc := struct {
		NProc      int     `json:"nproc"`
		GoMaxProcs int     `json:"gomaxprocs"`
		GoVersion  string  `json:"go_version"`
		Commit     string  `json:"commit"`
		Seed       uint64  `json:"seed"`
		Seconds    float64 `json:"seconds"`
		Results    []entry `json:"results"`
	}{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), buildinfo.Commit(), seed, seconds, nil}
	fmt.Printf("# nproc %d GOMAXPROCS %d %s commit %s seed %d\n", doc.NProc, doc.GoMaxProcs, doc.GoVersion, doc.Commit, seed)
	code := 0
	for i := range workloads {
		w := &workloads[i]
		e := entry{Workload: w.name, Metrics: map[string]mvalue{}}
		for trace := 0; trace <= 1; trace++ {
			printed, _, err := child(w.name, seed, seconds, trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				code = 1
			}
			os.Stdout.Write(printed)
			// A metric line is "workload name value unit".
			for _, line := range bytes.Split(printed, []byte("\n")) {
				f := bytes.Fields(line)
				if len(f) != 4 {
					continue
				}
				if v, err := strconv.ParseFloat(string(f[2]), 64); err == nil {
					e.Metrics[string(f[1])] = mvalue{Value: v, Unit: string(f[3])}
				}
			}
		}
		doc.Results = append(doc.Results, e)
	}
	if out != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}

// runSets runs n sets of untraced runs and prints, per workload and
// end-to-end metric, the sets' median and spread next to the metric's
// bound. With two sets the spread is their relative difference; with
// four or more it is the interquartile range over the median, as the
// benchmark driver computes it. It returns 1 if any spread passes its
// bound (setup_s is printed but, as in the driver, not judged on spread).
func runSets(spec *benchSpec, only string, seed uint64, seconds float64, n int) int {
	code := 0
	fmt.Printf("%-22s %-14s %14s %8s %6s  %s\n", "workload", "metric", "median", "spread", "bound", "")
	for i := range workloads {
		w := &workloads[i]
		if only != "" && only != w.name {
			continue
		}
		vals := map[string][]float64{}
		for s := 0; s < n; s++ {
			_, r, err := child(w.name, seed+uint64(s), seconds, 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
			for name, v := range r.Metrics {
				vals[name] = append(vals[name], v.Value)
			}
		}
		for _, m := range spec.EndToEnd {
			v := vals[m.Name]
			if len(v) != n {
				fmt.Fprintf(os.Stderr, "benchmark: %s did not report %s\n", w.name, m.Name)
				return 1
			}
			med := median(v)
			var spread float64
			if n >= 4 {
				q1, q2, q3 := quartiles(v)
				med, spread = q2, (q3-q1)/q2
			} else {
				lo, hi := v[0], v[0]
				for _, x := range v {
					lo, hi = min(lo, x), max(hi, x)
				}
				spread = (hi - lo) / med
			}
			verdict := "ok"
			if spread > m.Bound && m.Name != "setup_s" {
				verdict, code = "BREACH", 1
			} else if spread > m.Bound/3 {
				verdict = "above a third of the bound"
			}
			fmt.Printf("%-22s %-14s %14.6g %7.2f%% %5.0f%%  %-26s", w.name, m.Name, med, spread*100, m.Bound*100, verdict)
			for _, x := range v {
				fmt.Printf(" %.5g", x)
			}
			fmt.Println()
		}
	}
	return code
}
