// Command bmwtrace records and replays priority-queue operation
// traces. A trace is a JSON-lines file of push/pop operations; replay
// drives any scheduler in the module with it and reports dequeue-order
// accuracy against an exact reference — a practical way to compare the
// accurate BMW-Tree with the approximate schedulers on custom
// workloads.
//
// Usage:
//
//	bmwtrace -record -ops 50000 -pattern bursty -out trace.jsonl
//	bmwtrace -replay trace.jsonl -queue bmwtree
//	bmwtrace -replay trace.jsonl -queue sppifo
//
// Queues: bmwtree, pifo, pheap, pipeheap, sppifo, aifo, calendarq,
// gearbox.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	bmw "repro"
	"repro/internal/refpq"
)

// op is one trace record.
type op struct {
	Kind  string `json:"op"` // "push" | "pop"
	Value uint64 `json:"value,omitempty"`
	Meta  uint64 `json:"meta,omitempty"`
}

func main() {
	record := flag.Bool("record", false, "generate a trace")
	replay := flag.String("replay", "", "trace file to replay")
	out := flag.String("out", "trace.jsonl", "output file for -record")
	ops := flag.Int("ops", 50000, "operations to record")
	pattern := flag.String("pattern", "bursty", "workload: bursty | uniform | monotone")
	queue := flag.String("queue", "bmwtree", "scheduler for -replay")
	seed := flag.Int64("seed", 1, "record seed")
	metricsOut := flag.String("metrics-out", "", "write replay metrics snapshot JSON to this file")
	flag.Parse()

	switch {
	case *record:
		if err := doRecord(*out, *ops, *pattern, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *replay != "":
		if _, err := doReplay(*replay, *queue, *metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// doRecord writes a trace whose pushes follow the chosen rank pattern
// and whose pops keep the queue between empty and ~512 elements. The
// trace is fully determined by (n, pattern, seed): no wall-clock
// seeding, so re-recording with the same flags reproduces it exactly.
func doRecord(path string, n int, pattern string, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	mono := uint64(0)
	next := func() uint64 {
		switch pattern {
		case "bursty":
			return uint64(rng.Intn(4))*1000 + uint64(rng.Intn(100))
		case "monotone":
			mono += uint64(rng.Intn(8))
			return mono + uint64(rng.Intn(16))
		default: // uniform
			return uint64(rng.Intn(65536))
		}
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	defer w.Flush()
	enc := json.NewEncoder(w)

	inFlight := 0
	for i := 0; i < n; i++ {
		if inFlight == 0 || (rng.Intn(2) == 0 && inFlight < 512) {
			if err := enc.Encode(op{Kind: "push", Value: next(), Meta: uint64(i)}); err != nil {
				return err
			}
			inFlight++
		} else {
			if err := enc.Encode(op{Kind: "pop"}); err != nil {
				return err
			}
			inFlight--
		}
	}
	fmt.Printf("recorded %d ops (%s pattern) to %s\n", n, pattern, path)
	return nil
}

func newQueue(name string) (bmw.PriorityQueue, error) {
	switch name {
	case "bmwtree":
		return bmw.NewBMWTree(2, 12), nil
	case "pifo":
		return bmw.NewPIFO(8190), nil
	case "pheap":
		return bmw.NewPHeap(13), nil
	case "pipeheap":
		return bmw.NewPipelinedHeap(8191), nil
	case "sppifo":
		return bmw.NewSPPIFO(8, 8190), nil
	case "aifo":
		return bmw.NewAIFO(8190, 128, 0.1), nil
	case "calendarq":
		return bmw.NewCalendarQueue(64, 64, 8190), nil
	case "gearbox":
		return bmw.NewGearbox(3, 16, 16, 8190), nil
	default:
		return nil, fmt.Errorf("unknown queue %q", name)
	}
}

// replayCounts is one replay's tally: accepted pushes, pops, pops that
// returned more than the reference minimum, by how much in total (the
// sum of popped rank − reference minimum), and refused pushes.
type replayCounts struct {
	pushes, pops, nonMin, displaced, drops uint64
}

// meanDisplacement is how far above the reference minimum a non-minimal
// pop ranked, on average; 0 when every pop took the minimum.
func (n replayCounts) meanDisplacement() float64 {
	if n.nonMin == 0 {
		return 0
	}
	return float64(n.displaced) / float64(n.nonMin)
}

// doReplay drives the scheduler with the trace and scores accuracy.
// With metricsOut, the queue is wrapped in interface-level probes and
// the final snapshot (push/pop/rejection counts, occupancy highwater,
// accuracy gauges) is dumped as JSON.
func doReplay(path, queueName, metricsOut string) (replayCounts, error) {
	var n replayCounts
	q, err := newQueue(queueName)
	if err != nil {
		return n, err
	}
	var reg *bmw.MetricsRegistry
	if metricsOut != "" {
		reg = bmw.NewMetricsRegistry()
		q = bmw.NewInstrumentedQueue(reg, queueName, q)
	}
	f, err := os.Open(path)
	if err != nil {
		return n, err
	}
	defer f.Close()

	ref := refpq.New() // exact reference mirror of the queue's contents
	t0 := time.Now()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var o op
		if err := json.Unmarshal(sc.Bytes(), &o); err != nil {
			return n, fmt.Errorf("bad trace line: %w", err)
		}
		switch o.Kind {
		case "push":
			if err := q.Push(bmw.Element{Value: o.Value, Meta: o.Meta}); err != nil {
				n.drops++
				continue
			}
			ref.Push(refpq.Entry{Value: o.Value, Meta: o.Meta})
			n.pushes++
		case "pop":
			if ref.Len() == 0 {
				continue
			}
			min := ref.MinValue()
			e, err := q.Pop()
			if err != nil {
				continue
			}
			n.pops++
			if e.Value > min {
				n.nonMin++
				n.displaced += e.Value - min
			}
			if !ref.RemoveExact(refpq.Entry{Value: e.Value, Meta: e.Meta}) {
				return n, fmt.Errorf("scheduler popped an element it was never given: %+v", e)
			}
		default:
			return n, fmt.Errorf("bad trace op %q", o.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	elapsed := time.Since(t0)
	fmt.Printf("queue %s: %d pushes, %d pops, %d drops in %v (%.1f Mops/s)\n",
		queueName, n.pushes, n.pops, n.drops, elapsed.Round(time.Millisecond),
		float64(n.pushes+n.pops)/elapsed.Seconds()/1e6)
	fmt.Printf("accuracy: %d non-minimal pops (%.2f%%), mean displacement %.1f above the minimum\n",
		n.nonMin, pct(n.nonMin, n.pops), n.meanDisplacement())
	if n.nonMin == 0 {
		fmt.Println("exact PIFO behaviour: every pop returned the current minimum")
	}
	if metricsOut != "" {
		reg.Gauge(queueName + "_non_minimal_pop_pct").Set(pct(n.nonMin, n.pops))
		b, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
		if err != nil {
			return n, err
		}
		if err := os.WriteFile(metricsOut, append(b, '\n'), 0o644); err != nil {
			return n, err
		}
		fmt.Printf("replay metrics written to %s\n", metricsOut)
	}
	return n, nil
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
