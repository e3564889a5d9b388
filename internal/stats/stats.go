// Package stats collects the flow-completion-time statistics that
// regenerate Figure 10 of the paper: average FCT normalised by the
// ideal (unloaded) FCT, bucketed by flow size.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// FlowRecord is one finished flow.
type FlowRecord struct {
	Bytes      uint64
	FCTNs      uint64
	IdealFCTNs uint64
}

// Normalized returns FCT / ideal FCT (the slowdown).
func (r FlowRecord) Normalized() float64 {
	if r.IdealFCTNs == 0 {
		return math.NaN()
	}
	return float64(r.FCTNs) / float64(r.IdealFCTNs)
}

// FCT accumulates flow records.
type FCT struct {
	records []FlowRecord
}

// Add records a finished flow.
func (f *FCT) Add(r FlowRecord) { f.records = append(f.records, r) }

// Count returns the number of recorded flows.
func (f *FCT) Count() int { return len(f.records) }

// Bin is one flow-size bucket of Figure 10.
type Bin struct {
	LoBytes, HiBytes uint64 // [Lo, Hi)
	Flows            int
	MeanNormFCT      float64
	P99NormFCT       float64
}

// Label formats the bin bounds the way Figure 10's x-axis does.
func (b Bin) Label() string {
	human := func(v uint64) string {
		switch {
		case v >= 1<<20:
			return fmt.Sprintf("%gM", float64(v)/(1<<20))
		case v >= 1<<10:
			return fmt.Sprintf("%gK", float64(v)/(1<<10))
		default:
			return fmt.Sprintf("%d", v)
		}
	}
	if b.HiBytes == math.MaxUint64 {
		return ">" + human(b.LoBytes)
	}
	return human(b.LoBytes) + "-" + human(b.HiBytes)
}

// DefaultBins are the flow-size intervals used for the Figure 10
// reproduction, spanning the web-search distribution's range.
func DefaultBins() []uint64 {
	return []uint64{0, 10 << 10, 30 << 10, 100 << 10, 300 << 10, 1 << 20, 3 << 20, 10 << 20, math.MaxUint64}
}

// Binned buckets the records by flow size. edges must be ascending;
// bin i covers [edges[i], edges[i+1]).
func (f *FCT) Binned(edges []uint64) []Bin {
	bins := make([]Bin, len(edges)-1)
	norm := make([][]float64, len(bins))
	for i := range bins {
		bins[i].LoBytes = edges[i]
		bins[i].HiBytes = edges[i+1]
	}
	for _, r := range f.records {
		i := sort.Search(len(edges), func(i int) bool { return edges[i] > r.Bytes }) - 1
		if i < 0 || i >= len(bins) {
			continue
		}
		// An unfinished or zero-ideal record yields a NaN (or, from a
		// hand-built record, an Inf) slowdown; one such value would
		// poison the bin's mean and p99, so drop it here.
		n := r.Normalized()
		if math.IsNaN(n) || math.IsInf(n, 0) {
			continue
		}
		bins[i].Flows++
		norm[i] = append(norm[i], n)
	}
	for i := range bins {
		if len(norm[i]) == 0 {
			continue
		}
		sort.Float64s(norm[i])
		sum := 0.0
		for _, v := range norm[i] {
			sum += v
		}
		bins[i].MeanNormFCT = sum / float64(len(norm[i]))
		bins[i].P99NormFCT = percentileSorted(norm[i], 0.99)
	}
	return bins
}

// OverallMeanNorm returns the mean normalised FCT across all flows
// with a finite slowdown; NaN if there are none.
func (f *FCT) OverallMeanNorm() float64 {
	sum := 0.0
	n := 0
	for _, r := range f.records {
		v := r.Normalized()
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// percentileSorted returns the p-quantile of an ascending slice.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	idx := p * float64(len(sorted)-1)
	lo := int(idx)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := idx - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Summary computes mean / median / p99 over a data set.
type Summary struct {
	N                 int
	Mean, Median, P99 float64
	Min, Max          float64
}

// Summarize builds a Summary.
func Summarize(vals []float64) Summary {
	if len(vals) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return Summary{
		N:      len(s),
		Mean:   sum / float64(len(s)),
		Median: percentileSorted(s, 0.5),
		P99:    percentileSorted(s, 0.99),
		Min:    s[0],
		Max:    s[len(s)-1],
	}
}

// Table renders bins as an aligned text table (one Figure 10 series).
func Table(name string, bins []Bin) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %8s %14s %14s\n", name, "flows", "mean norm FCT", "p99 norm FCT")
	for _, b := range bins {
		if b.Flows == 0 {
			continue
		}
		fmt.Fprintf(&sb, "%-12s %8d %14.3f %14.3f\n", b.Label(), b.Flows, b.MeanNormFCT, b.P99NormFCT)
	}
	return sb.String()
}

// InversionMeter measures how accurately a scheduler approximates PIFO
// dequeue order. Feed it the rank of every dequeued packet in service
// order: an inversion is a packet whose rank is smaller than the
// maximum rank already served (it should have left earlier). The
// BMW-Tree paper's motivation for an accurate PIFO is exactly that
// approximate schemes (SP-PIFO, AIFO, calendar queues) admit such
// inversions, weakening scheduling guarantees.
type InversionMeter struct {
	maxSeen   uint64
	have      bool
	total     uint64
	inverted  uint64
	magnitude uint64 // sum of (maxSeen - rank) over inverted packets
}

// Observe records one dequeued rank.
func (m *InversionMeter) Observe(rank uint64) {
	m.total++
	if m.have && rank < m.maxSeen {
		m.inverted++
		m.magnitude += m.maxSeen - rank
	}
	if !m.have || rank > m.maxSeen {
		m.maxSeen = rank
		m.have = true
	}
}

// Total returns the number of observed dequeues.
func (m *InversionMeter) Total() uint64 { return m.total }

// Inversions returns the number of out-of-order dequeues.
func (m *InversionMeter) Inversions() uint64 { return m.inverted }

// Rate returns the fraction of dequeues that were inverted.
func (m *InversionMeter) Rate() float64 {
	if m.total == 0 {
		return 0
	}
	return float64(m.inverted) / float64(m.total)
}

// MeanMagnitude returns the average rank displacement of inverted
// packets (0 if none).
func (m *InversionMeter) MeanMagnitude() float64 {
	if m.inverted == 0 {
		return 0
	}
	return float64(m.magnitude) / float64(m.inverted)
}
