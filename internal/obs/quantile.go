package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// QuantileHistogram is an HDR-style log-linear histogram of uint64
// observations (sojourn cycles, packet latencies in ns) built for
// quantile estimation without storing raw samples. Values are bucketed
// by a power-of-two major bucket split into 2^qhSubBits linear
// sub-buckets, so every estimate carries at most ~6.25% relative error
// (one log-bucket). Values below 2^qhSubBits are recorded exactly.
//
// Like the other obs instruments it is lock-free (plain atomics on the
// update path) and every method is a no-op on a nil receiver, so an
// uninstrumented pipeline pays only the enclosing nil branch.
type QuantileHistogram struct {
	buckets []atomic.Uint64 // qhBucketCount fixed log-linear buckets
	count   atomic.Uint64
	sum     atomic.Uint64
	min     atomic.Uint64 // initialised to MaxUint64
	max     atomic.Uint64
}

const (
	// qhSubBits is the number of linear sub-bucket bits per power-of-two
	// major bucket: 16 sub-buckets, 1/16 = 6.25% max relative error.
	qhSubBits  = 4
	qhSubCount = 1 << qhSubBits
	// qhBucketCount covers the full uint64 range: values 0..15 map to
	// buckets 0..15 exactly; every further power of two contributes 16
	// sub-buckets, the last major bucket holding the top bit 63.
	qhBucketCount = (64 - qhSubBits + 1) << qhSubBits
)

// NewQuantileHistogram returns an empty histogram ready for use.
func NewQuantileHistogram() *QuantileHistogram {
	q := &QuantileHistogram{buckets: make([]atomic.Uint64, qhBucketCount)}
	q.min.Store(math.MaxUint64)
	return q
}

// qhBucketIndex maps a value to its log-linear bucket.
func qhBucketIndex(v uint64) int {
	if v < qhSubCount {
		return int(v)
	}
	k := bits.Len64(v) - 1 // position of the leading bit, >= qhSubBits
	sub := (v >> (uint(k) - qhSubBits)) - qhSubCount
	return ((k - qhSubBits + 1) << qhSubBits) + int(sub)
}

// qhBucketLow returns the smallest value mapping to bucket i.
func qhBucketLow(i int) uint64 {
	if i < qhSubCount {
		return uint64(i)
	}
	e := uint(i >> qhSubBits) // >= 1
	sub := uint64(i & (qhSubCount - 1))
	return (qhSubCount + sub) << (e - 1)
}

// qhBucketHigh returns the largest value mapping to bucket i.
func qhBucketHigh(i int) uint64 {
	if i < qhSubCount {
		return uint64(i)
	}
	if i+1 >= qhBucketCount {
		return math.MaxUint64
	}
	return qhBucketLow(i+1) - 1
}

// Observe records one value.
func (q *QuantileHistogram) Observe(v uint64) {
	if q == nil {
		return
	}
	q.buckets[qhBucketIndex(v)].Add(1)
	q.count.Add(1)
	q.sum.Add(v)
	for {
		old := q.min.Load()
		if old <= v || q.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := q.max.Load()
		if old >= v || q.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// ObserveN records a value n times with one update per field — the
// bulk form the runtime-telemetry collector uses to replay histogram
// deltas without a per-count loop.
func (q *QuantileHistogram) ObserveN(v, n uint64) {
	if q == nil || n == 0 {
		return
	}
	q.buckets[qhBucketIndex(v)].Add(n)
	q.count.Add(n)
	q.sum.Add(v * n)
	for {
		old := q.min.Load()
		if old <= v || q.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := q.max.Load()
		if old >= v || q.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// Count returns the number of observations (0 on nil).
func (q *QuantileHistogram) Count() uint64 {
	if q == nil {
		return 0
	}
	return q.count.Load()
}

// QuantileBucket is one occupied log-linear bucket in a snapshot.
// Low/High are the inclusive value range the bucket covers.
type QuantileBucket struct {
	Index int    `json:"index"`
	Low   uint64 `json:"low"`
	High  uint64 `json:"high"`
	Count uint64 `json:"count"`
}

// QuantileSnapshot is a QuantileHistogram's state at snapshot time:
// totals, extremes, the standard latency quantiles precomputed, and the
// occupied buckets (sparse) so windowed deltas and custom quantiles can
// be derived later.
type QuantileSnapshot struct {
	Count   uint64           `json:"count"`
	Sum     uint64           `json:"sum"`
	Min     uint64           `json:"min"`
	Max     uint64           `json:"max"`
	P50     uint64           `json:"p50"`
	P90     uint64           `json:"p90"`
	P99     uint64           `json:"p99"`
	P999    uint64           `json:"p999"`
	Buckets []QuantileBucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram. A nil or empty histogram yields a
// zero snapshot (all quantiles 0 — never NaN).
//
// Count is the sum of the buckets read in the same pass, not the count
// word: under concurrent writers the two disagree by whatever landed
// mid-walk. Every bucket only grows, so a Sub window of two snapshots is
// then exactly its buckets' sum.
func (q *QuantileHistogram) Snapshot() QuantileSnapshot {
	var s QuantileSnapshot
	if q == nil {
		return s
	}
	s.Sum = q.sum.Load()
	for i := range q.buckets {
		if n := q.buckets[i].Load(); n != 0 {
			s.Buckets = append(s.Buckets, QuantileBucket{
				Index: i, Low: qhBucketLow(i), High: qhBucketHigh(i), Count: n,
			})
			s.Count += n
		}
	}
	if s.Count == 0 {
		return s
	}
	s.Min = q.min.Load()
	s.Max = q.max.Load()
	s.fillQuantiles()
	return s
}

// fillQuantiles recomputes P50/P90/P99/P999 from Buckets.
func (s *QuantileSnapshot) fillQuantiles() {
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
	s.P999 = s.Quantile(0.999)
}

// Quantile estimates the p-quantile (0 < p <= 1) from the bucketed
// counts: the representative value of the bucket holding the ceil(p*N)th
// smallest observation, clamped to the observed [Min, Max] range.
// Returns 0 on an empty snapshot.
func (s QuantileSnapshot) Quantile(p float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(p * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	if target > s.Count {
		target = s.Count
	}
	cum := uint64(0)
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= target {
			est := b.Low + (b.High-b.Low)/2 // bucket midpoint
			if est < s.Min {
				est = s.Min
			}
			if s.Max != 0 && est > s.Max {
				est = s.Max
			}
			return est
		}
	}
	return s.Max
}

// Mean returns the average observation (0 when empty — never NaN).
func (s QuantileSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Sub returns the windowed snapshot covering the observations recorded
// between prev and s (prev must be an earlier snapshot of the same
// histogram). Quantiles are recomputed over the window; Min/Max are
// bounded by the window's occupied buckets since exact extremes of a
// window are not tracked.
func (s QuantileSnapshot) Sub(prev QuantileSnapshot) QuantileSnapshot {
	var w QuantileSnapshot
	if s.Count < prev.Count || s.Sum < prev.Sum {
		// Not actually an earlier snapshot of the same histogram;
		// return the later one unchanged rather than underflowing.
		return s
	}
	w.Count = s.Count - prev.Count
	w.Sum = s.Sum - prev.Sum
	prevAt := make(map[int]uint64, len(prev.Buckets))
	for _, b := range prev.Buckets {
		prevAt[b.Index] = b.Count
	}
	for _, b := range s.Buckets {
		if d := b.Count - prevAt[b.Index]; d != 0 {
			w.Buckets = append(w.Buckets, QuantileBucket{
				Index: b.Index, Low: b.Low, High: b.High, Count: d,
			})
		}
	}
	if w.Count == 0 || len(w.Buckets) == 0 {
		return w
	}
	w.Min = w.Buckets[0].Low
	w.Max = w.Buckets[len(w.Buckets)-1].High
	w.fillQuantiles()
	return w
}
