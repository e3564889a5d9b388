package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestQuantileBucketIndexRoundTrip(t *testing.T) {
	// Every probe value must land in a bucket whose [Low, High] range
	// contains it, and bucket indexes must be monotone in the value.
	probes := []uint64{0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 100, 1023, 1024,
		1 << 20, (1 << 20) + 12345, 1 << 40, math.MaxUint64 / 2, math.MaxUint64}
	for _, v := range probes {
		i := qhBucketIndex(v)
		if i < 0 || i >= qhBucketCount {
			t.Fatalf("value %d: bucket %d out of range", v, i)
		}
		if lo, hi := qhBucketLow(i), qhBucketHigh(i); v < lo || v > hi {
			t.Fatalf("value %d: bucket %d covers [%d,%d]", v, i, lo, hi)
		}
	}
	prev := -1
	for _, v := range probes {
		if i := qhBucketIndex(v); i < prev {
			t.Fatalf("bucket index not monotone at value %d", v)
		} else {
			prev = i
		}
	}
	// Values below 2^qhSubBits are recorded exactly.
	for v := uint64(0); v < qhSubCount; v++ {
		if i := qhBucketIndex(v); uint64(i) != v || qhBucketLow(i) != v || qhBucketHigh(i) != v {
			t.Fatalf("small value %d not exact (bucket %d)", v, i)
		}
	}
}

func TestQuantileHistogramEmptyAndNil(t *testing.T) {
	var q *QuantileHistogram
	q.Observe(42) // no-op
	s := q.Snapshot()
	if s.Count != 0 || s.P50 != 0 || s.P999 != 0 {
		t.Fatalf("nil snapshot not zero: %+v", s)
	}
	if m := s.Mean(); m != 0 || math.IsNaN(m) {
		t.Fatalf("empty Mean = %v, want 0", m)
	}
	if v := s.Quantile(0.99); v != 0 {
		t.Fatalf("empty Quantile = %d, want 0", v)
	}
	s2 := NewQuantileHistogram().Snapshot()
	if s2.Count != 0 || s2.Min != 0 || len(s2.Buckets) != 0 {
		t.Fatalf("fresh snapshot not zero: %+v", s2)
	}
}

func TestQuantileHistogramBasics(t *testing.T) {
	q := NewQuantileHistogram()
	for v := uint64(1); v <= 100; v++ {
		q.Observe(v)
	}
	s := q.Snapshot()
	if s.Count != 100 || s.Sum != 5050 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("totals wrong: %+v", s)
	}
	if s.Mean() != 50.5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	// p50 of 1..100 is 50; one log-bucket (6.25%) of slack.
	if s.P50 < 47 || s.P50 > 54 {
		t.Fatalf("p50 = %d, want ~50", s.P50)
	}
	if s.P999 > 100 || s.P999 < 94 {
		t.Fatalf("p999 = %d, want ~100 (clamped to max)", s.P999)
	}
}

// exactQuantile computes the reference quantile over sorted samples
// with the same nearest-rank definition the histogram uses.
func exactQuantile(sorted []uint64, p float64) uint64 {
	n := len(sorted)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// TestQuantileHistogramProperty checks the headline accuracy contract:
// for random sample sets, every estimated quantile lies within one
// log-bucket of the exact reference quantile — i.e. the estimate's
// bucket is the exact value's bucket or an adjacent occupied one, which
// bounds the relative error by the sub-bucket width.
func TestQuantileHistogramProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dists := []struct {
		name string
		gen  func() uint64
	}{
		{"uniform", func() uint64 { return uint64(rng.Intn(1_000_000)) }},
		{"exp", func() uint64 { return uint64(rng.ExpFloat64() * 5000) }},
		{"heavy_tail", func() uint64 {
			v := uint64(rng.Intn(100))
			if rng.Intn(100) == 0 {
				v = uint64(rng.Intn(1 << 30))
			}
			return v
		}},
		{"constant", func() uint64 { return 77 }},
		{"small", func() uint64 { return uint64(rng.Intn(16)) }},
	}
	quantiles := []float64{0.5, 0.9, 0.99, 0.999}
	for _, d := range dists {
		for trial := 0; trial < 4; trial++ {
			q := NewQuantileHistogram()
			samples := make([]uint64, 5000)
			for i := range samples {
				samples[i] = d.gen()
				q.Observe(samples[i])
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			s := q.Snapshot()
			for _, p := range quantiles {
				exact := exactQuantile(samples, p)
				est := s.Quantile(p)
				// Within one log-bucket: the estimate's bucket index is
				// at most one away from the exact value's bucket.
				bi, be := qhBucketIndex(exact), qhBucketIndex(est)
				if be < bi-1 || be > bi+1 {
					t.Errorf("%s trial %d p%.3f: est %d (bucket %d) vs exact %d (bucket %d)",
						d.name, trial, p, est, be, exact, bi)
				}
				// And never outside the observed range.
				if est < s.Min || est > s.Max {
					t.Errorf("%s p%.3f: est %d outside [%d,%d]", d.name, p, est, s.Min, s.Max)
				}
			}
		}
	}
}

func TestQuantileSnapshotSubWindow(t *testing.T) {
	q := NewQuantileHistogram()
	for i := 0; i < 1000; i++ {
		q.Observe(10)
	}
	first := q.Snapshot()
	for i := 0; i < 1000; i++ {
		q.Observe(1000)
	}
	second := q.Snapshot()
	w := second.Sub(first)
	if w.Count != 1000 || w.Sum != 1000*1000 {
		t.Fatalf("window totals: %+v", w)
	}
	// The window contains only the value 1000; p50 must be in its bucket.
	bi := qhBucketIndex(1000)
	if got := qhBucketIndex(w.P50); got != bi {
		t.Fatalf("window p50 = %d (bucket %d), want bucket %d", w.P50, got, bi)
	}
	// Sub with a mismatched (later) snapshot degrades gracefully.
	if bad := first.Sub(second); bad.Count != first.Count {
		t.Fatalf("reversed Sub should return the receiver, got %+v", bad)
	}
	// Empty window.
	if w0 := second.Sub(second); w0.Count != 0 || len(w0.Buckets) != 0 {
		t.Fatalf("self Sub not empty: %+v", w0)
	}
}

func TestRegistryQuantileHistogram(t *testing.T) {
	r := NewRegistry()
	q := r.QuantileHistogram("sojourn_cycles")
	if q == nil {
		t.Fatal("nil quantile histogram from live registry")
	}
	if r.QuantileHistogram("sojourn_cycles") != q {
		t.Fatal("re-registration returned a different instrument")
	}
	for i := uint64(1); i <= 64; i++ {
		q.Observe(i)
	}
	s := r.Snapshot()
	qs, ok := s.Quantiles["sojourn_cycles"]
	if !ok || qs.Count != 64 {
		t.Fatalf("snapshot missing quantiles: %+v", s.Quantiles)
	}
	if s.Quantile("sojourn_cycles").Count != 64 {
		t.Fatal("Snapshot.Quantile accessor")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash should panic")
		}
	}()
	r.Counter("sojourn_cycles")
}

func TestQuantileHistogramConcurrent(t *testing.T) {
	q := NewQuantileHistogram()
	done := make(chan struct{})
	go func() {
		for i := uint64(0); i < 10000; i++ {
			q.Observe(i % 997)
		}
		close(done)
	}()
	for i := 0; i < 100; i++ {
		_ = q.Snapshot()
	}
	<-done
	if got := q.Snapshot().Count; got != 10000 {
		t.Fatalf("count = %d", got)
	}
}

// TestQuantileHistogramConcurrentWindowedSub takes windowed Sub deltas
// while writers observe concurrently: every window must be internally
// consistent (non-negative deltas, bucket counts summing to Count, a
// quantile inside the window's value range) even though the snapshots
// race with the atomic update path.
func TestQuantileHistogramConcurrentWindowedSub(t *testing.T) {
	q := NewQuantileHistogram()
	const writers, perWriter = 4, 50_000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				q.Observe(100 + uint64(rng.Intn(900))) // values in [100, 1000)
			}
		}(w)
	}
	go func() { wg.Wait(); close(stop) }()

	prev := q.Snapshot()
	windows := 0
	for done := false; !done; {
		select {
		case <-stop:
			done = true
		default:
		}
		cur := q.Snapshot()
		w := cur.Sub(prev)
		if w.Count == 0 {
			continue
		}
		windows++
		var bucketSum uint64
		for _, b := range w.Buckets {
			bucketSum += b.Count
		}
		// A snapshot's Count is its own buckets' sum, so a window's is too,
		// however the writers raced the two snapshots.
		if bucketSum != w.Count {
			t.Fatalf("window buckets sum %d vs count %d", bucketSum, w.Count)
		}
		if p := w.Quantile(0.5); p != 0 && (p < 90 || p > 1100) {
			t.Fatalf("window p50 = %d outside the observed value range", p)
		}
		prev = cur
	}
	if windows == 0 {
		t.Fatal("no non-empty windows observed")
	}
	// The final full-history window equals the total written.
	total := q.Snapshot()
	if total.Count != writers*perWriter {
		t.Fatalf("final count = %d, want %d", total.Count, writers*perWriter)
	}
}
