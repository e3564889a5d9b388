package engine

import "sync"

// entry is one queued request: the operation, the batch it belongs to,
// and its slot in the batch's result array.
type entry struct {
	op  Op
	b   *batch
	idx int
}

// ring is the bounded MPSC request ring in front of one shard — the
// contended path: a submitter comes here only when it found the shard's
// execution lock held (engine.go, SubmitTraced). Many submitters append
// batches of entries under a single lock acquisition; the shard's drain
// goroutine takes up to its batch size the same way and executes them
// under the execution lock, so the per-operation synchronization cost
// is one mutex round-trip divided by the batch size on each side.
//
// The ring never blocks a submitter: enqueue accepts as many entries as
// fit and reports how many, leaving backpressure policy (typed
// ErrBackpressure) to the engine. The consumer blocks on a condition
// variable only when the ring is empty.
type ring struct {
	mu       sync.Mutex
	nonEmpty *sync.Cond
	buf      []entry
	head     int // index of the oldest entry
	count    int
	closed   bool
}

func newRing(size int) *ring {
	r := &ring{buf: make([]entry, size)}
	r.nonEmpty = sync.NewCond(&r.mu)
	return r
}

// enqueue appends as many of es as fit and returns the number accepted,
// or -1 if the ring is closed. One lock acquisition and at most one
// wakeup per call, regardless of batch size.
func (r *ring) enqueue(es []entry) int {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return -1
	}
	n := len(r.buf) - r.count
	if n > len(es) {
		n = len(es)
	}
	for i := 0; i < n; i++ {
		r.buf[(r.head+r.count+i)%len(r.buf)] = es[i]
	}
	r.count += n
	if n > 0 {
		r.nonEmpty.Signal()
	}
	r.mu.Unlock()
	return n
}

// drain blocks until the ring is non-empty or closed, then moves up to
// len(dst) entries into dst. It returns the number moved and the ring
// occupancy observed before draining; n == 0 means the ring is closed
// and fully drained, so the consumer should exit.
func (r *ring) drain(dst []entry) (n, occupancy int) {
	r.mu.Lock()
	for r.count == 0 && !r.closed {
		r.nonEmpty.Wait()
	}
	occupancy = r.count
	n = r.count
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		dst[i] = r.buf[r.head]
		r.buf[r.head] = entry{} // drop batch references for the GC
		r.head = (r.head + 1) % len(r.buf)
	}
	r.count -= n
	r.mu.Unlock()
	return n, occupancy
}

// len returns the current occupancy — what an inline executor reports
// to the overload watermarks in place of drain's figure.
func (r *ring) len() int {
	r.mu.Lock()
	n := r.count
	r.mu.Unlock()
	return n
}

// close marks the ring closed: enqueue refuses new entries, drain keeps
// returning queued ones until empty, then reports n == 0.
func (r *ring) close() {
	r.mu.Lock()
	r.closed = true
	r.nonEmpty.Broadcast()
	r.mu.Unlock()
}
