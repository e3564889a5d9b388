package replic

import "sync"

// segRecords is the fixed record count of one log segment (320 KiB of
// 80-byte records): large enough that the per-segment allocation is
// amortised over thousands of appends, small enough that allocating
// (and zeroing) the next one under the log mutex costs microseconds,
// not the milliseconds a whole-log regrow did.
const segRecords = 4096

// Log is the primary's in-memory replication log: records numbered
// from sequence 1, appended in atomic groups (one executed batch's op
// records plus its dedup record land under one lock acquisition, so a
// reader can never observe a group's dedup entry without its ops).
// Senders block in ReadFrom until records arrive; Wake unblocks them
// so a dying stream can exit.
//
// Storage is a list of fixed-size segments. An append fills the tail
// segment and opens a new one when it is full; a record, once written,
// is never moved or copied again, so appends cost the same at sequence
// one and at sequence one hundred million, and a slice ReadFrom handed
// out stays valid while later appends land behind it. A group may
// straddle a segment boundary — sequence numbers and End flags do not
// know about segments.
//
// The log is retained from genesis: a fresh follower attaches at
// sequence 0 and replays everything. That bounds this design to
// histories that fit in memory — dropping whole segments below every
// follower's ack, and snapshot-shipping for late joiners, are future
// work (see DESIGN.md §6).
type Log struct {
	mu   sync.Mutex
	cond *sync.Cond
	// segs[i] holds sequences i*segRecords+1 .. ; every segment but the
	// last is full, and each is allocated once at capacity segRecords.
	segs [][]Record
	tip  uint64
}

// NewLog returns an empty log.
func NewLog() *Log {
	l := &Log{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// AppendGroup appends recs as one atomic group and returns the new tip
// sequence (that of the last record). It stamps the group-end flag:
// only the final record carries End, so stream readers can reassemble
// group boundaries no matter how frames chunk the records.
func (l *Log) AppendGroup(recs []Record) uint64 {
	for i := range recs {
		recs[i].End = i == len(recs)-1
	}
	l.mu.Lock()
	for rest := recs; len(rest) > 0; {
		if len(l.segs) == 0 || len(l.segs[len(l.segs)-1]) == segRecords {
			l.segs = append(l.segs, make([]Record, 0, segRecords))
		}
		tail := &l.segs[len(l.segs)-1]
		n := min(len(rest), segRecords-len(*tail))
		*tail = append(*tail, rest[:n]...)
		rest = rest[n:]
	}
	l.tip += uint64(len(recs))
	tip := l.tip
	l.mu.Unlock()
	l.cond.Broadcast()
	return tip
}

// Seq returns the tip sequence (0 when empty).
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tip
}

// ReadFrom blocks until records after seq exist (or Wake is called),
// then returns up to max of them — never past the end of the segment
// that holds sequence seq+1, so a caller streaming the log sees a short
// read at each segment boundary and simply asks again. The returned
// slice aliases log memory; records are never mutated after append. An
// empty return means a wakeup with nothing new — callers check their
// stop condition and loop.
func (l *Log) ReadFrom(seq uint64, max int) []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.tip <= seq {
		l.cond.Wait()
	}
	if l.tip <= seq {
		return nil
	}
	seg := l.segs[seq/segRecords]
	off := int(seq % segRecords)
	return seg[off:min(off+max, len(seg))]
}

// Wake unblocks every ReadFrom waiter.
func (l *Log) Wake() { l.cond.Broadcast() }
