package replic

import (
	"encoding/binary"
	"sort"
	"sync"

	"repro/internal/engine"
)

// segBytes is the capacity of one log segment. Segments hold the
// records' wire encoding, so they carry no pointers and the GC never
// scans them; 128 KiB is large enough that the per-segment allocation
// is amortised over thousands of records, and small enough that
// allocating (and zeroing) the next one under the log mutex costs
// microseconds.
const segBytes = 128 << 10

// Log is a node's in-memory replication log: records numbered from
// sequence 1, appended in atomic groups (one executed batch's op
// records plus its dedup record land under one lock acquisition, so a
// reader can never observe a group's dedup entry without its ops).
// Senders block in Cursor.Next until records arrive; Wake unblocks them
// so a dying stream can exit.
//
// The log holds exactly the bytes it ships: each record is stored in
// its TReplRecords encoding (End flag included), so a stream sender
// copies runs of log bytes into frames and encodes nothing. Storage is
// a list of segments of segBytes. An append writes into the tail
// segment and opens a new one when the record does not fit; a record
// never straddles two segments, and one larger than a segment (a dedup
// record with a large response) gets a segment of its own. Bytes, once
// committed, are never moved or changed, so a slice a cursor hands out
// stays valid while later appends land behind it. A group may straddle
// a segment boundary — sequence numbers and End flags do not know about
// segments.
//
// The log is retained from genesis: a fresh follower attaches at
// sequence 0 and replays everything. That bounds this design to
// histories that fit in memory — dropping whole segments below every
// follower's ack, and snapshot-shipping for late joiners, are future
// work (see DESIGN.md §6).
type Log struct {
	mu   sync.Mutex
	cond *sync.Cond
	// segs[i] holds the records from sequence firsts[i] on; only the
	// last segment is still written to.
	segs   [][]byte
	firsts []uint64
	tip    uint64
	// end is the offset in the tail segment of the last record written,
	// where the current group's End flag goes; n counts the current
	// group's records.
	end, n int
}

// NewLog returns an empty log.
func NewLog() *Log {
	l := &Log{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// room returns the tail segment with space for one more record of size
// bytes, opening a new segment when the tail cannot take it whole.
// Callers hold mu.
func (l *Log) room(size int) []byte {
	if k := len(l.segs) - 1; k >= 0 && cap(l.segs[k])-len(l.segs[k]) >= size {
		return l.segs[k]
	}
	l.segs = append(l.segs, make([]byte, 0, max(size, segBytes)))
	l.firsts = append(l.firsts, l.tip+uint64(l.n)+1)
	return l.segs[len(l.segs)-1]
}

// putOp and putDedup encode one record onto the tail segment. Callers
// hold mu, between the group's first put and its commit.
func (l *Log) putOp(shard uint32, lsn uint64, op uint8, value, meta uint64) {
	tail := l.room(recOpSize)
	l.end = len(tail)
	l.segs[len(l.segs)-1] = appendOp(tail, shard, lsn, op, value, meta)
	l.n++
}

func (l *Log) putDedup(session, reqID uint64, resp []byte) {
	tail := l.room(recDedupMin + len(resp))
	l.end = len(tail)
	l.segs[len(l.segs)-1] = appendDedup(tail, session, reqID, resp)
	l.n++
}

// commit closes the current group — End on its last record — publishes
// it, and unlocks. It returns the new tip, the sequence of the group's
// last record (0 when the group is empty: nothing was appended).
func (l *Log) commit() uint64 {
	if l.n == 0 {
		l.mu.Unlock()
		return 0
	}
	l.segs[len(l.segs)-1][l.end] |= recEndFlag
	l.tip += uint64(l.n)
	l.n = 0
	tip := l.tip
	l.mu.Unlock()
	l.cond.Broadcast()
	return tip
}

// AppendBatch is the batch tap's append: one executed batch's
// successful ops, then (for an enrolled session) its dedup record with
// the encoded response, encoded straight into the log as one group. It
// returns the group's last sequence, or 0 when the batch appended
// nothing.
func (l *Log) AppendBatch(session, reqID uint64, ops []engine.Op, results []engine.Result, resp []byte) uint64 {
	l.mu.Lock()
	for i := range results {
		r := &results[i]
		if r.Err != nil {
			continue
		}
		if ops[i].Kind == engine.OpPush {
			l.putOp(uint32(r.Shard), r.LSN, OpPush, ops[i].Elem.Value, ops[i].Elem.Meta)
		} else {
			// A pop record carries the popped element so the follower
			// can check its own pop against it — divergence detection.
			l.putOp(uint32(r.Shard), r.LSN, OpPop, r.Elem.Value, r.Elem.Meta)
		}
	}
	if session != 0 {
		l.putDedup(session, reqID, resp)
	}
	return l.commit()
}

// AppendGroup appends recs as one atomic group and returns the new tip
// sequence (that of the last record). Only the final record carries
// End, whatever the records say, so stream readers can reassemble
// group boundaries no matter how frames chunk the records.
func (l *Log) AppendGroup(recs []Record) uint64 {
	l.mu.Lock()
	for i := range recs {
		r := &recs[i]
		if r.Kind == RecDedup {
			l.putDedup(r.Session, r.ReqID, r.Resp)
		} else {
			l.putOp(r.Shard, r.LSN, r.Op, r.Value, r.Meta)
		}
	}
	return l.commit()
}

// Seq returns the tip sequence (0 when empty).
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tip
}

// Wake unblocks every Cursor.Next waiter.
func (l *Log) Wake() { l.cond.Broadcast() }

// Cursor reads a Log forward from a position. It is not safe for
// concurrent use; each stream sender owns one.
type Cursor struct {
	l   *Log
	seq uint64 // the last sequence read; Next starts at seq+1
	// seg and off locate sequence seq+1 — or, when it is not yet
	// written, the end of the segment holding seq.
	seg, off int
}

// Cursor returns a cursor whose first Next starts after sequence
// after, which must not exceed the tip. Seeking costs a binary search
// of the segment index and a walk over one segment's records.
func (l *Log) Cursor(after uint64) *Cursor {
	l.mu.Lock()
	defer l.mu.Unlock()
	if after > l.tip {
		panic("replic: cursor past the log tip")
	}
	c := &Cursor{l: l, seq: after}
	if len(l.segs) == 0 {
		return c
	}
	// The last segment whose first record is at or before after+1.
	c.seg = sort.Search(len(l.firsts), func(i int) bool { return l.firsts[i] > after+1 }) - 1
	seg := l.segs[c.seg]
	for s := l.firsts[c.seg]; s <= after; s++ {
		c.off += recSize(seg[c.off:])
	}
	return c
}

// Next blocks until records past the cursor exist (or Wake is called),
// then returns the next run of them as their TReplRecords encoding:
// first is the sequence of the run's first record, n its record count,
// b its bytes. A run holds at most maxRecs records and maxBytes bytes —
// but always at least one record, however large — and never crosses a
// segment boundary, so a caller streaming the log sees a short read at
// each boundary and simply asks again. b aliases log memory, which is
// never changed once committed. n == 0 means a wakeup with nothing new
// — callers check their stop condition and loop.
func (c *Cursor) Next(maxRecs, maxBytes int) (first uint64, n int, b []byte) {
	l := c.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.tip <= c.seq {
		l.cond.Wait()
	}
	first = c.seq + 1
	if l.tip <= c.seq {
		return first, 0, nil
	}
	// A segment the cursor has read to the end is closed once a later
	// one exists: appends only ever go to the tail.
	if c.off == len(l.segs[c.seg]) {
		c.seg, c.off = c.seg+1, 0
	}
	seg := l.segs[c.seg]
	start := c.off
	for n < maxRecs && c.off < len(seg) {
		sz := recSize(seg[c.off:])
		if n > 0 && c.off-start+sz > maxBytes {
			break
		}
		c.off += sz
		n++
	}
	c.seq += uint64(n)
	return first, n, seg[start:c.off]
}

// recSize returns the encoded size of the record at the start of b, a
// well-formed log record.
func recSize(b []byte) int {
	if RecKind(b[0]&^recEndFlag) == RecDedup {
		return recDedupMin + int(binary.LittleEndian.Uint32(b[17:21]))
	}
	return recOpSize
}
