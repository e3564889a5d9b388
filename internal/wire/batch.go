package wire

import (
	"encoding/binary"
	"fmt"
)

// MaxBatchOps bounds the operations in one TBatch frame; it keeps the
// frame far under MaxPayload and bounds per-request server work.
const MaxBatchOps = 4096

// OpKind is a wire operation kind.
type OpKind uint8

// Wire operation kinds.
const (
	OpPush OpKind = 1
	OpPop  OpKind = 2
	// OpPeek returns the server's current global minimum (StatusOK with
	// the element, or StatusEmpty) without removing it. It is the
	// cluster client's head probe: cross-node strict-merge PopMin keeps
	// a per-node head cache and drains from the globally minimal head,
	// so a cheap non-mutating read of each node's minimum is what makes
	// the merge affordable. Peeks mutate nothing and are never
	// replicated.
	OpPeek OpKind = 3
	// OpPopBounded pops the head iff its rank is at most the bound in
	// Value (StatusOK with the element) and otherwise changes nothing
	// (StatusMiss). It is the cluster merge's batch primitive: a run of
	// K of them with bound = the smallest head cached for any other node
	// takes every element this node owes the global order in one round
	// trip and stops where a sibling takes over. A hit replicates as a
	// plain pop; a miss is never replicated.
	OpPopBounded OpKind = 4
)

// Op is one queue operation in a TBatch payload. Value and Meta are the
// element of a push; Value alone is the bound of a bounded pop.
type Op struct {
	Kind  OpKind
	Value uint64
	Meta  uint64
}

// Status is one operation's outcome in a TBatchOK payload.
type Status uint8

// Operation statuses.
const (
	// StatusOK: the operation succeeded; a pop carries its element.
	StatusOK Status = 0
	// StatusEmpty: pop against an empty engine.
	StatusEmpty Status = 1
	// StatusFull: push against a full shard queue.
	StatusFull Status = 2
	// StatusBackpressure: push refused at admission (every shard
	// full); the client should back off and retry.
	StatusBackpressure Status = 3
	// StatusClosed: the engine is shutting down.
	StatusClosed Status = 4
	// StatusInvalid: the operation was malformed or unsupported.
	StatusInvalid Status = 5
	// StatusOverloaded: the server shed the whole batch unexecuted,
	// every op kind alike, because the connection already had
	// ServerConfig.MaxInflight responses queued. Read the pipeline
	// down before retrying; the server is protecting itself.
	StatusOverloaded Status = 6
	// StatusNotPrimary: this server is a replication follower and does
	// not accept queue operations; fail over to the primary (or the
	// promoted standby). Sent in TError frames, never per-op.
	StatusNotPrimary Status = 7
	// StatusDedupMiss: a retried request id fell outside the server's
	// dedup window, so the server cannot tell whether the original
	// executed. Sent in TError frames; the client must treat the
	// operation's fate as indeterminate. With a sane window this only
	// fires on protocol misuse.
	StatusDedupMiss Status = 8
	// StatusNotOwner: this node does not own the cluster key-space slice
	// the push routes to. Per-op, never connection-fatal; the result's
	// Value carries the node's current cluster-map version, so a client
	// holding an older map knows a refresh will re-route the op and a
	// client already at that version knows the disagreement is real.
	StatusNotOwner Status = 9
	// StatusMiss: a bounded pop took nothing — the node was empty or its
	// head ranked above the bound. A normal outcome of the cluster merge,
	// not a fault: nothing changed, nothing was replicated.
	StatusMiss Status = 10
	// StatusRefused: a handler refused this one request (a peer cannot
	// serve an anti-entropy fetch). Sent in TError frames, never per-op;
	// the only TError that does not end its connection.
	StatusRefused Status = 11
)

// maxStatus is the largest defined status, for decode validation.
const maxStatus = StatusRefused

// EndsConn reports whether a TError carrying s ends its connection.
// Every TError does — the server closes after sending it and the client
// fails every request pending there — except a Refused one, which fails
// only the request it answers.
func (s Status) EndsConn() bool { return s != StatusRefused }

// String names the status for logs.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusEmpty:
		return "empty"
	case StatusFull:
		return "full"
	case StatusBackpressure:
		return "backpressure"
	case StatusClosed:
		return "closed"
	case StatusInvalid:
		return "invalid"
	case StatusOverloaded:
		return "overloaded"
	case StatusNotPrimary:
		return "not-primary"
	case StatusDedupMiss:
		return "dedup-miss"
	case StatusNotOwner:
		return "not-owner"
	case StatusMiss:
		return "miss"
	case StatusRefused:
		return "refused"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Result is one operation's outcome. Value/Meta are meaningful for a
// StatusOK pop.
type Result struct {
	Status Status
	Value  uint64
	Meta   uint64
}

// Payload sizes: an op is 1 byte of kind plus 16 bytes of element for
// pushes or 8 bytes of bound for bounded pops; pops and peeks are the
// bare kind byte; a result is a fixed 17 bytes so decoding needs no
// knowledge of the originating ops.
const (
	opPopSize        = 1
	opPushSize       = 1 + 16
	opPopBoundedSize = 1 + 8
	resultSize       = 1 + 16
)

// AppendOps appends the TBatch payload encoding of ops to dst.
func AppendOps(dst []byte, ops []Op) []byte {
	if len(ops) > MaxBatchOps {
		panic(fmt.Sprintf("wire: batch of %d exceeds MaxBatchOps %d", len(ops), MaxBatchOps))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ops)))
	for _, op := range ops {
		dst = append(dst, byte(op.Kind))
		switch op.Kind {
		case OpPush:
			dst = binary.LittleEndian.AppendUint64(dst, op.Value)
			dst = binary.LittleEndian.AppendUint64(dst, op.Meta)
		case OpPopBounded:
			dst = binary.LittleEndian.AppendUint64(dst, op.Value)
		}
	}
	return dst
}

// ParseOps decodes a TBatch payload. Arbitrary input never panics;
// malformed payloads return ErrBadFrame-wrapped errors.
func ParseOps(p []byte) ([]Op, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: batch payload %d bytes", ErrBadFrame, len(p))
	}
	count := binary.LittleEndian.Uint32(p[:4])
	if count > MaxBatchOps {
		return nil, fmt.Errorf("%w: batch count %d", ErrBadFrame, count)
	}
	p = p[4:]
	ops := make([]Op, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(p) < 1 {
			return nil, fmt.Errorf("%w: batch truncated at op %d", ErrBadFrame, i)
		}
		kind := OpKind(p[0])
		switch kind {
		case OpPop, OpPeek:
			ops = append(ops, Op{Kind: kind})
			p = p[opPopSize:]
		case OpPush:
			if len(p) < opPushSize {
				return nil, fmt.Errorf("%w: push op truncated at %d", ErrBadFrame, i)
			}
			ops = append(ops, Op{
				Kind:  OpPush,
				Value: binary.LittleEndian.Uint64(p[1:9]),
				Meta:  binary.LittleEndian.Uint64(p[9:17]),
			})
			p = p[opPushSize:]
		case OpPopBounded:
			if len(p) < opPopBoundedSize {
				return nil, fmt.Errorf("%w: bounded pop truncated at %d", ErrBadFrame, i)
			}
			ops = append(ops, Op{Kind: OpPopBounded, Value: binary.LittleEndian.Uint64(p[1:9])})
			p = p[opPopBoundedSize:]
		default:
			return nil, fmt.Errorf("%w: op kind %d", ErrBadFrame, kind)
		}
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch", ErrBadFrame, len(p))
	}
	return ops, nil
}

// AppendResults appends the TBatchOK payload encoding of results.
func AppendResults(dst []byte, results []Result) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(results)))
	for _, r := range results {
		dst = append(dst, byte(r.Status))
		dst = binary.LittleEndian.AppendUint64(dst, r.Value)
		dst = binary.LittleEndian.AppendUint64(dst, r.Meta)
	}
	return dst
}

// ParseResults decodes a TBatchOK payload.
func ParseResults(p []byte) ([]Result, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: results payload %d bytes", ErrBadFrame, len(p))
	}
	count := binary.LittleEndian.Uint32(p[:4])
	if count > MaxBatchOps {
		return nil, fmt.Errorf("%w: results count %d", ErrBadFrame, count)
	}
	p = p[4:]
	if len(p) != int(count)*resultSize {
		return nil, fmt.Errorf("%w: results payload %d bytes for count %d", ErrBadFrame, len(p), count)
	}
	results := make([]Result, count)
	for i := range results {
		e := p[i*resultSize : (i+1)*resultSize]
		s := Status(e[0])
		if s > maxStatus {
			return nil, fmt.Errorf("%w: status %d", ErrBadFrame, e[0])
		}
		results[i] = Result{
			Status: s,
			Value:  binary.LittleEndian.Uint64(e[1:9]),
			Meta:   binary.LittleEndian.Uint64(e[9:17]),
		}
	}
	return results, nil
}

// Hello payload helpers.

// AppendHello appends the THello payload: the client's protocol
// version plus its session id. A nonzero session id enrolls the
// connection in the server's retry-dedup cache, so a request id
// retried after a reconnect (same session) is answered from cache
// instead of re-executed. Session 0 opts out.
func AppendHello(dst []byte, session uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, Version)
	return binary.LittleEndian.AppendUint64(dst, session)
}

// ParseHello decodes a THello payload.
func ParseHello(p []byte) (version uint32, session uint64, err error) {
	if len(p) != 12 {
		return 0, 0, fmt.Errorf("%w: hello payload %d bytes", ErrBadFrame, len(p))
	}
	return binary.LittleEndian.Uint32(p), binary.LittleEndian.Uint64(p[4:]), nil
}

// AppendClusterHello appends the TClusterHello payload: the sender's
// current cluster-map version. The TClusterMap answer's payload is
// encoded by internal/cluster; wire carries it as opaque bytes.
func AppendClusterHello(dst []byte, version uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, version)
}

// ParseClusterHello decodes a TClusterHello payload.
func ParseClusterHello(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("%w: cluster hello payload %d bytes", ErrBadFrame, len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}

// HelloInfo is the server's THelloOK body.
type HelloInfo struct {
	Version  uint32
	Shards   uint32
	Capacity uint64
}

// AppendHelloOK appends the THelloOK payload.
func AppendHelloOK(dst []byte, info HelloInfo) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, info.Version)
	dst = binary.LittleEndian.AppendUint32(dst, info.Shards)
	return binary.LittleEndian.AppendUint64(dst, info.Capacity)
}

// ParseHelloOK decodes a THelloOK payload.
func ParseHelloOK(p []byte) (HelloInfo, error) {
	if len(p) != 16 {
		return HelloInfo{}, fmt.Errorf("%w: hello-ok payload %d bytes", ErrBadFrame, len(p))
	}
	return HelloInfo{
		Version:  binary.LittleEndian.Uint32(p[0:4]),
		Shards:   binary.LittleEndian.Uint32(p[4:8]),
		Capacity: binary.LittleEndian.Uint64(p[8:16]),
	}, nil
}
