package replic

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wire"
)

// tnode is one engine+server+replication-node trio on a loopback port.
type tnode struct {
	eng  *engine.Engine
	srv  *wire.Server
	node *Node
	addr string
	stop func(grace time.Duration)
}

func startNode(t *testing.T, ecfg engine.Config, cfg Config) *tnode {
	t.Helper()
	eng, err := engine.New(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(eng)
	cfg.Engine = ecfg
	if cfg.DialRetry == 0 {
		cfg.DialRetry = 5 * time.Millisecond
	}
	node := Attach(eng, srv, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(done)
	}()
	stopped := false
	return &tnode{
		eng: eng, srv: srv, node: node, addr: ln.Addr().String(),
		stop: func(grace time.Duration) {
			if stopped {
				return
			}
			stopped = true
			ctx, cancel := context.WithTimeout(context.Background(), grace)
			defer cancel()
			srv.Shutdown(ctx)
			<-done
			node.Close()
			eng.Close()
		},
	}
}

// waitUntil polls cond for up to 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

var testGeom = engine.Config{Shards: 2, Order: 2, Levels: 10}

// TestReplicationCatchUpAndPromote replays a primary's history —
// pushes and pops — onto a follower, promotes it, and drains it: the
// follower must hold exactly the primary's surviving elements.
func TestReplicationCatchUpAndPromote(t *testing.T) {
	prim := startNode(t, testGeom, Config{Sync: true, SyncTimeout: 5 * time.Second})
	defer prim.stop(2 * time.Second)
	fol := startNode(t, testGeom, Config{PrimaryAddr: prim.addr})
	defer fol.stop(2 * time.Second)

	if prim.node.Role() != "primary" || fol.node.Role() != "follower" {
		t.Fatalf("roles: %s / %s", prim.node.Role(), fol.node.Role())
	}

	c, err := wire.NewResilientClient(wire.ResilientOptions{Addrs: []string{prim.addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 200
	want := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		v := uint64(i*7 + 1)
		res, err := c.Do([]wire.Op{{Kind: wire.OpPush, Value: v, Meta: v}})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Status != wire.StatusOK {
			t.Fatalf("push %d: %v", i, res[0].Status)
		}
		want = append(want, v)
	}
	// Pop a prefix on the primary; the follower must pop the same.
	for i := 0; i < 50; i++ {
		res, err := c.Do([]wire.Op{{Kind: wire.OpPop}})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Status != wire.StatusOK || res[0].Value != want[0] {
			t.Fatalf("pop %d: %+v, want value %d", i, res[0], want[0])
		}
		want = want[1:]
	}

	waitUntil(t, "follower ack at tip", func() bool {
		return prim.node.AckSeq() == prim.node.LogSeq() && fol.node.Ready()
	})
	if prim.node.Status().Degraded {
		t.Fatal("sync primary degraded with a live follower")
	}
	if got := fol.eng.Len(); got != len(want) {
		t.Fatalf("follower holds %d elements, want %d", got, len(want))
	}
	for i := 0; i < testGeom.Shards; i++ {
		if p, f := prim.eng.ShardLSN(i), fol.eng.ShardLSN(i); p != f {
			t.Fatalf("shard %d LSN: primary %d, follower %d", i, p, f)
		}
	}

	// The standby refuses queue traffic until promoted.
	fc, err := wire.Dial(fol.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if _, err := fc.Do([]wire.Op{{Kind: wire.OpPop}}); err == nil {
		t.Fatal("follower served before promotion")
	} else {
		var se *wire.ServerError
		if !errors.As(err, &se) || se.Code != wire.StatusNotPrimary {
			t.Fatalf("pre-promotion error: %v", err)
		}
	}

	fol.node.Promote()
	if fol.node.Role() != "primary" || !fol.node.Ready() {
		t.Fatalf("post-promotion: role %s ready %v", fol.node.Role(), fol.node.Ready())
	}
	fc2, err := wire.Dial(fol.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc2.Close()
	got := make([]uint64, 0, len(want))
	for {
		res, err := fc2.Do([]wire.Op{{Kind: wire.OpPop}})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Status == wire.StatusEmpty {
			break
		}
		got = append(got, res[0].Value)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("promoted follower drained %d elements, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("drain[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestBoundedPopsReplicate drives a sync primary with the cluster
// merge's frames — runs of bounded pops plus a peek, most ending in
// misses — between pushes. A hit must reach the follower as the pop it
// was and a miss as nothing at all. The primary placed every push on its
// least-count shard and the follower applies the records where they
// name, so each shard has the same LSN and length on both, and the
// promoted follower drains exactly what the primary still held.
func TestBoundedPopsReplicate(t *testing.T) {
	geom := engine.Config{Shards: 2, Order: 2, Levels: 10}
	prim := startNode(t, geom, Config{Sync: true, SyncTimeout: 5 * time.Second})
	defer prim.stop(2 * time.Second)
	fol := startNode(t, geom, Config{PrimaryAddr: prim.addr})
	defer fol.stop(2 * time.Second)
	waitUntil(t, "follower attach", func() bool { return fol.node.Ready() })

	c, err := wire.Dial(prim.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// An all-miss frame on the empty primary logs nothing.
	before := prim.node.LogSeq()
	if res, err := c.Do([]wire.Op{{Kind: wire.OpPopBounded, Value: 1 << 40}, {Kind: wire.OpPeek}}); err != nil || res[0].Status != wire.StatusMiss {
		t.Fatalf("miss on empty primary: %+v %v", res, err)
	}
	if got := prim.node.LogSeq(); got != before {
		t.Fatalf("a miss advanced the log %d -> %d", before, got)
	}

	var held []uint64
	hits, misses := 0, 0
	for round := uint64(0); round < 40; round++ {
		var pushes []wire.Op
		for k := uint64(0); k < 8; k++ {
			v := (round*8+k)*2654435761%100000 + 1
			pushes = append(pushes, wire.Op{Kind: wire.OpPush, Value: v, Meta: round*8 + k})
			held = append(held, v)
		}
		if res, err := c.Do(pushes); err != nil || res[7].Status != wire.StatusOK {
			t.Fatalf("round %d pushes: %+v %v", round, res, err)
		}
		// The median of what is held: roughly half a frame hits.
		sort.Slice(held, func(i, j int) bool { return held[i] < held[j] })
		frame := make([]wire.Op, 6, 7)
		for i := range frame {
			frame[i] = wire.Op{Kind: wire.OpPopBounded, Value: held[3]}
		}
		res, err := c.Do(append(frame, wire.Op{Kind: wire.OpPeek}))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res[:6] {
			switch r.Status {
			case wire.StatusOK:
				if r.Value != held[0] {
					t.Fatalf("round %d: hit %d, primary minimum is %d", round, r.Value, held[0])
				}
				held = held[1:]
				hits++
			case wire.StatusMiss:
				misses++
			default:
				t.Fatalf("round %d: %+v", round, r)
			}
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("%d hits, %d misses: the frames exercised one outcome only", hits, misses)
	}

	waitUntil(t, "follower ack at tip", func() bool { return prim.node.AckSeq() == prim.node.LogSeq() })
	if prim.node.Status().Degraded || fol.node.Status().Degraded {
		t.Fatal("a node degraded")
	}
	for i := 0; i < geom.Shards; i++ {
		if p, f := prim.eng.ShardLSN(i), fol.eng.ShardLSN(i); p != f {
			t.Fatalf("shard %d LSN: primary %d, follower %d", i, p, f)
		}
		if p, f := prim.eng.ShardLen(i), fol.eng.ShardLen(i); p != f || p == 0 {
			t.Fatalf("shard %d length: primary %d, follower %d", i, p, f)
		}
	}
	if p, f := prim.eng.Len(), fol.eng.Len(); p != f || p != len(held) {
		t.Fatalf("lengths: primary %d, follower %d, reference %d", p, f, len(held))
	}
	fol.node.Promote()
	fc, err := wire.Dial(fol.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	for i, want := range held {
		res, err := fc.Do([]wire.Op{{Kind: wire.OpPop}})
		if err != nil || res[0].Status != wire.StatusOK || res[0].Value != want {
			t.Fatalf("promoted follower drain[%d] = %+v %v, want %d", i, res, err, want)
		}
	}
}

// TestRetryDedup re-sends an already-executed request id on a fresh
// connection with the same session: the server must replay the cached
// response without re-applying the ops.
func TestRetryDedup(t *testing.T) {
	prim := startNode(t, testGeom, Config{})
	defer prim.stop(2 * time.Second)

	const session = 0xBEEF
	ops := []wire.Op{
		{Kind: wire.OpPush, Value: 10, Meta: 1},
		{Kind: wire.OpPush, Value: 20, Meta: 2},
		{Kind: wire.OpPop},
	}
	c1, err := wire.DialOptions(prim.addr, wire.ClientOptions{Session: session})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := c1.DoID(7, ops, 0)
	if err != nil {
		t.Fatal(err)
	}
	c1.Close()
	lenAfter := prim.eng.Len()

	c2, err := wire.DialOptions(prim.addr, wire.ClientOptions{Session: session})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	res2, err := c2.DoID(7, ops, 0)
	if err != nil {
		t.Fatalf("retried request: %v", err)
	}
	if len(res1) != len(res2) {
		t.Fatalf("replay length %d, want %d", len(res2), len(res1))
	}
	for i := range res1 {
		if res1[i] != res2[i] {
			t.Fatalf("replay[%d] = %+v, want %+v", i, res2[i], res1[i])
		}
	}
	if got := prim.eng.Len(); got != lenAfter {
		t.Fatalf("retry re-applied: engine len %d, want %d", got, lenAfter)
	}
	// A different id from the same session still executes.
	if _, err := c2.DoID(8, []wire.Op{{Kind: wire.OpPush, Value: 30, Meta: 3}}, 0); err != nil {
		t.Fatal(err)
	}
	if got := prim.eng.Len(); got != lenAfter+1 {
		t.Fatalf("fresh id did not apply: engine len %d, want %d", got, lenAfter+1)
	}
}

// TestManifestMismatchRefused sends a TReplHello with the wrong
// geometry and expects a TError, not a stream.
func TestManifestMismatchRefused(t *testing.T) {
	prim := startNode(t, testGeom, Config{})
	defer prim.stop(2 * time.Second)

	conn, err := net.Dial("tcp", prim.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bad := ManifestOf(engine.Config{Shards: 7, Order: 2, Levels: 6})
	if err := wire.WriteFrame(conn, wire.TReplHello, 1, AppendReplHello(nil, bad, 0, 0)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.TError {
		t.Fatalf("mismatched manifest got frame type %d, want TError", f.Type)
	}
}

// TestFourKindFollowerHello is what a follower built when the engine could
// serve four queue kinds sees attaching to a primary today: its hello for
// a core engine of the same geometry is granted a stream under either
// routing it may name, and its hello for an rbmw engine — the same bytes
// but the kind byte — is refused on the manifest-mismatch path, not
// streamed into a tree.
func TestFourKindFollowerHello(t *testing.T) {
	prim := startNode(t, testGeom, Config{})
	defer prim.stop(2 * time.Second)

	const fresh = "0000000000000000"
	for _, tc := range []struct {
		kind, routing byte
		want          wire.Type
	}{{0, 0, wire.TReplOK}, {0, 1, wire.TReplOK}, {2, 1, wire.TError}} {
		conn, err := net.Dial("tcp", prim.addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(conn, wire.TReplHello, 1, fourKindHello(tc.kind, tc.routing, "10000000", fresh, fresh)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := wire.ReadFrame(conn)
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != tc.want {
			t.Fatalf("kind %d hello got frame type %d (%q), want %d", tc.kind, f.Type, f.Payload, tc.want)
		}
		if f.Type == wire.TError && !bytes.Contains(f.Payload, []byte("manifest mismatch")) {
			t.Fatalf("kind %d refused for %q, want a manifest mismatch", tc.kind, f.Payload[1:])
		}
	}
}

// TestLogIdentityMismatchRefused resumes a stream with a nonzero
// position minted against a different log identity: the primary must
// refuse it — sequence numbers from a foreign log are meaningless here.
// A fresh attach (resume 0, no identity) must still be granted.
func TestLogIdentityMismatchRefused(t *testing.T) {
	prim := startNode(t, testGeom, Config{})
	defer prim.stop(2 * time.Second)

	// Give the log some history so resume 3 is within the tip.
	c, err := wire.Dial(prim.addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Do([]wire.Op{{Kind: wire.OpPush, Value: uint64(i + 1), Meta: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	waitUntil(t, "log growth", func() bool { return prim.node.LogSeq() >= 3 })

	attach := func(resume, logID uint64) wire.Frame {
		t.Helper()
		conn, err := net.Dial("tcp", prim.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		m := ManifestOf(testGeom)
		if err := wire.WriteFrame(conn, wire.TReplHello, 1, AppendReplHello(nil, m, resume, logID)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	if f := attach(3, 0xDEADBEEF); f.Type != wire.TError {
		t.Fatalf("foreign-log resume got frame type %d, want TError", f.Type)
	}
	f := attach(0, 0)
	if f.Type != wire.TReplOK {
		t.Fatalf("fresh attach got frame type %d, want TReplOK", f.Type)
	}
	tip, logID, err := ParseReplOK(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if logID == 0 {
		t.Fatal("primary advertised zero log identity")
	}
	if tip != prim.node.LogSeq() {
		t.Fatalf("TReplOK tip %d, want %d", tip, prim.node.LogSeq())
	}
	// Resuming against the real identity is accepted.
	if f := attach(3, logID); f.Type != wire.TReplOK {
		t.Fatalf("matching-log resume got frame type %d, want TReplOK", f.Type)
	}
}

// TestFailoverNoAckedOpLoss runs a client against a primary/standby
// pair, kills the primary mid-traffic, promotes the standby, and
// checks every acknowledged push survives exactly once.
func TestFailoverNoAckedOpLoss(t *testing.T) {
	prim := startNode(t, testGeom, Config{Sync: true, SyncTimeout: 5 * time.Second})
	fol := startNode(t, testGeom, Config{PrimaryAddr: prim.addr})
	defer fol.stop(2 * time.Second)
	defer prim.stop(50 * time.Millisecond)

	waitUntil(t, "follower attach", func() bool { return fol.node.Ready() })

	rc, err := wire.NewResilientClient(wire.ResilientOptions{
		Addrs:          []string{prim.addr, fol.addr},
		RequestTimeout: time.Second,
		BaseDelay:      time.Millisecond,
		MaxDelay:       20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	acked := make(map[uint64]bool)
	push := func(v uint64) {
		res, err := rc.Do([]wire.Op{{Kind: wire.OpPush, Value: v, Meta: v}})
		if err != nil {
			t.Fatalf("push %d: %v", v, err)
		}
		if res[0].Status != wire.StatusOK {
			t.Fatalf("push %d: status %v", v, res[0].Status)
		}
		acked[v] = true
	}

	v := uint64(1)
	for ; v <= 100; v++ {
		push(v)
	}
	// Kill the primary abruptly (50ms grace force-closes its
	// connections), promote the standby, keep pushing through the
	// client's retry/failover path.
	prim.stop(50 * time.Millisecond)
	done := make(chan struct{})
	go func() { fol.node.Promote(); close(done) }()
	for ; v <= 200; v++ {
		push(v)
	}
	<-done

	got := make(map[uint64]int)
	for {
		res, err := rc.Do([]wire.Op{{Kind: wire.OpPop}})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Status == wire.StatusEmpty {
			break
		}
		got[res[0].Value]++
	}
	for val := range acked {
		if got[val] != 1 {
			t.Fatalf("acked push %d present %d times after failover", val, got[val])
		}
	}
	for val, n := range got {
		if n != 1 {
			t.Fatalf("value %d applied %d times", val, n)
		}
		if !acked[val] {
			t.Fatalf("unacked value %d survived failover", val)
		}
	}
	s := rc.Stats()
	if s.Retries == 0 {
		t.Error("failover run recorded no retries")
	}
	if s.DedupMisses != 0 {
		t.Errorf("%d dedup misses — indeterminate op outcomes", s.DedupMisses)
	}
}

// TestConcurrentFailoverNoDuplicates drives several clients in
// parallel through a primary kill and standby promotion. Concurrent
// batches interleave their groups in the log, so this exercises the
// follower's group-atomic apply under load: a group the standby applied
// past the primary's last ack carries its dedup entry with it, so the
// unacked client's retry is answered from cache, and a group not
// applied leaves no engine trace, so its retry re-executes freshly. After failover every pushed value must be present exactly
// once.
func TestConcurrentFailoverNoDuplicates(t *testing.T) {
	prim := startNode(t, testGeom, Config{Sync: true, SyncTimeout: 5 * time.Second})
	fol := startNode(t, testGeom, Config{PrimaryAddr: prim.addr})
	defer fol.stop(2 * time.Second)
	defer prim.stop(50 * time.Millisecond)

	waitUntil(t, "follower attach", func() bool { return fol.node.Ready() })

	const (
		clients   = 4
		perClient = 150
		killAfter = 40
	)
	var (
		wg      sync.WaitGroup
		killOne sync.Once
		errs    = make(chan error, clients)
	)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rc, err := wire.NewResilientClient(wire.ResilientOptions{
				Addrs:          []string{prim.addr, fol.addr},
				RequestTimeout: time.Second,
				BaseDelay:      time.Millisecond,
				MaxDelay:       20 * time.Millisecond,
			})
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", ci, err)
				return
			}
			defer rc.Close()
			for i := 0; i < perClient; i++ {
				if ci == 0 && i == killAfter {
					killOne.Do(func() {
						prim.stop(50 * time.Millisecond)
						go fol.node.Promote()
					})
				}
				v := uint64(ci*perClient + i + 1)
				res, err := rc.Do([]wire.Op{{Kind: wire.OpPush, Value: v, Meta: v}})
				if err != nil {
					errs <- fmt.Errorf("client %d push %d: %w", ci, v, err)
					return
				}
				if res[0].Status != wire.StatusOK {
					errs <- fmt.Errorf("client %d push %d: status %v", ci, v, res[0].Status)
					return
				}
				if s := rc.Stats(); s.DedupMisses != 0 {
					errs <- fmt.Errorf("client %d: dedup miss — indeterminate op outcome", ci)
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	fol.node.Promote() // idempotent; waits for the serving gate
	rc, err := wire.NewResilientClient(wire.ResilientOptions{Addrs: []string{fol.addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	got := make(map[uint64]int)
	for {
		res, err := rc.Do([]wire.Op{{Kind: wire.OpPop}})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Status == wire.StatusEmpty {
			break
		}
		got[res[0].Value]++
	}
	// Every push eventually succeeded (the loops above fail otherwise),
	// so every value 1..clients*perClient was acked to some client and
	// must survive failover exactly once.
	for v := uint64(1); v <= clients*perClient; v++ {
		switch got[v] {
		case 1:
		case 0:
			t.Fatalf("acked push %d lost in failover", v)
		default:
			t.Fatalf("push %d applied %d times — duplicate apply", v, got[v])
		}
	}
	if len(got) != clients*perClient {
		t.Fatalf("drained %d distinct values, want %d", len(got), clients*perClient)
	}
}

// TestLogIsExecutionOrder drives a primary from concurrent connections
// and reads its log back through a cursor: each shard's op LSNs must
// run 1, 2, 3, ... in log order, up to the engine's — the log records
// the order the engine executed the batches in, which is the order a
// follower applies them in.
func TestLogIsExecutionOrder(t *testing.T) {
	prim := startNode(t, testGeom, Config{})
	defer prim.stop(2 * time.Second)

	const conns, batches = 4, 400
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := wire.Dial(prim.addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for b := 0; b < batches; b++ {
				v := uint64(ci*batches + b)
				if _, err := c.Do([]wire.Op{{Kind: wire.OpPush, Value: v, Meta: v}, {Kind: wire.OpPush, Value: v, Meta: v}, {Kind: wire.OpPop}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	var last [2]uint64
	inversions := 0
	for _, r := range readLog(t, prim.node.log, 0, MaxRecordsPerFrame, frameBytes) {
		if r.Kind != RecOp {
			continue
		}
		if r.LSN != last[r.Shard]+1 {
			inversions++
		}
		last[r.Shard] = r.LSN
	}
	if inversions != 0 {
		t.Errorf("%d op records out of their shard's LSN order", inversions)
	}
	for sh := range last {
		if want := prim.eng.ShardLSN(sh); last[sh] != want {
			t.Errorf("shard %d: log ends at lsn %d, the engine at %d", sh, last[sh], want)
		}
	}
}

// TestPromoteMidStreamUnblocksFollower promotes a follower while its
// stream is idle-blocked reading from a live primary: Promote must
// interrupt the read and open the serving gate promptly.
func TestPromoteMidStreamUnblocksFollower(t *testing.T) {
	prim := startNode(t, testGeom, Config{})
	defer prim.stop(2 * time.Second)
	fol := startNode(t, testGeom, Config{PrimaryAddr: prim.addr})
	defer fol.stop(2 * time.Second)

	waitUntil(t, "follower attach", func() bool { return fol.node.Ready() })
	start := time.Now()
	fol.node.Promote()
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("promotion took %v", d)
	}
	if !fol.srv.Serving() {
		t.Fatal("promoted follower not serving")
	}
}

// TestFollowerDivergenceIsFatal perturbs a follower's engine behind the
// stream's back so the primary's next pop cannot be reproduced. The
// follower must stop for good: no ack past the last sound group, the
// incident hook fired, the node degraded, and no redial — a redial
// would re-stream the group, the replay filter would skip the op that
// already went wrong, and the divergence would be acknowledged away.
func TestFollowerDivergenceIsFatal(t *testing.T) {
	// A bounded pop's hit is logged as a plain pop carrying the popped
	// element, so it is checked — and caught — exactly like one.
	t.Run("pop", func(t *testing.T) { testFollowerDivergence(t, wire.Op{Kind: wire.OpPop}) })
	t.Run("bounded-pop", func(t *testing.T) { testFollowerDivergence(t, wire.Op{Kind: wire.OpPopBounded, Value: 100}) })
}

func testFollowerDivergence(t *testing.T, pop wire.Op) {
	geom := engine.Config{Shards: 1, Order: 2, Levels: 8}
	prim := startNode(t, geom, Config{})
	defer prim.stop(2 * time.Second)
	incidents := make(chan string, 4) // repl_fatal and repl_degraded, with room to spare
	fol := startNode(t, geom, Config{
		PrimaryAddr: prim.addr,
		OnIncident:  func(trigger, reason string) { incidents <- trigger },
	})
	defer fol.stop(2 * time.Second)
	waitUntil(t, "follower attach", func() bool { return fol.node.Ready() })

	// An element the primary never saw, at the LSN the primary's first
	// push will take: the follower skips that push as a replay, and from
	// then on holds 1 where the primary holds 7.
	res := make([]engine.Result, 1)
	if err := fol.eng.ApplyReplica(0, []engine.Op{engine.PushOp(core.Element{Value: 1, Meta: 1})}, res); err != nil || res[0].Err != nil {
		t.Fatalf("perturbing the follower: %v %v", err, res[0].Err)
	}

	c, err := wire.Dial(prim.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do([]wire.Op{{Kind: wire.OpPush, Value: 7, Meta: 7}}); err != nil {
		t.Fatal(err)
	}
	sound := prim.node.LogSeq()
	waitUntil(t, "ack of the group before the divergence", func() bool { return prim.node.AckSeq() == sound })
	if r, err := c.Do([]wire.Op{pop}); err != nil || r[0].Status != wire.StatusOK || r[0].Value != 7 {
		t.Fatalf("primary pop: %v %+v", err, r)
	}

	for fatal := false; !fatal; {
		select {
		case trigger := <-incidents:
			fatal = trigger == "repl_fatal"
		case <-time.After(5 * time.Second):
			t.Fatal("divergence raised no repl_fatal incident")
		}
	}
	waitUntil(t, "stream teardown", func() bool { return prim.node.Status().Followers == 0 })
	// Many redial periods (5ms each): a follower that was going to come
	// back would have.
	time.Sleep(100 * time.Millisecond)
	if got := prim.node.Status().Followers; got != 0 {
		t.Fatalf("diverged follower redialed (%d attached)", got)
	}
	if got := prim.node.AckSeq(); got != sound {
		t.Fatalf("primary holds ack %d, want %d: the diverged pop was acknowledged", got, sound)
	}
	if got := fol.node.Status().AckSeq; got != sound {
		t.Fatalf("follower frontier %d, want %d", got, sound)
	}
	if !fol.node.Status().Degraded {
		t.Fatal("diverged follower not degraded")
	}
}

// TestSyncReleaseWithoutFollowerIsAnIncident: a gated response whose
// follower detached before the gate ran is released unreplicated — a
// degrade edge like any other, so it must reach the incident hook.
func TestSyncReleaseWithoutFollowerIsAnIncident(t *testing.T) {
	var triggers []string
	n, _ := applyNode(t, testGeom)
	n.cfg.OnIncident = func(trigger, reason string) { triggers = append(triggers, trigger) }
	n.waitAck(1, time.Time{})
	n.waitAck(2, time.Time{})
	if !n.Status().Degraded || len(triggers) != 1 || triggers[0] != "repl_degraded" {
		t.Fatalf("degraded %v, incidents %v: want one repl_degraded", n.Status().Degraded, triggers)
	}
}

// TestShutdownWithholdsUnackedResponses: a sync primary that is
// shutting down must not answer OK for a group its follower never
// acknowledged. The shutdown's force-close can end the replication
// stream before a client's connection; the gated response then loses
// its ack for good, and an OK written on the still-open connection
// would be an acked op the promoted follower does not hold. Both ways
// in are checked: a response already waiting in its gate when the
// stream dies, and a batch executed after it died. A primary that never
// had a follower is not affected.
func TestShutdownWithholdsUnackedResponses(t *testing.T) {
	prim := startNode(t, testGeom, Config{Sync: true, SyncTimeout: 5 * time.Second})
	defer prim.stop(50 * time.Millisecond)

	// A follower that attaches and never acknowledges.
	fconn, err := net.Dial("tcp", prim.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fconn.Close()
	if err := wire.WriteFrame(fconn, wire.TReplHello, 1, AppendReplHello(nil, ManifestOf(testGeom), 0, 0)); err != nil {
		t.Fatal(err)
	}
	if f, err := wire.ReadFrame(fconn); err != nil || f.Type != wire.TReplOK {
		t.Fatalf("attach: frame %d, %v", f.Type, err)
	}
	waitUntil(t, "follower attach", func() bool { return prim.node.Status().Followers == 1 })

	gated, err := wire.Dial(prim.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer gated.Close()
	late, err := wire.Dial(prim.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	// A pop of the empty queue logs nothing and is not gated: it only
	// proves late's connection is served before shutdown begins.
	if res, err := late.Do([]wire.Op{{Kind: wire.OpPop}}); err != nil || res[0].Status != wire.StatusEmpty {
		t.Fatalf("pop on the empty primary: %v, %v", res, err)
	}

	answered := make(chan error, 1)
	go func() {
		res, err := gated.Do([]wire.Op{{Kind: wire.OpPush, Value: 7, Meta: 7}})
		if err == nil {
			err = fmt.Errorf("answered %v", res)
		} else {
			err = nil
		}
		answered <- err
	}()
	waitUntil(t, "the push to reach the log", func() bool { return prim.node.LogSeq() == 1 })

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shut <- prim.srv.Shutdown(ctx)
	}()
	waitUntil(t, "shutdown to begin", prim.srv.Closing)
	fconn.Close() // the stream dies first

	if err := <-answered; err != nil {
		t.Fatalf("push waiting on an ack that never came: %v", err)
	}
	waitUntil(t, "the follower to detach", func() bool { return prim.node.Status().Followers == 0 })
	if res, err := late.Do([]wire.Op{{Kind: wire.OpPush, Value: 8, Meta: 8}}); err == nil {
		t.Fatalf("push executed after the follower detached: answered %v", res)
	}
	if err := <-shut; err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	if prim.node.Status().Degraded {
		t.Fatal("primary degraded, but it released no unreplicated response")
	}

	// A sync primary that never had a follower has nobody to hand over
	// to: shutting down, it still answers what it executes.
	solo := startNode(t, testGeom, Config{Sync: true})
	defer solo.stop(50 * time.Millisecond)
	c, err := wire.Dial(solo.addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do([]wire.Op{{Kind: wire.OpPop}}); err != nil {
		t.Fatal(err)
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shut <- solo.srv.Shutdown(ctx)
	}()
	waitUntil(t, "shutdown to begin", solo.srv.Closing)
	if res, err := c.Do([]wire.Op{{Kind: wire.OpPush, Value: 9, Meta: 9}}); err != nil || res[0].Status != wire.StatusOK {
		t.Fatalf("push on a shutting-down primary with no follower: %v, %v", res, err)
	}
	c.Close()
	if err := <-shut; err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
}
