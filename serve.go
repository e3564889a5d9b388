// Serving facade: the sharded concurrent scheduling engine of
// internal/engine and the wire protocol of internal/wire re-exported at
// the package-bmw surface.
//
// The bare queues (NewBMWTree, NewPIFO, NewRBMWSim, NewRPUBMWSim) are
// intentionally single-goroutine; Engine is the concurrency story: each
// shard owns one BMW tree (NewBMWTree's type), only ever touched by the
// holder of the engine's execution lock. Every submitter executes its
// batch on its own stack, waiting for the lock while another holds it.
// WireServer/WireClient carry Engine
// batches over a length-prefixed, CRC-checked binary protocol — see
// cmd/bmwd (daemon) and cmd/bmwload (load generator), and DESIGN.md
// section 6 for the shard model, frame layout, and backpressure
// semantics.
package bmw

import (
	"repro/internal/engine"
	"repro/internal/wire"
)

// Engine is the sharded concurrent scheduler: N shards, each one BMW
// tree, behind one execution lock that submitters take in turn,
// executing on their own stack. The shards are a BMW root node: a push
// goes to the shard with the fewest elements, a pop takes the smallest
// head across shards.
type Engine = engine.Engine

// EngineConfig sizes an Engine: shard count, per-shard tree order and
// levels, overload control, and an optional restore directory.
type EngineConfig = engine.Config

// EngineOp and EngineResult are one batched request and its outcome.
type (
	EngineOp     = engine.Op
	EngineResult = engine.Result
)

// Engine errors. ErrBackpressure is the typed reject: every shard's
// queue is full and the caller should back off and retry. ErrOverloaded
// is the overload-control shed: two consecutive executions ran over the
// drain-latency bound, and the engine refuses new pushes until an
// execution runs fast again or the latch's cooloff expires.
var (
	ErrBackpressure = engine.ErrBackpressure
	ErrEngineClosed = engine.ErrClosed
	ErrOverloaded   = engine.ErrOverloaded
)

// EngineHooks are the engine's incident-infrastructure taps: a flight
// recorder for overload/backpressure edges plus overload-trip and
// shard-panic callbacks, either of which may run on a submitter's
// goroutine. Installed after construction with
// Engine.SetHooks so EngineConfig stays comparable.
type EngineHooks = engine.Hooks

// EngineOverload is the engine's overload-control watermark set;
// Engine.SetOverload swaps it at runtime (the chaos harness uses this
// to induce deterministic overload episodes).
type EngineOverload = engine.Overload

// NewEngine builds the engine (it starts no goroutine); Close shuts
// the execution lock, after which ShardDrain and Checkpoint apply.
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }

// EnginePushOp and EnginePopOp build batch entries for Engine.Submit.
func EnginePushOp(e Element) EngineOp { return engine.PushOp(e) }
func EnginePopOp() EngineOp           { return engine.PopOp() }

// WireServer serves an Engine over the binary wire protocol;
// WireClient is the matching pipelined client.
type (
	WireServer = wire.Server
	WireClient = wire.Client
)

// WireOp and WireResult are the protocol-level batch entry and its
// status-coded outcome, for driving a WireClient directly.
type (
	WireOp     = wire.Op
	WireResult = wire.Result
)

// Wire op kinds and result statuses.
const (
	WireOpPush = wire.OpPush
	WireOpPop  = wire.OpPop

	WireStatusOK           = wire.StatusOK
	WireStatusEmpty        = wire.StatusEmpty
	WireStatusFull         = wire.StatusFull
	WireStatusBackpressure = wire.StatusBackpressure
	WireStatusClosed       = wire.StatusClosed
	WireStatusInvalid      = wire.StatusInvalid
	WireStatusOverloaded   = wire.StatusOverloaded
	WireStatusNotPrimary   = wire.StatusNotPrimary
	WireStatusDedupMiss    = wire.StatusDedupMiss
)

// WireServerConfig tunes a WireServer: connection idle/write budgets,
// the per-connection in-flight cap, retry-dedup sizing, and an
// optional RequestTracer for end-to-end request-lifecycle tracing.
type WireServerConfig = wire.ServerConfig

// NewWireServer wraps an engine for serving; use Serve/Shutdown.
func NewWireServer(e *Engine) *WireServer { return wire.NewServer(e) }

// NewWireServerConfig is NewWireServer with explicit configuration —
// in particular WireServerConfig.Tracer, which makes the server stamp
// every request's lifecycle span.
func NewWireServerConfig(e *Engine, cfg WireServerConfig) *WireServer {
	return wire.NewServerConfig(e, cfg)
}

// DialWire connects to a bmwd-style server and performs the handshake.
func DialWire(addr string) (*WireClient, error) { return wire.Dial(addr) }

// ResilientWireClient is the fault-tolerant client: per-request
// deadlines, reconnect with capped backoff, idempotent retry keyed on
// stable request ids (deduplicated server-side, so a retried push is
// never double-applied), and failover across a primary/standby address
// list. ResilientWireOptions configures it; ResilientWireStats counts
// retries, timeouts, reconnects, and failovers.
type (
	ResilientWireClient  = wire.ResilientClient
	ResilientWireOptions = wire.ResilientOptions
	ResilientWireStats   = wire.ResilientStats
)

// DialWireResilient builds a ResilientWireClient over addrs (primary
// first, standbys after). The connection is established lazily on the
// first request.
func DialWireResilient(addrs ...string) (*ResilientWireClient, error) {
	return wire.NewResilientClient(wire.ResilientOptions{Addrs: addrs})
}
