// Package netsim is the discrete-event packet-level simulator that
// substitutes for NS-3 in the paper's Section 6.4 evaluation.
//
// Topology (Figure 10 experiment): a star with NumHosts source hosts
// sending TCP traffic through one switch to a single destination host.
// Every link has the same bandwidth and propagation delay (the paper
// uses 10 Gbps and 3 ms). The schedulers under test — a PIFO block
// whose flow scheduler is either an RPU-BMW-capacity BMW-Tree or an
// original-PIFO-capacity queue — sit on the switch's output (bottleneck)
// link. STFQ computes ranks so all TCP flows share the bottleneck
// fairly.
//
// Model fidelity choices, documented per DESIGN.md:
//
//   - each source's access link serialises its own packets (per-source
//     FIFO, never the bottleneck since each host has a dedicated link);
//   - the bottleneck link runs the PIFO block: packets of new flows are
//     dropped when the flow scheduler is at flow capacity — the loss
//     mechanism behind the original PIFO's inflated FCT;
//   - ACKs return over dedicated reverse paths with propagation delay
//     only (they are 40-byte packets on otherwise idle links).
package netsim

import (
	"fmt"

	"repro/internal/calendarq"
	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/gearbox"
	"repro/internal/obs"
	"repro/internal/pifo"
	"repro/internal/pifoblock"
	"repro/internal/sched"
	"repro/internal/sppifo"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/trafficgen"
)

// SchedulerKind selects the flow scheduler on the bottleneck link.
type SchedulerKind int

// The two schedulers the paper compares in Figure 10, the ideal
// (unlimited) scheduler for calibration runs, and the approximate
// queues of the paper's Section 7.2 survey. The approximate kinds
// admit rank inversions — dequeues whose rank is below the maximum
// already served — which the simulator's InversionMeter quantifies.
const (
	SchedBMW SchedulerKind = iota // BMW-Tree with RPU-BMW capacity
	SchedPIFO
	SchedUnlimited
	SchedSPPIFO    // SP-PIFO: 8 strict-priority FIFOs, adaptive bounds
	SchedGearbox   // hierarchical calendar queue (3 gears x 16 buckets)
	SchedCalendarQ // single rotating calendar queue
)

// RankAlgo selects the rank function programmed into the PIFO block —
// the programmability the PIFO model exists for (Section 2.2: "by
// changing the rank computation function, PIFO can express a wide
// range of scheduling algorithms").
type RankAlgo int

// Available rank functions for the bottleneck scheduler.
const (
	RankSTFQ RankAlgo = iota // fair queueing (the Figure 10 setting)
	RankSRPT                 // shortest remaining processing time
	RankFCFS                 // first come first serve
)

// Config parameterises one simulation run.
type Config struct {
	NumHosts    int    // source hosts (the paper uses 128)
	LinkBps     uint64 // every link's bandwidth (10e9)
	PropDelayNs uint64 // per-link propagation delay (3e6 = 3 ms)

	Scheduler SchedulerKind
	SchedCap  int // flow scheduler capacity (4094 for BMW, 512 for PIFO)
	Rank      RankAlgo

	// BMW tree shape when Scheduler == SchedBMW. Order 2, 11 levels
	// gives the paper's 4094 capacity.
	BMWOrder, BMWLevels int

	HeaderBytes uint32 // per-segment wire overhead
	TCP         tcp.Config

	// StoreLimit bounds the rank store (switch buffer) in packets;
	// 0 means unlimited. A finite buffer is what lets TCP stabilise:
	// overflowing packets drop and the senders back off.
	StoreLimit int

	// ECNThresholdPkts enables ECN marking at the bottleneck: a data
	// packet arriving while the PIFO block already buffers at least
	// this many packets gets the congestion-experienced mark (the
	// DCTCP-style instantaneous-queue marking rule). 0 disables ECN.
	ECNThresholdPkts int

	NumFlows int
	Load     float64 // bottleneck utilisation target
	Seed     int64
	Workload trafficgen.Distribution // flow-size law (default web-search)

	// CustomFlows overrides the generated workload entirely (e.g. an
	// incast from trafficgen.GenerateIncast). NumFlows/Load/Workload
	// are ignored when set.
	CustomFlows []trafficgen.Flow

	// MaxEvents guards against runaway simulations (0 = default).
	MaxEvents uint64
}

// DefaultConfig returns the Figure 10 setting with the BMW scheduler.
func DefaultConfig() Config {
	return Config{
		NumHosts:    128,
		LinkBps:     10e9,
		PropDelayNs: 3e6,
		Scheduler:   SchedBMW,
		SchedCap:    4094,
		BMWOrder:    2,
		BMWLevels:   11,
		HeaderBytes: 40,
		TCP:         tcp.DefaultConfig(),
		StoreLimit:  4000,
		NumFlows:    1000,
		Load:        0.9,
		Seed:        1,
	}
}

// Result reports a finished run.
type Result struct {
	FCT        *stats.FCT
	Completed  int
	Generated  int
	BlockStats pifoblock.Stats
	LossRate   float64 // dropped / offered at the bottleneck
	// PeakQueuePkts is the bottleneck queue's high-water mark.
	PeakQueuePkts int
	Retransmits,
	Timeouts uint64
	SimEndNs uint64
	Events   uint64

	// PktSojournNs is the distribution of per-packet bottleneck
	// sojourn (enqueue to start-of-service, ns) over every served
	// packet.
	PktSojournNs obs.QuantileSnapshot
	// RankObservations / RankInversions / RankInversionRate /
	// RankInversionMeanMag summarise scheduling quality: an inversion
	// is a dequeue whose rank is below the maximum rank already
	// served. The exact queues (BMW, PIFO) stay at zero; the
	// approximate kinds do not.
	RankObservations     uint64
	RankInversions       uint64
	RankInversionRate    float64
	RankInversionMeanMag float64
}

// flowState couples a flow's transport endpoints.
type flowState struct {
	spec     trafficgen.Flow
	sender   *tcp.Sender
	receiver *tcp.Receiver
}

// Sim is one simulation instance.
type Sim struct {
	cfg   Config
	q     *eventq.Queue
	block *pifoblock.Block
	stfq  *sched.STFQ

	srcBusy      []uint64 // per-source access-link busy-until
	egressActive bool

	flows     map[uint32]*flowState
	fct       *stats.FCT
	completed int
	peakQueue int

	// sojournNs and inv are the always-on scheduling-quality probes,
	// fed from the ranker's dequeue hook: per-packet bottleneck
	// sojourn and rank-inversion accounting. Instrument swaps
	// sojournNs for a registry-owned histogram.
	sojournNs *obs.QuantileHistogram
	inv       stats.InversionMeter

	// probes are the attached live instruments (see instrument.go);
	// nil means uninstrumented.
	probes *probes
}

// New builds a simulator from the config.
func New(cfg Config) *Sim {
	if cfg.NumHosts <= 0 || cfg.LinkBps == 0 || (cfg.NumFlows <= 0 && len(cfg.CustomFlows) == 0) {
		panic("netsim: invalid config")
	}
	var fs pifoblock.FlowScheduler
	// Calendar-style queues need a rank-units-per-bucket width. STFQ
	// virtual time advances by bytes/weight per packet (~one MSS at
	// weight 1), so ~1.5 packets of virtual time per bucket keeps
	// inversions to the structural minimum while leaving a finite
	// horizon whose squashing the inversion meter can see.
	const approxBucketWidth = 2048
	switch cfg.Scheduler {
	case SchedBMW:
		fs = core.New(cfg.BMWOrder, cfg.BMWLevels)
		if fs.Cap() < cfg.SchedCap {
			panic(fmt.Sprintf("netsim: BMW shape %d-%d holds %d < SchedCap %d",
				cfg.BMWLevels, cfg.BMWOrder, fs.Cap(), cfg.SchedCap))
		}
	case SchedPIFO:
		fs = pifo.New(cfg.SchedCap)
	case SchedUnlimited:
		fs = pifo.New(1 << 30)
	case SchedSPPIFO:
		fs = sppifo.New(8, cfg.SchedCap)
	case SchedGearbox:
		fs = gearbox.New(3, 16, approxBucketWidth, cfg.SchedCap)
	case SchedCalendarQ:
		fs = calendarq.New(128, approxBucketWidth, cfg.SchedCap)
	default:
		panic("netsim: unknown scheduler")
	}
	var ranker sched.Ranker
	var stfq *sched.STFQ
	switch cfg.Rank {
	case RankSTFQ:
		stfq = sched.NewSTFQ(1)
		ranker = stfq
	case RankSRPT:
		ranker = sched.SRPT{}
	case RankFCFS:
		ranker = sched.FCFS{}
	default:
		panic("netsim: unknown rank algorithm")
	}
	s := &Sim{
		cfg:       cfg,
		q:         eventq.New(),
		stfq:      stfq,
		srcBusy:   make([]uint64, cfg.NumHosts),
		flows:     make(map[uint32]*flowState),
		fct:       &stats.FCT{},
		sojournNs: obs.NewQuantileHistogram(),
	}
	// The Observed wrapper taps every bottleneck dequeue for the
	// sojourn and inversion probes; the delegate ranker still sees its
	// OnDequeue first (STFQ's virtual-time advance).
	block := pifoblock.New(fs, sched.Observed{Ranker: ranker, Dequeued: s.onDequeue})
	block.StoreLimit = cfg.StoreLimit
	s.block = block
	return s
}

// onDequeue is the per-packet scheduling-quality hook, called from the
// PIFO block as each packet enters service at the bottleneck.
func (s *Sim) onDequeue(p sched.Packet, rank uint64) {
	s.sojournNs.Observe(s.q.Now() - p.Arrival)
	before := s.inv.Inversions()
	s.inv.Observe(rank)
	if s.probes != nil && s.inv.Inversions() != before {
		s.probes.inversions.Inc()
	}
}

// SojournSnapshot returns the per-packet bottleneck sojourn (ns)
// distribution collected so far.
func (s *Sim) SojournSnapshot() obs.QuantileSnapshot { return s.sojournNs.Snapshot() }

// wireBytes returns a segment's size on the wire.
func (s *Sim) wireBytes(seg tcp.Segment) uint32 { return seg.Len + s.cfg.HeaderBytes }

// serNs returns the serialisation time of n bytes on a link.
func (s *Sim) serNs(n uint32) uint64 { return uint64(n) * 8e9 / s.cfg.LinkBps }

// baseRTTNs is the unloaded round-trip: two forward hops of propagation
// plus the reverse path.
func (s *Sim) baseRTTNs() uint64 { return 4 * s.cfg.PropDelayNs }

// idealFCTNs is the unloaded completion time used for normalisation:
// one RTT plus the flow's serialisation at the bottleneck line rate.
func (s *Sim) idealFCTNs(bytes uint64) uint64 {
	mss := uint64(s.cfg.TCP.MSS)
	segs := (bytes + mss - 1) / mss
	wire := bytes + segs*uint64(s.cfg.HeaderBytes)
	return s.baseRTTNs() + wire*8e9/s.cfg.LinkBps
}

// Run generates the workload, executes the simulation, and returns the
// result. It is deterministic in Config.Seed.
func (s *Sim) Run() Result {
	specs := s.cfg.CustomFlows
	if len(specs) == 0 {
		specs = trafficgen.GenerateDist(s.cfg.Seed, s.cfg.NumFlows, s.cfg.Load, s.cfg.LinkBps, s.cfg.NumHosts, s.cfg.Workload)
	}
	for _, spec := range specs {
		spec := spec
		s.q.At(spec.StartNs, func() { s.startFlow(spec) })
	}
	budget := s.cfg.MaxEvents
	if budget == 0 {
		budget = 500_000_000
	}
	s.q.Run(budget)

	var retx, tmo uint64
	for _, f := range s.flows {
		retx += f.sender.Retransmits
		tmo += f.sender.Timeouts
	}
	bs := s.block.Stats()
	offered := bs.Enqueued + bs.DropsScheduler + bs.DropsStore
	loss := 0.0
	if offered > 0 {
		loss = float64(bs.DropsScheduler+bs.DropsStore) / float64(offered)
	}
	return Result{
		FCT:                  s.fct,
		Completed:            s.completed,
		Generated:            len(specs),
		BlockStats:           bs,
		LossRate:             loss,
		PeakQueuePkts:        s.peakQueue,
		Retransmits:          retx,
		Timeouts:             tmo,
		SimEndNs:             s.q.Now(),
		Events:               s.q.Processed(),
		PktSojournNs:         s.sojournNs.Snapshot(),
		RankObservations:     s.inv.Total(),
		RankInversions:       s.inv.Inversions(),
		RankInversionRate:    s.inv.Rate(),
		RankInversionMeanMag: s.inv.MeanMagnitude(),
	}
}

// startFlow instantiates the TCP endpoints and begins transmission.
func (s *Sim) startFlow(spec trafficgen.Flow) {
	fs := &flowState{spec: spec}
	fs.receiver = tcp.NewReceiver(func(ackNo uint64, ece bool) {
		// Reverse path: dedicated, uncongested; propagation only
		// (dst -> switch -> src).
		s.q.After(2*s.cfg.PropDelayNs+s.serNs(s.cfg.HeaderBytes), func() {
			fs.sender.OnAckECN(ackNo, ece)
		})
	})
	start := s.q.Now()
	fs.sender = tcp.NewSender(s.q, s.cfg.TCP, spec.ID, spec.Bytes,
		func(seg tcp.Segment) { s.sendFromHost(spec.Source, fs, seg) },
		func(finish uint64) {
			s.completed++
			if s.probes != nil {
				s.probes.completed.Inc()
				s.probes.simNs.Set(float64(finish))
			}
			s.fct.Add(stats.FlowRecord{
				Bytes:      spec.Bytes,
				FCTNs:      finish - start,
				IdealFCTNs: s.idealFCTNs(spec.Bytes),
			})
			if s.stfq != nil {
				s.stfq.Forget(spec.ID)
			}
		})
	s.flows[spec.ID] = fs
	fs.sender.Start()
}

// sendFromHost serialises a data segment on the source's access link
// and delivers it to the switch after propagation.
func (s *Sim) sendFromHost(src int, fs *flowState, seg tcp.Segment) {
	wire := s.wireBytes(seg)
	txStart := s.q.Now()
	if s.srcBusy[src] > txStart {
		txStart = s.srcBusy[src]
	}
	txEnd := txStart + s.serNs(wire)
	s.srcBusy[src] = txEnd
	s.q.At(txEnd+s.cfg.PropDelayNs, func() { s.switchArrival(fs, seg) })
}

// switchArrival enqueues the segment into the bottleneck PIFO block,
// applying ECN marking against the instantaneous queue depth.
func (s *Sim) switchArrival(fs *flowState, seg tcp.Segment) {
	if s.cfg.ECNThresholdPkts > 0 && s.block.Len() >= s.cfg.ECNThresholdPkts {
		seg.CE = true
	}
	// Remaining bytes of the flow from this segment onward — the SRPT
	// rank input, carried in packet metadata by the endpoints (as the
	// PIFO model prescribes for SRPT, Section 2.2).
	remaining := uint64(0)
	if total := fs.spec.Bytes; total > seg.Seq {
		remaining = total - seg.Seq
	}
	err := s.block.Enqueue(sched.Packet{
		Flow:      seg.Flow,
		Bytes:     s.wireBytes(seg),
		Arrival:   s.q.Now(),
		Remaining: remaining,
	}, seg)
	if err != nil {
		return // dropped: TCP recovers via dupacks or RTO
	}
	if n := s.block.Len(); n > s.peakQueue {
		s.peakQueue = n
	}
	if s.probes != nil {
		s.probes.enqueued.Inc()
		s.probes.queueLen.Set(float64(s.block.Len()))
		s.probes.queuePeak.Max(float64(s.peakQueue))
		s.probes.simNs.Set(float64(s.q.Now()))
	}
	s.kickEgress()
}

// kickEgress starts the bottleneck service loop when the link is idle.
func (s *Sim) kickEgress() {
	if s.egressActive {
		return
	}
	s.egressActive = true
	s.serveNext()
}

// serveNext transmits the minimum-rank packet and reschedules itself.
func (s *Sim) serveNext() {
	p, payload, err := s.block.Dequeue()
	if err != nil {
		s.egressActive = false
		return
	}
	seg := payload.(tcp.Segment)
	tx := s.serNs(p.Bytes)
	fs := s.flows[seg.Flow]
	// Delivery at the destination after serialisation + propagation.
	s.q.After(tx+s.cfg.PropDelayNs, func() {
		if fs != nil {
			fs.receiver.OnData(seg)
		}
	})
	// The link frees after serialisation.
	s.q.After(tx, s.serveNext)
}

// Queue exposes the event queue (tests and tooling).
func (s *Sim) Queue() *eventq.Queue { return s.q }

// Block exposes the bottleneck PIFO block (tests and tooling).
func (s *Sim) Block() *pifoblock.Block { return s.block }
