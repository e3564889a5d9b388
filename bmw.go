// Package bmw is a Go reproduction of "BMW Tree: Large-scale,
// High-throughput and Modular PIFO Implementation using Balanced
// Multi-Way Sorting Tree" (Yao et al., ACM SIGCOMM 2023).
//
// The package exposes four layers:
//
//   - Priority queues implementing the PIFO flow-scheduler contract:
//     the BMW-Tree itself (NewBMWTree) and the paper's baselines — the
//     original shift-register PIFO (NewPIFO), pHeap (NewPHeap) and the
//     Pipelined Heap (NewPipelinedHeap).
//   - Cycle-accurate simulations of the two hardware designs:
//     register-based R-BMW (NewRBMWSim) and RPU-driven RPU-BMW
//     (NewRPUBMWSim), plus the single-cycle PIFO baseline
//     (NewPIFOSim). They follow the papers' issue rules exactly
//     (Sections 4-5) and are proven equivalent to the software tree.
//   - Scheduling algorithms for rank computation (STFQ, WFQ, SRPT,
//     FCFS, strict priority, token-bucket shaping) and the PIFO block
//     of Figure 1 (NewPIFOBlock) combining a rank store with any flow
//     scheduler.
//   - Evaluation models and experiments: the calibrated FPGA and ASIC
//     synthesis models (SynthRBMW, SynthRPUBMW, SynthPIFO, ASICRPUBMW,
//     ASICPIFO) and the packet-level FCT experiment of Figure 10
//     (RunFCTExperiment).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package bmw

import (
	"math/rand"

	"repro/internal/aifo"
	"repro/internal/asic"
	"repro/internal/calendarq"
	"repro/internal/core"
	"repro/internal/fpga"
	"repro/internal/gearbox"
	"repro/internal/hsched"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/pheap"
	"repro/internal/pifo"
	"repro/internal/pifoblock"
	"repro/internal/pipeheap"
	"repro/internal/rbmw"
	"repro/internal/refpq"
	"repro/internal/rpubmw"
	"repro/internal/sched"
	"repro/internal/sppifo"
	"repro/internal/stats"
	"repro/internal/trafficgen"
)

// Element is one priority-queue entry: Value is the rank (smaller
// dequeues first), Meta is opaque packet metadata.
type Element = core.Element

// Errors returned by the priority queues.
var (
	ErrFull  = core.ErrFull
	ErrEmpty = core.ErrEmpty
)

// PriorityQueue is the flow-scheduler contract of Section 2.3 of the
// paper: push by rank, pop the minimum.
type PriorityQueue interface {
	Push(Element) error
	Pop() (Element, error)
	Peek() (Element, error)
	Len() int
	Cap() int
}

// TreeCapacity returns the number of elements an order-m, l-level
// BMW-Tree supports: m(m^l-1)/(m-1).
func TreeCapacity(m, l int) int { return core.Capacity(m, l) }

// NewBMWTree returns the software BMW-Tree of Section 3: an order-m
// (M-way), l-level balanced multi-way sorting tree.
func NewBMWTree(m, l int) *core.Tree { return core.New(m, l) }

// NewPIFO returns the original shift-register PIFO flow scheduler
// (Sivaraman et al., SIGCOMM 2016), the paper's baseline.
func NewPIFO(capacity int) *pifo.PIFO { return pifo.New(capacity) }

// NewPHeap returns a pHeap (Bhagwan & Lin, INFOCOM 2000) of the given
// depth; capacity 2^depth - 1.
func NewPHeap(depth int) *pheap.Heap { return pheap.New(depth) }

// NewPipelinedHeap returns a Pipelined Heap (Ioannou & Katevenis) with
// the given capacity.
func NewPipelinedHeap(capacity int) *pipeheap.Heap { return pipeheap.New(capacity) }

// NewSPPIFO returns an SP-PIFO (Alcoz et al., NSDI 2020): n
// strict-priority FIFOs with adaptive bounds approximating a PIFO in
// dequeue order (Section 7.2 of the paper).
func NewSPPIFO(queues, capacity int) *sppifo.Queue { return sppifo.New(queues, capacity) }

// NewAIFO returns an AIFO (Yu et al., SIGCOMM 2021): a single FIFO
// with quantile-based admission approximating a PIFO in dropped
// packets (Section 7.2).
func NewAIFO(capacity, window int, burst float64) *aifo.Queue {
	return aifo.New(capacity, window, burst)
}

// NewCalendarQueue returns a rotating calendar queue (the AFQ/PCQ
// approximation family of Section 7.2): buckets of the given rank
// width, bounded intra-bucket inversions, squashing past the horizon.
func NewCalendarQueue(buckets int, width uint64, capacity int) *calendarq.Queue {
	return calendarq.New(buckets, width, capacity)
}

// NewGearbox returns a hierarchical calendar queue in the style of
// Gearbox (Gao et al., NSDI 2022, the paper's reference [26]):
// geometrically coarser gears extend the rank horizon far beyond a
// flat calendar at the same bucket budget.
func NewGearbox(gears, buckets int, width uint64, capacity int) *gearbox.Queue {
	return gearbox.New(gears, buckets, width, capacity)
}

// SchedulerTree is a hierarchy of PIFOs (the scheduling-tree model;
// the "logical PIFOs" of Figure 1), enabling HPFQ-style policies.
type SchedulerTree = hsched.Tree

// NewSchedulerTree builds a scheduling tree whose root orders its
// children with the given PIFO and rank policy; add classes and leaves
// with AddNode.
func NewSchedulerTree(pq PriorityQueue, r Ranker) *SchedulerTree {
	return hsched.New(pq, r)
}

// AccuracyResult reports one scheduler's dequeue-order accuracy under
// AccuracyExperiment: the fraction of pops returning a rank above the
// queue's true minimum at that moment ("accurate" PIFO behaviour means
// zero), plus drops for admission-based schemes.
type AccuracyResult struct {
	Name       string
	Pops       uint64
	NonMinimal uint64
	Dropped    uint64
}

// Rate returns the non-minimal pop fraction.
func (r AccuracyResult) Rate() float64 {
	if r.Pops == 0 {
		return 0
	}
	return float64(r.NonMinimal) / float64(r.Pops)
}

// AccuracyExperiment drives identical bursty rank workloads through an
// accurate BMW-Tree and the three approximate schedulers of Section
// 7.2 and reports how often each pops a non-minimal element. It
// substantiates the paper's case for an accurate PIFO: approximations
// reorder (SP-PIFO, calendar queue) or drop (AIFO) packets that an
// accurate scheduler handles exactly.
func AccuracyExperiment(seed int64, ops int) []AccuracyResult {
	rng := rand.New(rand.NewSource(seed))
	type contender struct {
		name string
		q    PriorityQueue
	}
	contenders := []contender{
		{"BMW-Tree", core.New(2, 12)},
		{"SP-PIFO", sppifo.New(8, 1<<12)},
		{"AIFO", aifo.New(1<<12, 128, 0.1)},
		{"CalendarQ", calendarq.New(64, 64, 1<<12)},
		{"Gearbox", gearbox.New(3, 16, 16, 1<<12)},
	}
	results := make([]AccuracyResult, len(contenders))
	refs := make([]*refpq.Queue, len(contenders))
	for i, c := range contenders {
		results[i].Name = c.name
		refs[i] = refpq.New()
	}
	inFlight := make([]int, len(contenders))
	for step := 0; step < ops; step++ {
		push := rng.Intn(2) == 0
		base := uint64(rng.Intn(4)) * 1000
		r := base + uint64(rng.Intn(100))
		for i, c := range contenders {
			if (push && inFlight[i] < 512) || inFlight[i] == 0 {
				if err := c.q.Push(Element{Value: r, Meta: uint64(step)}); err != nil {
					results[i].Dropped++ // AIFO admission or capacity
					continue
				}
				refs[i].Push(refpq.Entry{Value: r, Meta: uint64(step)})
				inFlight[i]++
			} else {
				min := refs[i].MinValue()
				e, err := c.q.Pop()
				if err != nil {
					continue
				}
				results[i].Pops++
				if e.Value > min {
					results[i].NonMinimal++
				}
				if !refs[i].RemoveExact(refpq.Entry{Value: e.Value, Meta: e.Meta}) {
					panic("bmw: accuracy reference desync for " + c.name)
				}
				inFlight[i]--
			}
		}
	}
	return results
}

// Op is one clock cycle's external signal for the cycle-accurate
// simulators; build with PushOp, PopOp and NopOp.
type Op = hw.Op

// OpKind identifies an Op's type.
type OpKind = hw.OpKind

// Operation kinds.
const (
	OpNop  = hw.Nop
	OpPush = hw.Push
	OpPop  = hw.Pop
)

// Operation constructors for the cycle simulators.
var (
	PushOp = hw.PushOp
	PopOp  = hw.PopOp
	NopOp  = hw.NopOp
)

// CycleSim is the common interface of the cycle-accurate hardware
// simulations. Tick advances one clock with the given signal and
// returns the popped element for a pop. PushAvailable/PopAvailable are
// the issue handshake of Sections 4.2.2 and 5.2.3.
type CycleSim interface {
	Tick(Op) (*Element, error)
	Cycle() uint64
	Len() int
	Cap() int
	AlmostFull() bool
	PushAvailable() bool
	PopAvailable() bool
}

// NewRBMWSim returns the cycle-accurate register-based BMW-Tree of
// Section 4: push every cycle, pop every 2 cycles, push-pop in 2
// cycles.
func NewRBMWSim(m, l int) *rbmw.Sim { return rbmw.New(m, l) }

// NewRPUBMWSim returns the cycle-accurate RPU-driven BMW-Tree of
// Section 5: nodes in write-first dual-port SRAMs, one RPU per level;
// push every cycle, pop every 2 cycles with a mandatory idle cycle
// after each pop, push-pop in 3 cycles.
func NewRPUBMWSim(m, l int) *rpubmw.Sim { return rpubmw.New(m, l) }

// PIFOSim adapts the shift-register PIFO to the CycleSim interface
// (every operation is single-cycle and always available).
type PIFOSim struct{ *pifo.PIFO }

// PushAvailable is always true for PIFO.
func (PIFOSim) PushAvailable() bool { return true }

// PopAvailable is always true for PIFO.
func (PIFOSim) PopAvailable() bool { return true }

// NewPIFOSim returns the single-cycle PIFO baseline as a CycleSim.
func NewPIFOSim(capacity int) PIFOSim { return PIFOSim{pifo.New(capacity)} }

// Packet is the per-packet metadata seen by rank functions.
type Packet = sched.Packet

// Ranker computes packet ranks (the programmable half of the PIFO
// model).
type Ranker = sched.Ranker

// Rank-function constructors and types (Section 2 of the paper).
type (
	// STFQ is Start-Time Fair Queueing (used in the Figure 10
	// experiment).
	STFQ = sched.STFQ
	// WFQ is finish-tag weighted fair queueing.
	WFQ = sched.WFQ
	// FCFS ranks by arrival time.
	FCFS = sched.FCFS
	// SRPT ranks by remaining flow size.
	SRPT = sched.SRPT
	// StrictPriority ranks by class.
	StrictPriority = sched.StrictPriority
	// TokenBucket ranks by eligible departure time (shaping).
	TokenBucket = sched.TokenBucket
)

// NewSTFQ returns an STFQ ranker with the given default weight.
func NewSTFQ(defaultWeight uint32) *STFQ { return sched.NewSTFQ(defaultWeight) }

// NewWFQ returns a WFQ ranker with the given default weight.
func NewWFQ(defaultWeight uint32) *WFQ { return sched.NewWFQ(defaultWeight) }

// NewTokenBucket returns a per-flow token-bucket shaper.
func NewTokenBucket(rateBytesPerSec, burstBytes uint64) *TokenBucket {
	return sched.NewTokenBucket(rateBytesPerSec, burstBytes)
}

// PIFOBlock is the architecture of Figure 1: a rank store in front of
// a flow scheduler.
type PIFOBlock = pifoblock.Block

// Block-level errors.
var (
	ErrSchedulerFull = pifoblock.ErrSchedulerFull
	ErrStoreFull     = pifoblock.ErrStoreFull
	ErrNotEligible   = pifoblock.ErrNotEligible
)

// NewPIFOBlock builds a PIFO block over any PriorityQueue and ranker.
func NewPIFOBlock(fs PriorityQueue, r Ranker) *PIFOBlock {
	return pifoblock.New(fs, r)
}

// FPGAReport is a synthesis-style summary from the calibrated XCU200
// model (Figures 8-9, Tables 2-3).
type FPGAReport = fpga.Report

// XCU200 is the paper's FPGA device (Alveo U200).
var XCU200 = fpga.XCU200

// SynthRBMW models an order-m, l-level R-BMW on the XCU200.
func SynthRBMW(m, l int) FPGAReport { return fpga.RBMW(fpga.XCU200, m, l) }

// SynthRPUBMW models an order-m, l-level RPU-BMW on the XCU200.
func SynthRPUBMW(m, l int) FPGAReport { return fpga.RPUBMW(fpga.XCU200, m, l) }

// SynthPIFO models the original PIFO with the given capacity on the
// XCU200.
func SynthPIFO(capacity int) FPGAReport { return fpga.PIFO(fpga.XCU200, capacity) }

// MaxFPGALevels returns the deepest feasible tree for a design
// ("R-BMW" or "RPU-BMW") and order on the XCU200.
func MaxFPGALevels(design string, m int) int { return fpga.MaxLevels(fpga.XCU200, design, m) }

// ASICReport is a GF28 synthesis summary (Table 4).
type ASICReport = asic.Report

// ASICRPUBMW models an order-m, l-level RPU-BMW in the GF28 process.
func ASICRPUBMW(m, l int) ASICReport { return asic.RPUBMW(m, l) }

// ASICPIFO models the original PIFO in the GF28 process.
func ASICPIFO(capacity int) ASICReport { return asic.PIFO(capacity) }

// FCT experiment plumbing (Figure 10).
type (
	// NetConfig parameterises the packet-level simulation.
	NetConfig = netsim.Config
	// NetResult is a finished run's report.
	NetResult = netsim.Result
	// FCTBin is one flow-size bucket of the Figure 10 series.
	FCTBin = stats.Bin
	// SchedulerKind selects the bottleneck flow scheduler.
	SchedulerKind = netsim.SchedulerKind
	// RankAlgo selects the rank function programmed into the block.
	RankAlgo = netsim.RankAlgo
)

// Scheduler selectors for NetConfig. The approximate kinds (SP-PIFO,
// Gearbox, calendar queue) admit rank inversions, which the run's
// NetResult reports alongside per-packet sojourn quantiles.
const (
	SchedBMW       = netsim.SchedBMW
	SchedPIFO      = netsim.SchedPIFO
	SchedUnlimited = netsim.SchedUnlimited
	SchedSPPIFO    = netsim.SchedSPPIFO
	SchedGearbox   = netsim.SchedGearbox
	SchedCalendarQ = netsim.SchedCalendarQ
)

// Rank-function selectors for NetConfig: the scheduler is programmed
// by swapping the rank computation (Section 2.2).
const (
	RankSTFQ = netsim.RankSTFQ
	RankSRPT = netsim.RankSRPT
	RankFCFS = netsim.RankFCFS
)

// Workload selectors for NetConfig.
const (
	WorkloadWebSearch  = trafficgen.WebSearchDist
	WorkloadDataMining = trafficgen.DataMiningDist
)

// DefaultNetConfig returns the paper's Figure 10 topology: 128 source
// hosts, 10 Gbps links, 3 ms propagation, STFQ, BMW scheduler with
// capacity 4094.
func DefaultNetConfig() NetConfig { return netsim.DefaultConfig() }

// RunFCTExperiment executes one packet-level simulation run.
func RunFCTExperiment(cfg NetConfig) NetResult { return netsim.New(cfg).Run() }

// NewNetSim returns a configured packet-level simulation without
// running it, so callers can Instrument it (live bottleneck-queue
// probes, safe to scrape over HTTP while Run is in progress) before
// calling Run.
func NewNetSim(cfg NetConfig) *netsim.Sim { return netsim.New(cfg) }

// FCTBins buckets a run's flow records with the default Figure 10
// flow-size edges.
func FCTBins(r NetResult) []FCTBin { return r.FCT.Binned(stats.DefaultBins()) }

// FCTTable renders one Figure 10 series as text.
func FCTTable(name string, bins []FCTBin) string { return stats.Table(name, bins) }

// WebSearchMeanBytes returns the mean of the embedded web-search
// flow-size distribution.
func WebSearchMeanBytes() float64 { return trafficgen.MeanBytes() }
