// Package see is the public API of the SEE reproduction — Segmented
// Entanglement Establishment for Throughput Maximization in Quantum
// Networks (Zhao et al., IEEE ICDCS 2022).
//
// The package wraps the internal engine stack behind a small surface:
//
//	net, pairs, _ := see.GenerateNetwork(see.DefaultNetworkConfig(), 20, 1)
//	sched, _ := see.NewScheduler(see.SEE, net, pairs, nil)
//	res, _ := sched.RunSlot(rand.New(rand.NewSource(1)))
//	fmt.Println("established:", res.Established)
//
// The paper's three schedulers are available — SEE (the paper's
// contribution), REPS (the INFOCOM'21 entanglement-link baseline) and E2E
// (all-optical switching only) — next to the repo-grown baselines Greedy,
// Contend, QPass, ContendAware and SEEAware and the Oracle capacity bound;
// Algorithms lists them all. The experiment harness regenerating the
// paper's figures is exposed via RunExperiment and Figure. One
// SchedulerOptions struct carries every scheduler knob: Faults injects
// deterministic faults (see ParseFaultSpec), SlotBudget bounds the LP
// solve, degrading gracefully to Greedy when exceeded, and CarrySlots keeps
// unconsumed entanglement across slots.
package see

import (
	"errors"
	"io"

	"see/internal/chaos"
	"see/internal/engines"
	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/serve"
	"see/internal/state"
	"see/internal/topo"
	"see/internal/warm"
	"see/internal/xrand"
)

// Algorithm selects an entanglement-establishment scheme. It is the
// canonical sched.Algorithm shared by every layer of the simulator.
type Algorithm = sched.Algorithm

// The schemes compared in the paper's evaluation.
const (
	// SEE integrates all-optical switching with quantum swapping
	// (the paper's contribution).
	SEE = sched.SEE
	// REPS uses entanglement links only (Zhao & Qiao, INFOCOM 2021).
	REPS = sched.REPS
	// E2E uses all-optical switching only: one segment per connection.
	E2E = sched.E2E
	// Greedy is the repo-grown non-LP baseline: round-robin shortest-path
	// planning with first-come-first-served reservation. It doubles as the
	// degradation target when an LP scheduler blows its SlotBudget.
	Greedy = sched.Greedy
	// Contend is the repo-grown contention-aware baseline in the Q-CAST
	// spirit: candidate paths scored by expected throughput, selected
	// best-first under residual channel/memory accounting, with
	// recovery-path fallback in the physical phase (internal/contend).
	Contend = sched.Contend
	// QPass is the offline-routing contrast baseline in the Q-PASS spirit:
	// candidate paths are fixed from the fault-free topology with per-hop
	// recovery reserved up front, and announced faults are ignored.
	QPass = sched.QPass
	// ContendAware is Contend with fault-forecast subtraction: announced
	// outages and brownouts are removed from the residual capacities
	// before any candidate is scored.
	ContendAware = sched.ContendAware
	// SEEAware is SEE with fault-forecast subtraction: forecast-dead links
	// leave the LP's column pricing and announced capacity reductions
	// shrink the planning tables.
	SEEAware = sched.SEEAware
	// Oracle is the capacity-bound pseudo-scheduler: it establishes
	// nothing and consumes no randomness, but its UpperBound is the
	// network's summed expected entanglement capacity (per-pair min-cut
	// over success-scaled channel counts), so a sweep that includes it can
	// report every real scheme's throughput as a fraction of what the
	// topology could theoretically deliver (see internal/oracle).
	Oracle = sched.Oracle
)

// NetworkConfig mirrors the evaluation parameters of §IV-A.
type NetworkConfig struct {
	// Nodes placed uniformly in a square area (default 200).
	Nodes int
	// AreaKM is the square side in km (default 10,000).
	AreaKM float64
	// Channels per quantum link (default 3).
	Channels int
	// Memory units per node (default 10).
	Memory int
	// SwapProb is the quantum swapping success probability q (default 0.9).
	// Zero means "use the default"; set ExplicitZero for an actual q = 0.
	SwapProb float64
	// Alpha is the attenuation in p = e^(−αl) + δ (default 2e-4).
	// Zero means "use the default"; set ExplicitZero for an actual α = 0.
	Alpha float64
	// Delta is the half-width of the uniform noise δ (default 0.05).
	// Zero means "use the default"; set ExplicitZero for an actual δ = 0.
	Delta float64
}

// DefaultNetworkConfig returns the paper's defaults.
func DefaultNetworkConfig() NetworkConfig {
	c := topo.DefaultConfig()
	return NetworkConfig{
		Nodes:    c.Nodes,
		AreaKM:   c.AreaKM,
		Channels: c.Channels,
		Memory:   c.Memory,
		SwapProb: c.SwapProb,
		Alpha:    c.Alpha,
		Delta:    c.Delta,
	}
}

// ExplicitZero marks a NetworkConfig field as "explicitly zero". The zero
// value of SwapProb, Alpha and Delta means "use the paper default" (so
// sparse literals like NetworkConfig{Nodes: 50} keep working); assigning
// ExplicitZero — or any negative value — requests an actual zero, e.g.
// perfect swapping ablations (SwapProb stays default, q=0 kills every swap)
// or a noise-free success model (Alpha=0 ⇒ p=1+δ clamp, Delta=0 ⇒ no noise).
const ExplicitZero = -1

// overrideFloat resolves the unset / default / explicit-zero convention:
// 0 keeps def, ExplicitZero (any negative) means an actual 0.
func overrideFloat(v, def float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 0:
		return v
	default:
		return def
	}
}

func (c NetworkConfig) toTopo() topo.Config {
	t := topo.DefaultConfig()
	if c.Nodes > 0 {
		t.Nodes = c.Nodes
	}
	if c.AreaKM > 0 {
		t.AreaKM = c.AreaKM
	}
	if c.Channels > 0 {
		t.Channels = c.Channels
	}
	if c.Memory > 0 {
		t.Memory = c.Memory
	}
	t.SwapProb = overrideFloat(c.SwapProb, t.SwapProb)
	t.Alpha = overrideFloat(c.Alpha, t.Alpha)
	t.Delta = overrideFloat(c.Delta, t.Delta)
	return t
}

// SDPair is a source-destination demand.
type SDPair struct {
	S, D int
}

// Network is a generated quantum data network plus its demand set.
type Network struct {
	inner *topo.Network
}

// NumNodes returns the node count.
func (n *Network) NumNodes() int { return n.inner.NumNodes() }

// NumLinks returns the quantum link count.
func (n *Network) NumLinks() int { return n.inner.NumLinks() }

// Stats summarizes the topology (degree, link lengths, probabilities).
func (n *Network) Stats() NetworkStats {
	st := topo.Summarize(n.inner)
	return NetworkStats{
		Nodes:        st.Nodes,
		Links:        st.Links,
		AvgDegree:    st.AvgDegree,
		MeanLinkKM:   st.MeanLinkKM,
		MeanLinkProb: st.MeanLinkProb,
	}
}

// NetworkStats summarizes a topology.
type NetworkStats struct {
	Nodes, Links int
	AvgDegree    float64
	MeanLinkKM   float64
	MeanLinkProb float64
}

// GenerateNetwork builds a random Waxman QDN with the given number of SD
// pairs, deterministically from the seed.
func GenerateNetwork(cfg NetworkConfig, sdPairs int, seed int64) (*Network, []SDPair, error) {
	rng := xrand.New(seed)
	net, err := topo.Generate(cfg.toTopo(), xrand.Split(rng))
	if err != nil {
		return nil, nil, err
	}
	raw := topo.ChooseSDPairs(net, sdPairs, xrand.Split(rng))
	pairs := make([]SDPair, len(raw))
	for i, p := range raw {
		pairs[i] = SDPair{S: p.S, D: p.D}
	}
	return &Network{inner: net}, pairs, nil
}

// MotivationNetwork returns the paper's Fig. 2 fixture with its two SD
// pairs.
func MotivationNetwork() (*Network, []SDPair) {
	net, raw := topo.Motivation()
	pairs := make([]SDPair, len(raw))
	for i, p := range raw {
		pairs[i] = SDPair{S: p.S, D: p.D}
	}
	return &Network{inner: net}, pairs
}

// SchedulerOptions tunes a scheduler; the zero value (or nil pointer)
// selects paper defaults and a bare, memoryless scheduler. It is the
// canonical engines.Config, the one struct that declares every scheduler
// knob — candidate enumeration, LP pricing, tracing, faults (Faults, see
// ParseFaultSpec), the LP slot budget (SlotBudget, degrading to Greedy),
// the carry-over bank (CarrySlots and the Carry* aging knobs), warm starts
// (Warm), fidelity floors (FidelityFloors, see ParseFloorSpec) and the
// swap order. Chaos takes a pre-built injector for internal callers; set
// Faults instead.
type SchedulerOptions = engines.Config

// FloorSpec is a per-request fidelity-floor table: a default floor plus
// per-SD-pair overrides. It is the canonical qnet.FloorSpec; build one
// directly or with ParseFloorSpec.
type FloorSpec = qnet.FloorSpec

// ParseFloorSpec parses the compact fidelity-floor grammar shared with the
// seesim -fidelity-floor flag: ';'-separated items, each either a bare
// floor in [0,1] (the default) or pair=floor for one SD pair.
//
//	0.8          every pair needs fidelity ≥ 0.8
//	0.8;3=0.95   pair 3 needs 0.95, everyone else 0.8
//	2=0.9        only pair 2 is floored
func ParseFloorSpec(s string) (*FloorSpec, error) { return qnet.ParseFloorSpec(s) }

// SwapOrder selects the junction-swap sampling order of the stitch phase;
// see SchedulerOptions.SwapOrder.
type SwapOrder = qnet.SwapOrder

// The swap-order policies.
const (
	// SwapOrderPath samples swaps in path order (the default).
	SwapOrderPath = qnet.SwapOrderPath
	// SwapOrderGreedy samples the least reliable junction first.
	SwapOrderGreedy = qnet.SwapOrderGreedy
)

// ParseSwapOrder parses a swap-order name ("path" or "greedy").
func ParseSwapOrder(s string) (SwapOrder, error) { return qnet.ParseSwapOrder(s) }

// WarmCache memoizes scheduler-construction artifacts across rebuilds over
// the same network; see SchedulerOptions.Warm. It is the canonical
// warm.Cache and is safe for concurrent use.
type WarmCache = warm.Cache

// NewWarmCache returns an empty warm-start cache.
func NewWarmCache() *WarmCache { return warm.New() }

// WarmStats is a snapshot of a WarmCache's hit/miss/invalidation counters
// (see warm.Stats).
type WarmStats = warm.Stats

// CarryStats tallies the lifetime activity of a scheduler's cross-slot
// state bank: segments deposited, rejected for lack of memory, withdrawn,
// and lost to decoherence. Read it with SchedulerCarryStats.
type CarryStats = state.Stats

// SchedulerCarryStats returns the carry-over bank tallies of a scheduler
// built with CarrySlots > 0 (zero stats otherwise).
func SchedulerCarryStats(s Scheduler) CarryStats {
	if st, ok := s.(sched.Stateful); ok {
		return st.Bank().Stats()
	}
	return CarryStats{}
}

// SlotResult reports one simulated time slot. It is the canonical
// sched.SlotResult every engine returns — see that type for the full
// pipeline breakdown (planned/provisioned paths, attempts, segments,
// assembly attempts, established connections).
type SlotResult = sched.SlotResult

// Scheduler runs time slots of one entanglement-establishment scheme over
// a fixed network and demand set. It is the canonical sched.Engine
// interface implemented by all three engine stacks.
type Scheduler = sched.Engine

// Tracer observes the slot pipeline with per-phase callbacks; see
// sched.Tracer for the full contract. Implementations must not mutate
// engine state and never consume randomness.
type Tracer = sched.Tracer

// Phase identifies one stage of the slot pipeline observed by a Tracer.
type Phase = sched.Phase

// The pipeline phases in execution order: EPI planning, ESC reservation,
// the stochastic physical phase, and ECE stitching.
const (
	PhasePlan     = sched.PhasePlan
	PhaseReserve  = sched.PhaseReserve
	PhasePhysical = sched.PhasePhysical
	PhaseStitch   = sched.PhaseStitch
)

// CountingTracer is a concurrency-safe Tracer that tallies phase events
// and records per-phase latencies; its zero value is ready to use.
type CountingTracer = sched.CountingTracer

// NewCountingTracer returns an empty CountingTracer.
func NewCountingTracer() *CountingTracer { return sched.NewCountingTracer() }

// JSONLTracer streams every pipeline event as one JSON object per line —
// a machine-readable slot log for offline analysis. Create one with
// NewJSONLTracer and remember to Flush (or Close) before reading the
// output.
type JSONLTracer = sched.JSONLTracer

// NewJSONLTracer returns a tracer streaming JSON lines to w.
func NewJSONLTracer(w io.Writer) *JSONLTracer { return sched.NewJSONLTracer(w) }

// MultiTracer fans events out to several tracers (e.g. a CountingTracer
// plus a JSONLTracer); nil entries are dropped.
func MultiTracer(ts ...Tracer) Tracer { return sched.Multi(ts...) }

// Incident classifies the robustness events a Tracer observes: injected
// faults, degraded slots, LP construction retries and control-plane
// message drops/retries.
type Incident = sched.Incident

// The incident kinds reported through Tracer.Incident.
const (
	IncidentFault        = sched.IncidentFault
	IncidentDegraded     = sched.IncidentDegraded
	IncidentRetry        = sched.IncidentRetry
	IncidentMessageDrop  = sched.IncidentMessageDrop
	IncidentMessageRetry = sched.IncidentMessageRetry
	// Carry-over bank events (fire only with CarrySlots > 0): segments
	// withdrawn at slot start, deposited at slot end, and lost at a slot
	// boundary to the age window or stochastic decoherence.
	IncidentBankWithdraw  = sched.IncidentBankWithdraw
	IncidentBankDeposit   = sched.IncidentBankDeposit
	IncidentBankDecohered = sched.IncidentBankDecohered
	// IncidentRecovery counts recovery-path creation attempts the
	// contention-aware engine fired after a hop's primary segment attempts
	// all failed (see internal/contend).
	IncidentRecovery = sched.IncidentRecovery
	// Correlated-fault events: segment-creation attempts denied by a
	// brownout's channel budget, link-slots lost to flapping, and the
	// announced elements a fault-aware planner routed around.
	IncidentBrownout      = sched.IncidentBrownout
	IncidentFlap          = sched.IncidentFlap
	IncidentForecastAvoid = sched.IncidentForecastAvoid
	// IncidentFloorReject counts candidate connection assemblies the
	// stitch phase rolled back because their predicted end-to-end
	// fidelity missed the request's floor (fires only with
	// SchedulerOptions.FidelityFloors set).
	IncidentFloorReject = sched.IncidentFloorReject
)

// FaultPlan is a deterministic fault schedule for a scheduler: node crash
// windows, link outage windows, control-message loss and memory
// decoherence, all derived from the plan's seed. It is the canonical
// chaos.FaultPlan; build one directly or via ParseFaultSpec.
type FaultPlan = chaos.FaultPlan

// ParseFaultSpec parses the compact fault-spec grammar shared with the
// seesim -faults flag, e.g.
//
//	seed=7;node=3@2-5;link=10@1-;loss=0.05;decohere=0.02
//
// Fields: node=<id>@<from>-<to> crashes a node for a slot window (open
// ends allowed), link=<id>@... takes a link down, loss=<p> drops control
// messages with probability p, decohere=<p> destroys created segments
// with probability p. Correlated items use ':' and are ';'-separated:
// cut:x,y,r@<from>-<to> fails every link whose midpoint lies in the disc,
// brown:link,frac@... keeps frac of a link's channels, and
// flap:link,period,duty@... oscillates a link with the given duty cycle.
// A '!' before an item's first value (e.g. node=!3@2-5, brown:!2,0.5)
// marks it a surprise: it still fires but is hidden from the fault
// forecast the fault-aware schedulers plan around. Windows are inclusive
// slot ranges.
func ParseFaultSpec(s string) (*FaultPlan, error) { return chaos.ParseSpec(s) }

// ParseAlgorithm parses a case-insensitive algorithm name: "see", "reps",
// "e2e", "greedy", "contend", "qpass", "contend-aware", "see-aware" or
// "oracle".
func ParseAlgorithm(s string) (Algorithm, error) { return sched.ParseAlgorithm(s) }

// Algorithms lists all schemes in display order.
var Algorithms = sched.Algorithms

// NewScheduler builds a scheduler for the given algorithm. opts may be nil.
// Every scheme is assembled by the shared internal/engines factory —
// validation, fault injector, degradation ladder and carry-over bank — so
// a scheduler built here behaves identically to one driven by the
// experiment harness.
func NewScheduler(alg Algorithm, net *Network, pairs []SDPair, opts *SchedulerOptions) (Scheduler, error) {
	if net == nil {
		return nil, errors.New("see: nil network")
	}
	raw := make([]topo.SDPair, len(pairs))
	for i, p := range pairs {
		raw[i] = topo.SDPair{S: p.S, D: p.D}
	}
	var o SchedulerOptions
	if opts != nil {
		o = *opts
	}
	return engines.New(alg, net.inner, raw, o)
}

// LoadNetwork reads a topology from the edge-list text format of
// internal/topo.LoadEdgeList:
//
//	node <id> <x-km> <y-km> [memory] [swap-prob]
//	link <u> <v> [length-km] [channels]
//
// Omitted per-element resources fall back to cfg; the segment success
// model is p = e^(−αl) + δ with δ noise seeded by seed.
func LoadNetwork(r io.Reader, cfg NetworkConfig, seed int64) (*Network, error) {
	net, err := topo.LoadEdgeList(r, resourceDefaults(cfg, seed))
	if err != nil {
		return nil, err
	}
	return &Network{inner: net}, nil
}

// NSFNETNetwork returns the classic 14-node NSFNET backbone with the given
// resource configuration — a standard reference topology for quantum
// network evaluations.
func NSFNETNetwork(cfg NetworkConfig, seed int64) (*Network, error) {
	net, err := topo.NSFNet(resourceDefaults(cfg, seed))
	if err != nil {
		return nil, err
	}
	return &Network{inner: net}, nil
}

// ChoosePairs samples SD pairs from an existing network (loaded or
// generated), deterministically from the seed.
func ChoosePairs(net *Network, count int, seed int64) []SDPair {
	raw := topo.ChooseSDPairs(net.inner, count, xrand.New(seed))
	pairs := make([]SDPair, len(raw))
	for i, p := range raw {
		pairs[i] = SDPair{S: p.S, D: p.D}
	}
	return pairs
}

func resourceDefaults(cfg NetworkConfig, seed int64) topo.ResourceDefaults {
	return topo.ResourceDefaults{
		Memory:   cfg.Memory,
		Channels: cfg.Channels,
		SwapProb: cfg.SwapProb,
		Alpha:    cfg.Alpha,
		Delta:    cfg.Delta,
		Seed:     seed,
	}
}

// Traffic selects how SD pairs are drawn (see ChoosePairsWithTraffic).
type Traffic int

// Traffic patterns: the paper's uniform sampling, a data-centre hotspot,
// and gravity-style geographic clustering.
const (
	TrafficUniform Traffic = iota
	TrafficHotspot
	TrafficGravity
)

// ChoosePairsWithTraffic samples SD pairs under a traffic pattern,
// deterministically from the seed. TrafficHotspot anchors half the demand
// at the highest-degree node; TrafficGravity prefers geographically close
// pairs.
func ChoosePairsWithTraffic(net *Network, count int, pattern Traffic, seed int64) []SDPair {
	cfg := topo.TrafficConfig{Hub: -1}
	switch pattern {
	case TrafficHotspot:
		cfg.Pattern = topo.TrafficHotspot
	case TrafficGravity:
		cfg.Pattern = topo.TrafficGravity
	default:
		cfg.Pattern = topo.TrafficUniform
	}
	raw := topo.ChooseSDPairsWithTraffic(net.inner, count, cfg, xrand.New(seed))
	pairs := make([]SDPair, len(raw))
	for i, p := range raw {
		pairs[i] = SDPair{S: p.S, D: p.D}
	}
	return pairs
}

// TrafficServer drives a Scheduler as a long-lived entanglement traffic
// server: an arrival process generates per-user connection requests with
// QoS classes and deadlines, an admission controller bounds the active
// set, and each slot's established connections serve the queued requests
// of their SD pairs in class-priority order. See internal/serve and
// DESIGN.md §8.
type TrafficServer = serve.Server

// ServeConfig parameterizes a TrafficServer; build one from a spec string
// with ParseArrivalSpec.
type ServeConfig = serve.Config

// ServeReport summarizes a service-mode run: throughput next to per-class
// service rates and Jain's fairness index over per-user service.
type ServeReport = serve.Report

// ServeSlotStats reports one service-mode slot.
type ServeSlotStats = serve.SlotStats

// ParseArrivalSpec parses a service-mode arrival specification such as
//
//	poisson;rate=3;users=200;mix=0.2/0.3/0.5;deadline=4/8/16;max-active=64
//
// (also diurnal and bursty processes; see serve.ParseSpec for the full
// grammar). The caller sets Seed — and Tracer, when pipeline counters
// should ride along in checkpoints — on the returned config.
func ParseArrivalSpec(spec string) (ServeConfig, error) {
	return serve.ParseSpec(spec)
}

// NewTrafficServer builds a traffic server over a scheduler serving
// `pairs` SD pairs (the length of the pair set the scheduler was built
// with). The server owns all randomness: arrivals and the scheduler's
// slots draw from one internal stream seeded by cfg.Seed, which is what
// makes a checkpoint cursor pin the remaining run.
func NewTrafficServer(s Scheduler, pairs int, cfg ServeConfig) (*TrafficServer, error) {
	return serve.New(s, pairs, cfg)
}
