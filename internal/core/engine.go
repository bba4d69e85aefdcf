// Package core implements the paper's contribution — the SEE scheduler:
//
//   - EPI (Algorithm 1): Entanglement Path Identification — LP relaxation
//     of formulation (1), solved via internal/flow, followed by randomized
//     rounding into concrete entanglement paths.
//   - ESC (Algorithm 2): Entanglement Segment Creation — ordered, fair
//     reservation of channels and memory so that the expected number of
//     created segments covers every provisioned path, preferring
//     high-probability physical realizations.
//   - ECE (Algorithm 3): Entanglement Connection Establishment — assignment
//     of realized segments to provisioned paths, then opportunistic
//     shortest-path construction of extra connections from leftovers on the
//     auxiliary graph with node weight −ln q_u.
//
// The Engine glues the three to the stochastic physical phase (segment
// creation attempts, quantum swapping) to simulate one time slot of a QDN.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"see/internal/flow"
	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/segment"
	"see/internal/topo"
)

// Options configures a SEE engine. The embedded sched.EngineOptions carry
// the knobs every engine shares; their Algorithm defaults to sched.SEE, and
// the E2E and SEE-Aware variants built in internal/engines override it.
type Options struct {
	sched.EngineOptions
	// Segment tunes candidate enumeration (hop cap, K paths, pruning).
	Segment segment.Options
	// Flow tunes the LP relaxation solve.
	Flow flow.Options
	// StrictProvisioning makes ESC follow Algorithm 2 verbatim: a path is
	// provisioned only if the *expected* number of created segments covers
	// its demand on every hop. The default (false) additionally keeps
	// paths whose segments each received at least one attempt, which is
	// strictly better in resource-starved networks.
	StrictProvisioning bool
	// CarryAwareLP re-prices the LP at the start of any slot that
	// withdrew banked segments, dividing each segment edge's pricing cost
	// by a weight grown with the banked inventory covering it (see
	// flow.Options.CarryWeights), so EPI's rounding tables prefer paths
	// that can stitch through already-realized, high-fidelity carried
	// segments. Slots with an empty bank — and engines without a bank —
	// plan on the construction-time LP unchanged.
	CarryAwareLP bool
}

// DefaultOptions returns the SEE defaults: paper §III-D candidate pruning
// and the swap-survival-weighted LP objective (see flow.Options).
func DefaultOptions() Options {
	seg := segment.DefaultOptions()
	seg.MaxSegmentHops = 10
	return Options{
		Segment: seg,
		Flow:    flow.Options{SwapWeightedObjective: true},
	}
}

// Engine runs SEE time slots over a fixed network and SD-pair workload.
// The LP relaxation depends only on the (static) topology, so it is solved
// once at construction; each slot performs randomized rounding, resource
// reservation, the stochastic physical phase and connection establishment.
type Engine struct {
	Net   *topo.Network
	Pairs []topo.SDPair
	Set   *segment.Set
	// LP is the cached fractional optimum (an upper bound on per-slot
	// expected throughput).
	LP *flow.Solution
	// ConnCap is the per-pair connection cap N_i.
	ConnCap []int

	// Frame runs the slot lifecycle around the engine's EPI, ESC and ECE
	// steps and provides the Stateful and Checkpointable capabilities.
	sched.Frame

	opts Options
	// slot is the reusable per-slot scratch (see scratch.go); epiPaths and
	// epiWeights are the lazily derived EPI tables of the fixed LP.
	slot       *slotScratch
	epiPaths   [][]flow.PathFlow
	epiWeights [][]float64
	// carryArena carries the dual-independent pricing tables across the
	// carry-aware per-slot LP re-solves (Options.CarryAwareLP); the
	// re-solve bypasses the warm cache because its inputs change with the
	// slot's banked inventory.
	carryArena flow.Arena
}

var (
	_ sched.Stateful       = (*Engine)(nil)
	_ sched.Checkpointable = (*Engine)(nil)
)

// NewEngine builds the candidate set and solves the LP relaxation.
func NewEngine(net *topo.Network, pairs []topo.SDPair, opts Options) (*Engine, error) {
	return NewEngineCtx(nil, net, pairs, opts)
}

// NewEngineCtx is NewEngine with the LP relaxation solve bounded by a
// context (nil = never cancelled). An expired deadline aborts construction
// with an error wrapping ctx.Err(); the degradation ladder in
// internal/engines uses this to fall back to the greedy engine when the
// solve blows its slot budget.
func NewEngineCtx(ctx context.Context, net *topo.Network, pairs []topo.SDPair, opts Options) (*Engine, error) {
	if net == nil {
		return nil, errors.New("core: nil network")
	}
	if len(pairs) == 0 {
		return nil, errors.New("core: no SD pairs")
	}
	// Budgeted construction (non-nil ctx) bypasses the warm cache so
	// timeout behavior never depends on what some earlier build memoized.
	useWarm := opts.Warm != nil && ctx == nil
	var set *segment.Set
	var err error
	if useWarm {
		set, err = opts.Warm.SegmentSet(net, pairs, opts.Segment)
	} else {
		set, err = segment.Build(net, pairs, opts.Segment)
	}
	if err != nil {
		return nil, fmt.Errorf("core: building candidates: %w", err)
	}
	// Fault-aware planning: the forecast-shrunk capacity tables feed the
	// LP (capacity overrides and, via ConnCap below, the per-pair caps);
	// with both nil the solve sees the network tables unchanged.
	if opts.PlanChannels != nil {
		opts.Flow.Channels = opts.PlanChannels
	}
	if opts.PlanMemory != nil {
		opts.Flow.Memory = opts.PlanMemory
	}
	connCap := opts.Flow.ConnCap
	if connCap == nil {
		mem := net.Memory
		if opts.PlanMemory != nil {
			mem = opts.PlanMemory
		}
		connCap = make([]int, len(pairs))
		for i, sd := range pairs {
			connCap[i] = min(mem[sd.S], mem[sd.D])
		}
		opts.Flow.ConnCap = connCap
	}
	var sol *flow.Solution
	if useWarm {
		sol, err = opts.Warm.Solve(set, opts.Flow)
	} else {
		sol, err = flow.SolveCtx(ctx, set, opts.Flow)
	}
	if err != nil {
		return nil, fmt.Errorf("core: solving LP relaxation: %w", err)
	}
	opts.Tracer = sched.OrNop(opts.Tracer)
	e := &Engine{
		Net:     net,
		Pairs:   pairs,
		Set:     set,
		LP:      sol,
		ConnCap: connCap,
		opts:    opts,
	}
	e.Init(net, len(pairs), opts.EngineOptions, set.CandidateFor, sched.Steps{
		Bound:   e.UpperBound,
		Plan:    e.planStep,
		Reserve: e.reserveStep,
		Stitch:  e.stitchStep,
	})
	return e, nil
}

// SlotPlan is the controller's decision for one time slot (steps i–ii of
// §II-F): which entanglement paths to pursue and how many creation attempts
// to reserve on each physical segment.
type SlotPlan struct {
	// Planned are the entanglement paths identified by EPI.
	Planned []PlannedPath
	// Provisioned is the subset D for which ESC reserved full resources.
	Provisioned []PlannedPath
	// Attempts is the creation plan {x^k_uv}.
	Attempts qnet.AttemptPlan
}

// PlanSlot runs EPI + ESC and returns the slot plan. The protocol layer
// uses it to drive the distributed execution; RunSlot runs the same two
// steps through the slot frame.
func (e *Engine) PlanSlot(rng *rand.Rand) (*SlotPlan, error) {
	planned := e.identifyPaths(rng)
	plan, provisioned, err := e.createSegmentsPlan(planned)
	if err != nil {
		return nil, err
	}
	return &SlotPlan{Planned: planned, Provisioned: provisioned, Attempts: plan}, nil
}

// planStep is EPI, step i of the slot. With carry-aware pricing enabled
// and banked inventory in hand, the slot rounds over a re-priced LP whose
// columns prefer the carried segments; otherwise it rounds over the
// construction-time optimum.
func (e *Engine) planStep(s *sched.Slot) {
	lp := e.LP
	if e.opts.CarryAwareLP && len(s.Withdrawn) > 0 {
		if sol := e.carryAwareSolve(s.Withdrawn); sol != nil {
			lp = sol
		}
	}
	sc := e.scratch()
	sc.planned = e.identifyPathsLP(lp, s.Rng)
	s.Result.PlannedPaths = len(sc.planned)
	if s.Traced {
		for _, p := range sc.planned {
			s.Tracer.PathPlanned(p.Commodity, len(p.Hops))
		}
	}
}

// reserveStep is ESC, step ii: it reserves the slot's segment-creation
// attempts in the engine's slot scratch (PlanSlot allocates fresh because
// its plan escapes to the caller).
func (e *Engine) reserveStep(s *sched.Slot) (qnet.AttemptPlan, qnet.AttemptPlan, error) {
	sc := e.scratch()
	plan, provisioned, err := e.createSegmentsPlanScratch(sc.planned, sc)
	if err != nil {
		return nil, nil, err
	}
	sc.provisioned = provisioned
	s.Result.ProvisionedPaths = len(provisioned)
	if s.Traced {
		for _, p := range provisioned {
			s.Tracer.PathProvisioned(p.Commodity)
		}
	}
	return plan, nil, nil
}

// stitchStep is ECE, steps iii–iv: it assembles connections from the
// realized segments, sampling swaps as it goes; failed swaps consume
// segments but spare (redundant) segments allow further attempts.
func (e *Engine) stitchStep(s *sched.Slot, pool *qnet.Pool) []*qnet.Connection {
	sc := e.scratch()
	conns, attempts, floorRejected := e.establishFromPoolScratch(sc.provisioned, pool, s.Rng, sc)
	sc.planned, sc.provisioned = nil, nil
	s.Result.Assembled = attempts
	s.Result.FloorRejected = floorRejected
	return conns
}

// carryAwareSolve re-prices the LP with the slot's banked inventory folded
// into column pricing: every withdrawn segment adds its decayed Werner
// quality to its endpoint pair's edge weight, so pricing sees segment
// edges already covered by high-fidelity carried photons as cheaper (see
// flow.Options.CarryWeights). A failed solve falls back to the
// construction-time LP rather than failing the slot.
func (e *Engine) carryAwareSolve(withdrawn []*qnet.Segment) *flow.Solution {
	weights := make([]float64, len(e.Set.EdgePairs))
	for i := range weights {
		weights[i] = 1
	}
	any := false
	for _, s := range withdrawn {
		id, ok := e.Set.EdgeOf[segment.MakePairKey(s.A, s.B)]
		if !ok {
			continue
		}
		weights[id] += s.WernerScale()
		any = true
	}
	if !any {
		return nil
	}
	fo := e.opts.Flow
	fo.CarryWeights = weights
	fo.Arena = &e.carryArena
	sol, err := flow.SolveCtx(nil, e.Set, fo)
	if err != nil {
		return nil
	}
	return sol
}

// UpperBound returns the LP objective, an upper bound on the expected
// number of connections SEE can establish per slot.
func (e *Engine) UpperBound() float64 { return e.LP.Objective }
