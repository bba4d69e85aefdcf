package sched

import (
	"fmt"
	"math/rand"
	"time"

	"see/internal/chaos"
	"see/internal/qnet"
	"see/internal/segment"
	"see/internal/state"
	"see/internal/topo"
	"see/internal/warm"
)

// EngineOptions are the options every engine shares. Each engine's own
// Options struct embeds them, so a cross-cutting knob is declared, and
// documented, once.
type EngineOptions struct {
	// Algorithm is the scheme label the engine reports through
	// Engine.Algorithm, the Tracer and its checkpoints. Engines that serve
	// several labels (SEE, E2E and SEE-Aware run on internal/core) take it
	// from here; each constructor documents its default.
	Algorithm Algorithm
	// Tracer observes the slot pipeline; nil means no instrumentation.
	Tracer Tracer
	// Chaos injects deterministic faults into the physical phase (blocked
	// routes, brownouts, memory decoherence); nil or a zero-plan injector
	// leaves the engine byte-identical to a run without any chaos layer.
	// Planning stays unaware of outages unless the fault-aware fields
	// below are set.
	Chaos *chaos.Injector
	// PlanChannels / PlanMemory, when non-nil, replace the network's
	// capacity tables in every planning decision (LP right-hand sides,
	// connection caps, reservation ledgers, contention residuals) while
	// the physical phase keeps the true topology. The fault-aware builders
	// in internal/engines derive them from chaos.Forecast, so planning on
	// the full topology with announced outages is byte-identical to
	// planning on the equivalent pre-shrunk topology.
	PlanChannels []int
	PlanMemory   []int
	// ForecastAvoided is the number of announced elements the planner
	// routes around; when positive it is reported every slot as
	// IncidentForecastAvoid.
	ForecastAvoided int
	// Warm, when non-nil, memoizes segment sets and LP solutions across
	// engine (re)builds over the same network (see internal/warm).
	// Replayed artifacts are byte-identical to cold builds; budgeted
	// construction (non-nil ctx) bypasses the cache so degradation
	// behavior is cache-independent.
	Warm *warm.Cache
	// FidelityFloors is the per-request minimum delivered end-to-end
	// fidelity. No stitch step attempts an assembly whose predicted
	// fidelity (qnet.FloorPolicy) misses its pair's floor. Nil or all-zero
	// disables enforcement and is byte-identical to pre-floor behavior.
	FidelityFloors *qnet.FloorSpec
	// SwapOrder selects the stitch phase's swap schedule; the zero value
	// (qnet.SwapOrderPath) is the historical left-to-right order.
	SwapOrder qnet.SwapOrder
}

// Steps are an engine's own parts of a slot; the Frame runs everything
// else. Hooks report through the Slot they receive: tracer events, and
// the SlotResult counters only they know (planned and provisioned paths,
// assembly attempts, floor rejections).
type Steps struct {
	// Bound returns the engine's planning value, reported as
	// SlotResult.LPObjective.
	Bound func() float64
	// Plan is the plan phase (EPI rounding for SEE). Nil means the engine
	// plans nothing per slot and the slot reports no PhasePlan (REPS).
	Plan func(s *Slot)
	// Reserve returns the slot's creation plan and any standby attempts.
	// The Frame trims the plan by the slot's carried segments; standby
	// attempts (contend's recovery reserve) are counted and reported but
	// never trimmed or fired by the Frame.
	Reserve func(s *Slot) (plan, standby qnet.AttemptPlan, err error)
	// Recover, when set, runs inside the physical phase after the primary
	// attempts and decoherence, before fault attribution, and returns the
	// slot's realized segments with any it added.
	Recover func(s *Slot, created []*qnet.Segment) []*qnet.Segment
	// Stitch assembles connections from the slot's segment pool. The
	// returned slice becomes SlotResult.Connections, so it must be freshly
	// allocated, never scratch.
	Stitch func(s *Slot, pool *qnet.Pool) []*qnet.Connection
}

// Slot is the per-slot context the Frame hands to an engine's Steps.
type Slot struct {
	// Rng drives every stochastic outcome of the slot.
	Rng *rand.Rand
	// Tracer is the engine's tracer (never nil); Traced is false under a
	// no-op tracer, so hooks skip work that only feeds tracer events.
	Tracer Tracer
	Traced bool
	// Result is the slot's report under construction.
	Result *SlotResult
	// Withdrawn are the carried segments withdrawn from the bank at slot
	// start (nil without a bank). They join the stitch pool ahead of the
	// fresh ones.
	Withdrawn []*qnet.Segment
	// Faults is the active fault model (nil when chaos is inert).
	Faults qnet.FaultModel
	// Observe reports each physical attempt to the tracer; nil on bare
	// runs.
	Observe qnet.AttemptObserver

	frame *Frame
}

// Frame runs the slot lifecycle every engine shares: the tracer's slot
// bracket, the chaos slot clock and incident attribution, the forecast
// incident, the cross-slot bank, the physical phase, the stitch pool,
// phase timing and connection accounting. An engine embeds a Frame, calls
// Init once construction is done, and gets RunSlot, Algorithm, Stateful
// and Checkpointable from it.
type Frame struct {
	net     *topo.Network
	opts    EngineOptions
	steps   Steps
	traced  bool
	resolve state.CandidateResolver
	bank    *state.Bank

	// Per-slot scratch: the physical phase's ordering buffer, the stitch
	// pool, the per-pair counters of StitchFixed and the tracer callbacks.
	// None of it outlives the slot.
	slot    Slot
	att     qnet.AttemptScratch
	pool    *qnet.Pool
	served  []int
	floors  qnet.FloorPolicy
	observe qnet.AttemptObserver
	swaps   qnet.SwapObserver
}

// Init wires the frame to its engine: the network and demand size, the
// shared options, the resolver that re-links restored banked segments to
// the engine's candidate catalogue, and the engine's steps.
func (f *Frame) Init(net *topo.Network, numPairs int, opts EngineOptions, resolve state.CandidateResolver, steps Steps) {
	opts.Tracer = OrNop(opts.Tracer)
	tr := opts.Tracer
	f.net, f.opts, f.steps, f.resolve = net, opts, steps, resolve
	f.traced = !IsNop(tr)
	f.served = make([]int, numPairs)
	f.floors = qnet.NewFloorPolicy(opts.FidelityFloors, net)
	f.swaps = tr.SwapResolved
	if f.traced {
		f.observe = func(c *segment.Candidate, ok bool) { tr.AttemptResolved(c.U(), c.V(), ok) }
	}
}

// RunSlot implements Engine: one time slot through the four phases, with
// the engine's steps in their places. The rng drives the engine's rounding,
// the physical phase and the swaps; a fixed rng state reproduces the slot,
// and tracers observe outcomes without consuming randomness.
func (f *Frame) RunSlot(rng *rand.Rand) (*SlotResult, error) {
	res, err := f.runSlot(rng, &f.slot)
	// The slot context is scratch: drop its references to the result and
	// the carried segments so the frame does not keep them alive.
	f.slot = Slot{}
	return res, err
}

func (f *Frame) runSlot(rng *rand.Rand, s *Slot) (*SlotResult, error) {
	tr := f.opts.Tracer
	tr.SlotStart(f.opts.Algorithm)
	res := &SlotResult{LPObjective: f.steps.Bound(), PerPair: make([]int, len(f.served))}
	*s = Slot{Rng: rng, Tracer: tr, Traced: f.traced, Result: res, Observe: f.observe, frame: f}

	// Chaos slot clock. With a nil or zero-plan injector Faults stays nil
	// and every fault check short-circuits, so the slot is byte-identical
	// to a run without the chaos layer.
	in := f.opts.Chaos
	var before chaos.Counts
	begun := 0
	if in.Active() {
		before = in.Counts()
		in.BeginSlot()
		begun = in.Counts().Total()
		s.Faults = in
	}
	if n := f.opts.ForecastAvoided; n > 0 {
		tr.Incident(IncidentForecastAvoid, n)
	}

	// Cross-slot state: age out banked segments, then withdraw the
	// survivors for this slot. Every bank interaction is gated on the bank
	// being attached, so the memoryless path is untouched.
	if f.bank != nil {
		if expired, decohered := f.bank.BeginSlot(); expired+decohered > 0 {
			tr.Incident(IncidentBankDecohered, expired+decohered)
		}
		if s.Withdrawn = f.bank.WithdrawAll(); len(s.Withdrawn) > 0 {
			tr.Incident(IncidentBankWithdraw, len(s.Withdrawn))
		}
	}

	t0 := f.now()
	if f.steps.Plan != nil {
		f.steps.Plan(s)
		t0 = f.phaseDone(PhasePlan, t0)
	}

	plan, standby, err := f.steps.Reserve(s)
	if err != nil {
		return nil, err
	}
	// Carried segments substitute for planned creation attempts on their
	// endpoint pair, shrinking this slot's reservation demand; the bank's
	// policy can refuse substitution by segments decayed below its minimum
	// Werner scale. The engine's cached plan is never mutated.
	plan, _ = f.bank.TrimPlan(plan, s.Withdrawn)
	res.Attempts = plan.TotalAttempts() + standby.TotalAttempts()
	if s.Traced {
		for _, c := range plan.SortedCandidates() {
			tr.AttemptReserved(c.U(), c.V(), plan[c])
		}
		for _, c := range standby.SortedCandidates() {
			tr.AttemptReserved(c.U(), c.V(), standby[c])
		}
	}
	t0 = f.phaseDone(PhaseReserve, t0)

	// Physical phase: attempts succeed i.i.d. unless a fault blocks them;
	// memory decoherence then loses realized segments before the stitch.
	// SegmentsCreated counts what the attempts yielded, before the loss.
	created := qnet.AttemptAllFaultyScratch(plan, rng, s.Faults, s.Observe, &f.att)
	res.SegmentsCreated = len(created)
	created, _ = qnet.ApplyDecoherence(created, s.Faults)
	if f.steps.Recover != nil {
		created = f.steps.Recover(s, created)
	}
	if s.Faults != nil {
		f.attribute(before, begun)
	}
	t0 = f.phaseDone(PhasePhysical, t0)

	// Stitch: withdrawn carried segments join the pool ahead of the fresh
	// ones so the oldest photons are consumed preferentially.
	slotSegs := append(s.Withdrawn, created...)
	if f.pool == nil {
		f.pool = qnet.NewPool(slotSegs)
	} else {
		f.pool.Reset(slotSegs)
	}
	conns := f.steps.Stitch(s, f.pool)
	for _, c := range conns {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("sched: %v assembled an invalid connection: %w", f.opts.Algorithm, err)
		}
		res.PerPair[c.Pair]++
	}
	if len(conns) > 0 {
		res.Established = len(conns)
		res.Connections = conns
	}
	// Bank the slot's unconsumed leftovers (fresh and re-deposited carried
	// segments alike) for the next slot, within each node's memory budget.
	if f.bank != nil {
		if accepted := f.bank.Deposit(f.pool.Unconsumed()); accepted > 0 {
			tr.Incident(IncidentBankDeposit, accepted)
		}
	}
	f.phaseDone(PhaseStitch, t0)
	tr.SlotEnd(res)
	return res, nil
}

// attribute reports the slot's chaos damage: brownout denials and flap
// downs get their own incident kinds and the rest of the physical-phase
// delta stays IncidentFault. Flap downs are counted by BeginSlot, before
// the begun snapshot, so they never leak into the fault count.
func (f *Frame) attribute(before chaos.Counts, begun int) {
	tr, now := f.opts.Tracer, f.opts.Chaos.Counts()
	da := now.Sub(before)
	if d := now.Total() - begun - da.BrownoutAttemptsLost; d > 0 {
		tr.Incident(IncidentFault, d)
	}
	if da.FlapSlotsDown > 0 {
		tr.Incident(IncidentFlap, da.FlapSlotsDown)
	}
	if da.BrownoutAttemptsLost > 0 {
		tr.Incident(IncidentBrownout, da.BrownoutAttemptsLost)
	}
}

// now starts a phase timer; bare runs never read the clock.
func (f *Frame) now() time.Time {
	if !f.traced {
		return time.Time{}
	}
	return time.Now()
}

// phaseDone reports a phase's duration to the tracer and returns the start
// of the next phase.
func (f *Frame) phaseDone(ph Phase, t0 time.Time) time.Time {
	if !f.traced {
		return t0
	}
	now := time.Now()
	f.opts.Tracer.PhaseDone(ph, now.Sub(t0))
	return now
}

// Algorithm implements Engine.
func (f *Frame) Algorithm() Algorithm { return f.opts.Algorithm }

// AttachBank implements Stateful: it installs the cross-slot segment bank
// (nil detaches, restoring memoryless behavior).
func (f *Frame) AttachBank(b *state.Bank) { f.bank = b }

// Bank implements Stateful.
func (f *Frame) Bank() *state.Bank { return f.bank }

// EngineState implements Checkpointable: an engine's only cross-slot state
// is the chaos injector's phase and the bank's contents; candidates, LP
// solutions and fixed plans are deterministic from construction.
func (f *Frame) EngineState() (*EngineState, error) {
	return &EngineState{
		Algorithm: f.opts.Algorithm,
		Chaos:     f.opts.Chaos.State(),
		Bank:      f.bank.State(),
	}, nil
}

// RestoreEngineState implements Checkpointable, re-linking restored banked
// segments to the engine's candidate catalogue.
func (f *Frame) RestoreEngineState(st *EngineState) error {
	if err := CheckRestoreAlgorithm(f.opts.Algorithm, st); err != nil {
		return err
	}
	var chaosSt *chaos.InjectorState
	var bankSt *state.BankState
	if st != nil {
		chaosSt, bankSt = st.Chaos, st.Bank
	}
	if err := f.opts.Chaos.Restore(chaosSt); err != nil {
		return fmt.Errorf("sched: restoring %v: %w", f.opts.Algorithm, err)
	}
	if err := f.bank.Restore(bankSt, f.resolve); err != nil {
		return fmt.Errorf("sched: restoring %v: %w", f.opts.Algorithm, err)
	}
	return nil
}
