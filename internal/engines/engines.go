// Package engines is the single construction point for the slot-pipeline
// engines: it maps a sched.Algorithm to the package implementing it
// (internal/core for SEE, SEE-Aware and E2E; internal/reps;
// internal/greedy; internal/contend for Contend, Contend-Aware and QPass;
// internal/oracle) and translates the shared Config — the one struct that
// declares every scheduler knob — into each engine's options. Both the
// public API (package see) and the experiment harness build schedulers
// through New, which also assembles the fault injector, the degradation
// ladder and the carry-over bank, so no algorithm type-switch and no
// scheduler assembly exists anywhere else.
//
// The package also owns the degradation ladder (NewResilient): when an
// LP-based engine's construction exceeds its slot budget or fails, the
// scheduler falls back to the greedy non-LP engine for the affected slots
// and retries the LP a bounded number of times, reporting every step
// through the tracer (see DESIGN.md "Fault model & degradation ladder").
package engines

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"see/internal/chaos"
	"see/internal/contend"
	"see/internal/core"
	"see/internal/greedy"
	"see/internal/oracle"
	"see/internal/qnet"
	"see/internal/reps"
	"see/internal/sched"
	"see/internal/state"
	"see/internal/topo"
	"see/internal/warm"
)

// Config is the one declaration of every scheduler knob: the public API
// (see.SchedulerOptions is an alias of it), the experiment harness and
// the CLI all build schedulers from it. The zero value selects paper
// defaults for every scheme and builds a bare, memoryless engine.
type Config struct {
	// KPaths is the Yen candidate-path budget per SD pair (0 = default:
	// 5 for SEE/REPS/Greedy, 1 for E2E).
	KPaths int
	// MaxSegmentHops caps physical hops per entanglement segment for SEE
	// (0 = default 10).
	MaxSegmentHops int
	// MinSegmentProb prunes low-probability candidate segments for SEE
	// (0 = default 0.05).
	MinSegmentProb float64
	// StrictProvisioning switches SEE's ESC to the paper-literal
	// Algorithm 2 (see core.Options).
	StrictProvisioning bool
	// PlainObjective disables the swap-survival weighting of the LP
	// objective (ablation; see flow.Options.SwapWeightedObjective).
	PlainObjective bool
	// Workers bounds the goroutines used by the LP pricing rounds of every
	// scheme (0 = GOMAXPROCS, 1 = serial; see flow.Options.Workers).
	// Results are byte-identical at any worker count, so the knob trades
	// construction latency only.
	Workers int
	// Tracer observes the slot pipeline phases (planning, reservation,
	// physical attempts, stitching) and every incident; nil means no
	// instrumentation.
	Tracer sched.Tracer
	// Chaos is a ready-built fault injector for the engine's physical
	// phase; nil (or a zero-plan injector) leaves engines byte-identical
	// to a run without the chaos layer. Most callers set Faults instead
	// and let New build the injector; setting both is an error.
	Chaos *chaos.Injector
	// Faults is a deterministic fault schedule (node crashes, link
	// outages, correlated cuts, brownouts, flapping links, control-message
	// loss, memory decoherence). New builds a fresh injector from it on
	// every call — injectors hold per-slot state, so two schedulers never
	// share one. Nil (or a zero plan) injects nothing.
	Faults *chaos.FaultPlan
	// SlotBudget bounds the LP solve, which then runs lazily inside the
	// first slot. When the solve exceeds the budget or fails, the slot
	// degrades to the greedy fallback and the LP is retried on later slots
	// a bounded number of times, each step reported through the Tracer as
	// an incident (see Resilient). Zero means no budget and no ladder.
	SlotBudget time.Duration
	// CarrySlots enables the cross-slot entanglement-state bank (see
	// internal/state and DESIGN.md §6) and sets its age window: realized
	// segments no connection consumed stay in node memories, within each
	// node's memory size m_u, for this many slot boundaries and substitute
	// for planned creation attempts when withdrawn. Banked segments also
	// decohere stochastically at each boundary with the Faults plan's
	// decoherence probability (zero without a plan). Zero means no bank:
	// the scheduler is memoryless.
	CarrySlots int
	// CarryWernerRetention, with CarrySlots, ages banked segments: a
	// segment withdrawn n slot boundaries after creation has its Werner
	// parameter scaled by retention^n. 0 (or >= 1) disables aging. See
	// state.Policy.WernerRetention.
	CarryWernerRetention float64
	// CarryMinWernerScale, with CarrySlots, stops a withdrawn segment
	// whose decayed Werner scale fell below the threshold from
	// substituting for planned creation attempts. See
	// state.Policy.MinWernerScale.
	CarryMinWernerScale float64
	// CarryAwareLP, with CarrySlots, re-prices the SEE LP at the start of
	// any slot that withdrew banked segments, so column generation prefers
	// stitches that reuse carried inventory. Without banked inventory the
	// slot runs the unmodified LP (see flow.Options.CarryWeights).
	CarryAwareLP bool
	// Warm, when non-nil, memoizes segment-candidate sets and LP solutions
	// across engine (re)builds over the same network (see internal/warm
	// and DESIGN.md §9). Every replayed artifact is byte-identical to a
	// cold build, and budgeted construction bypasses the cache, so enabling
	// it never changes results — only how fast rebuilds go.
	Warm *warm.Cache
	// FidelityFloors is the per-request minimum delivered end-to-end
	// fidelity (see qnet.FloorSpec and DESIGN.md §10). The stitch phase
	// never attempts a candidate assembly whose predicted fidelity misses
	// its pair's floor; the rejection is reported as IncidentFloorReject
	// and in SlotResult.FloorRejected. Nil (or an all-zero spec) disables
	// enforcement and leaves every engine byte-identical to pre-floor
	// behavior.
	FidelityFloors *qnet.FloorSpec
	// SwapOrder selects the stitch phase's swap schedule. The zero value
	// (qnet.SwapOrderPath) samples a connection's junction swaps from
	// source to destination; qnet.SwapOrderGreedy swaps the least reliable
	// junction first, so doomed connections fail before burning spare
	// segments. Delivered fidelity is swap-order-independent; throughput
	// is not.
	SwapOrder qnet.SwapOrder
}

// Validate rejects a configuration no scheduler can honour. New calls it
// before building anything, and so does every layer that accepts a Config
// (experiment.Params.Validate), so a bad knob fails the same way at every
// entry point.
func (cfg Config) Validate() error {
	switch {
	case cfg.KPaths < 0:
		return fmt.Errorf("engines: negative KPaths %d", cfg.KPaths)
	case cfg.MaxSegmentHops < 0:
		return fmt.Errorf("engines: negative MaxSegmentHops %d", cfg.MaxSegmentHops)
	case !inUnit(cfg.MinSegmentProb):
		return fmt.Errorf("engines: MinSegmentProb %v outside [0,1]", cfg.MinSegmentProb)
	case cfg.Workers < 0:
		return fmt.Errorf("engines: negative Workers %d (0 selects GOMAXPROCS)", cfg.Workers)
	case cfg.Faults != nil && cfg.Chaos != nil:
		return errors.New("engines: both Faults and Chaos set (New builds the injector from Faults)")
	case cfg.SlotBudget < 0:
		return fmt.Errorf("engines: negative SlotBudget %v", cfg.SlotBudget)
	case cfg.CarrySlots < 0:
		return fmt.Errorf("engines: negative CarrySlots %d", cfg.CarrySlots)
	case !(cfg.CarryWernerRetention >= 0):
		return fmt.Errorf("engines: CarryWernerRetention %v is negative or NaN", cfg.CarryWernerRetention)
	case !(cfg.CarryMinWernerScale >= 0):
		return fmt.Errorf("engines: CarryMinWernerScale %v is negative or NaN", cfg.CarryMinWernerScale)
	case cfg.SwapOrder != qnet.SwapOrderPath && cfg.SwapOrder != qnet.SwapOrderGreedy:
		return fmt.Errorf("engines: unknown SwapOrder %v", cfg.SwapOrder)
	}
	if f := cfg.FidelityFloors; f != nil {
		if !inUnit(f.Default) {
			return fmt.Errorf("engines: fidelity floor %v outside [0,1]", f.Default)
		}
		for pair, v := range f.PerPair {
			if !inUnit(v) {
				return fmt.Errorf("engines: fidelity floor %v for pair %d outside [0,1]", v, pair)
			}
		}
	}
	return nil
}

// inUnit reports whether v lies in [0,1]; NaN does not.
func inUnit(v float64) bool { return v >= 0 && v <= 1 }

// Builder constructs one scheme's engine; ctx (nil = never cancelled)
// bounds any LP solves the construction performs.
type Builder func(ctx context.Context, net *topo.Network, pairs []topo.SDPair, cfg Config) (sched.Engine, error)

// builders is the algorithm registry.
var builders = map[sched.Algorithm]Builder{
	sched.SEE:          newSEE,
	sched.REPS:         newREPS,
	sched.E2E:          newE2E,
	sched.Greedy:       newGreedy,
	sched.Contend:      newContend,
	sched.QPass:        newQPass,
	sched.ContendAware: newContendAware,
	sched.SEEAware:     newSEEAware,
	sched.Oracle:       newOracle,
}

// List returns every registered algorithm in ascending order. The
// cross-engine invariant harness (internal/sched/schedtest) iterates this
// list so a newly registered engine is automatically subjected to the
// shared pipeline invariants.
func List() []sched.Algorithm {
	out := make([]sched.Algorithm, 0, len(builders))
	for alg := range builders {
		out = append(out, alg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// New builds the whole scheduler for the given algorithm from cfg. It
// validates cfg, builds a fresh chaos injector from Faults, wraps the
// engine in the degradation ladder when SlotBudget > 0, and attaches a
// carry-over bank when CarrySlots > 0; the bank's stochastic boundary
// hazard and its seed come from the fault plan. A config that sets none of
// Faults, SlotBudget and CarrySlots builds the bare engine NewCtx builds.
func New(alg sched.Algorithm, net *topo.Network, pairs []topo.SDPair, cfg Config) (sched.Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if net == nil {
		return nil, errors.New("engines: nil network")
	}
	pol := state.Policy{
		CarrySlots:      cfg.CarrySlots,
		WernerRetention: cfg.CarryWernerRetention,
		MinWernerScale:  cfg.CarryMinWernerScale,
	}
	if cfg.Faults != nil {
		inj, err := chaos.NewInjector(cfg.Faults, net)
		if err != nil {
			return nil, err
		}
		cfg.Chaos = inj
		pol.Decoherence, pol.Seed = cfg.Faults.Decoherence, cfg.Faults.Seed
	}
	var eng sched.Engine
	var err error
	if cfg.SlotBudget > 0 {
		eng, err = NewResilient(alg, net, pairs, cfg, cfg.SlotBudget)
	} else {
		eng, err = NewCtx(nil, alg, net, pairs, cfg)
	}
	if err != nil || cfg.CarrySlots == 0 {
		return eng, err
	}
	st, ok := eng.(sched.Stateful)
	if !ok {
		return nil, fmt.Errorf("engines: %v does not carry state across slots", alg)
	}
	st.AttachBank(state.NewBank(net, pol))
	return eng, nil
}

// NewCtx builds the bare engine, with construction bounded by a context
// (nil = never cancelled): LP-based engines abort their solve with an
// error wrapping ctx.Err() once the deadline expires. The greedy engine
// solves no LP and ignores the context. NewCtx neither validates cfg nor
// acts on Faults, SlotBudget or CarrySlots — it is the raw build New and
// the degradation ladder's inner builds share, so nothing is wrapped or
// banked twice.
func NewCtx(ctx context.Context, alg sched.Algorithm, net *topo.Network, pairs []topo.SDPair, cfg Config) (sched.Engine, error) {
	if net == nil {
		return nil, errors.New("engines: nil network")
	}
	b, ok := builders[alg]
	if !ok {
		return nil, fmt.Errorf("engines: unknown algorithm %v", alg)
	}
	return b(ctx, net, pairs, cfg)
}

// engineOptions translates the shared Config into the options every engine
// embeds, labelled with the scheme being built. Fault-aware schemes also get
// the forecast's planning capacity tables and avoided-element count.
func (cfg Config) engineOptions(alg sched.Algorithm, net *topo.Network) sched.EngineOptions {
	o := sched.EngineOptions{
		Algorithm:      alg,
		Tracer:         cfg.Tracer,
		Chaos:          cfg.Chaos,
		Warm:           cfg.Warm,
		FidelityFloors: cfg.FidelityFloors,
		SwapOrder:      cfg.SwapOrder,
	}
	if alg.FaultAware() {
		o.PlanChannels, o.PlanMemory, o.ForecastAvoided = forecastTables(cfg.Chaos, net)
	}
	return o
}

// seeOptions translates the shared Config into SEE options; the SEE and
// SEE-Aware builders both start from it.
func seeOptions(cfg Config, alg sched.Algorithm, net *topo.Network) core.Options {
	co := core.DefaultOptions()
	if cfg.KPaths > 0 {
		co.Segment.KPaths = cfg.KPaths
	}
	if cfg.MaxSegmentHops > 0 {
		co.Segment.MaxSegmentHops = cfg.MaxSegmentHops
	}
	if cfg.MinSegmentProb > 0 {
		co.Segment.MinProb = cfg.MinSegmentProb
	}
	co.StrictProvisioning = cfg.StrictProvisioning
	co.Flow.SwapWeightedObjective = !cfg.PlainObjective
	co.Flow.Workers = cfg.Workers
	co.CarryAwareLP = cfg.CarryAwareLP
	co.EngineOptions = cfg.engineOptions(alg, net)
	return co
}

func newSEE(ctx context.Context, net *topo.Network, pairs []topo.SDPair, cfg Config) (sched.Engine, error) {
	return core.NewEngineCtx(ctx, net, pairs, seeOptions(cfg, sched.SEE, net))
}

func newSEEAware(ctx context.Context, net *topo.Network, pairs []topo.SDPair, cfg Config) (sched.Engine, error) {
	co := seeOptions(cfg, sched.SEEAware, net)
	// Always on (not gated on a non-zero forecast) so planning on a full
	// topology with forecast tables is the same code path as planning on a
	// pre-shrunk topology with none — the equivalence the schedtest
	// forecast contract pins. With no dead links it drops nothing.
	co.Flow.DropDeadLinks = true
	return core.NewEngineCtx(ctx, net, pairs, co)
}

// newE2E builds the all-optical-switching-only baseline, the "only
// all-optical switching" extreme of SEE (§IV-A): the SEE engine with
// candidates restricted to full SD paths, so every connection is one
// segment and has no swaps. The default route budget is 1 — the paper's
// E2E strawman sends photons over the shortest physical route only —
// and hopeless routes are kept (no probability pruning). Only KPaths and
// Workers of the SEE tuning apply.
func newE2E(ctx context.Context, net *topo.Network, pairs []topo.SDPair, cfg Config) (sched.Engine, error) {
	co := core.DefaultOptions()
	co.Segment.FullPathOnly = true
	co.Segment.MinProb = 0
	co.Segment.KPaths = 1
	if cfg.KPaths > 0 {
		co.Segment.KPaths = cfg.KPaths
	}
	co.Flow.Workers = cfg.Workers
	co.EngineOptions = cfg.engineOptions(sched.E2E, net)
	return core.NewEngineCtx(ctx, net, pairs, co)
}

func newREPS(ctx context.Context, net *topo.Network, pairs []topo.SDPair, cfg Config) (sched.Engine, error) {
	o := reps.Options{KPaths: cfg.KPaths, EngineOptions: cfg.engineOptions(sched.REPS, net)}
	o.Flow.Workers = cfg.Workers
	return reps.NewEngineCtx(ctx, net, pairs, o)
}

// contendOptions translates the shared Config into contend options; the
// Contend, ContendAware and QPass builders all start from it.
func contendOptions(cfg Config, alg sched.Algorithm, net *topo.Network) contend.Options {
	o := contend.DefaultOptions()
	if cfg.KPaths > 0 {
		o.Segment.KPaths = cfg.KPaths
		o.PathsPerPair = cfg.KPaths
	}
	if cfg.MaxSegmentHops > 0 {
		o.Segment.MaxSegmentHops = cfg.MaxSegmentHops
	}
	if cfg.MinSegmentProb > 0 {
		o.Segment.MinProb = cfg.MinSegmentProb
	}
	o.EngineOptions = cfg.engineOptions(alg, net)
	return o
}

func newContend(_ context.Context, net *topo.Network, pairs []topo.SDPair, cfg Config) (sched.Engine, error) {
	return contend.NewEngine(net, pairs, contendOptions(cfg, sched.Contend, net))
}

func newContendAware(_ context.Context, net *topo.Network, pairs []topo.SDPair, cfg Config) (sched.Engine, error) {
	return contend.NewEngine(net, pairs, contendOptions(cfg, sched.ContendAware, net))
}

// newQPass builds the Q-PASS-style offline contrast baseline: paths are
// fixed from the fault-free topology with per-hop recovery reserved up
// front, and the forecast is deliberately ignored.
func newQPass(_ context.Context, net *topo.Network, pairs []topo.SDPair, cfg Config) (sched.Engine, error) {
	o := contendOptions(cfg, sched.QPass, net)
	o.Offline = true
	return contend.NewEngine(net, pairs, o)
}

// forecastTables turns the injector's announced-fault forecast into
// planning capacity tables: channels/memory with forecast-dead elements
// zeroed and browned links derated, plus the number of elements the
// forecast routes around. All nil/0 when there is no forecast, so
// fault-aware engines without announced faults plan on the true topology
// and stay byte-identical to their fault-blind twins.
func forecastTables(in *chaos.Injector, net *topo.Network) (channels, memory []int, avoided int) {
	fc := in.Forecast()
	if fc.IsZero() {
		return nil, nil, 0
	}
	channels = make([]int, net.NumLinks())
	for id := range channels {
		channels[id] = fc.Channels(id, net.Channels[id])
	}
	memory = make([]int, net.NumNodes())
	for v := range memory {
		memory[v] = fc.Memory(v, net.Memory[v])
	}
	return channels, memory, fc.Avoided()
}

func newGreedy(_ context.Context, net *topo.Network, pairs []topo.SDPair, cfg Config) (sched.Engine, error) {
	o := greedy.DefaultOptions()
	if cfg.KPaths > 0 {
		o.Segment.KPaths = cfg.KPaths
	}
	if cfg.MaxSegmentHops > 0 {
		o.Segment.MaxSegmentHops = cfg.MaxSegmentHops
	}
	if cfg.MinSegmentProb > 0 {
		o.Segment.MinProb = cfg.MinSegmentProb
	}
	o.EngineOptions = cfg.engineOptions(sched.Greedy, net)
	return greedy.NewEngine(net, pairs, o)
}

// newOracle builds the capacity-bound pseudo-engine. It takes only the
// tracer from the shared Config, on purpose: capacity bounds depend on the
// topology and the demand set alone, not on any scheme tuning.
func newOracle(_ context.Context, net *topo.Network, pairs []topo.SDPair, cfg Config) (sched.Engine, error) {
	return oracle.NewEngine(net, pairs, cfg.Tracer)
}

// maxConstructionRetries bounds how many slots retry a failed LP
// construction before the resilient engine settles on the greedy fallback
// for good.
const maxConstructionRetries = 3

// Resilient is the degradation ladder around an LP-based engine. The
// primary engine's LP solve happens lazily inside the first RunSlot under
// the slot budget, so a solve that blows the budget degrades that same
// slot to the greedy fallback — the slot still completes with nonzero
// attempted paths. Later slots retry the LP up to maxConstructionRetries
// times (each retry reported as sched.IncidentRetry, each degraded slot as
// sched.IncidentDegraded) before settling on the fallback permanently.
type Resilient struct {
	alg    sched.Algorithm
	net    *topo.Network
	pairs  []topo.SDPair
	cfg    Config
	budget time.Duration
	tracer sched.Tracer

	primary  sched.Engine
	fallback sched.Engine
	failures int
	lastErr  error
	// bank is the cross-slot segment bank to attach to whichever engine
	// ends up serving slots. It is held here because both the primary and
	// the fallback are built lazily — and it deliberately survives
	// degradation: banked photons sit in node memories, which do not care
	// which scheduler failed over.
	bank *state.Bank
}

var _ sched.Stateful = (*Resilient)(nil)

// NewResilient wraps the algorithm in the degradation ladder. budget <= 0
// means no deadline (the primary still degrades on solver errors or
// panics). The network and configuration are validated eagerly, but the
// primary's LP is deferred to the first slot.
func NewResilient(alg sched.Algorithm, net *topo.Network, pairs []topo.SDPair, cfg Config, budget time.Duration) (*Resilient, error) {
	if net == nil {
		return nil, errors.New("engines: nil network")
	}
	if _, ok := builders[alg]; !ok {
		return nil, fmt.Errorf("engines: unknown algorithm %v", alg)
	}
	return &Resilient{
		alg:    alg,
		net:    net,
		pairs:  pairs,
		cfg:    cfg,
		budget: budget,
		tracer: sched.OrNop(cfg.Tracer),
	}, nil
}

// buildPrimary attempts the budgeted LP construction, converting panics
// (e.g. a par.WorkerPanic escaping a pricing worker) into errors so one
// broken solve degrades the slot instead of killing the process.
func (r *Resilient) buildPrimary() (eng sched.Engine, err error) {
	ctx := context.Context(nil)
	cancel := func() {}
	if r.budget > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), r.budget)
	}
	defer cancel()
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("engines: construction panic: %v", v)
		}
	}()
	return NewCtx(ctx, r.alg, r.net, r.pairs, r.cfg)
}

// RunSlot serves the slot with the primary engine when available, else
// degrades to the greedy fallback.
func (r *Resilient) RunSlot(rng *rand.Rand) (*sched.SlotResult, error) {
	if r.primary == nil && r.failures <= maxConstructionRetries {
		if r.failures > 0 {
			r.tracer.Incident(sched.IncidentRetry, 1)
		}
		eng, err := r.buildPrimary()
		if err != nil {
			r.failures++
			r.lastErr = err
		} else {
			r.primary = eng
			r.attachBank(eng)
		}
	}
	if r.primary != nil {
		return r.primary.RunSlot(rng)
	}
	if r.fallback == nil {
		eng, err := newGreedy(nil, r.net, r.pairs, r.cfg)
		if err != nil {
			return nil, fmt.Errorf("engines: greedy fallback: %w (primary: %v)", err, r.lastErr)
		}
		r.fallback = eng
		r.attachBank(eng)
	}
	r.tracer.Incident(sched.IncidentDegraded, 1)
	return r.fallback.RunSlot(rng)
}

// Algorithm reports the scheme the caller asked for, degraded or not.
func (r *Resilient) Algorithm() sched.Algorithm { return r.alg }

// UpperBound returns the primary's LP bound when available, else the
// fallback's heuristic value (0 before any slot has run).
func (r *Resilient) UpperBound() float64 {
	if r.primary != nil {
		return r.primary.UpperBound()
	}
	if r.fallback != nil {
		return r.fallback.UpperBound()
	}
	return 0
}

// Degraded reports how the ladder stands: whether the primary is
// unavailable and the error of its last failed construction.
func (r *Resilient) Degraded() (bool, error) {
	return r.primary == nil && r.failures > 0, r.lastErr
}

// AttachBank implements sched.Stateful. The bank is handed to whichever
// engine serves slots — including a primary built lazily on a later slot —
// so banked segments survive degradation and recovery alike.
func (r *Resilient) AttachBank(b *state.Bank) {
	r.bank = b
	r.attachBank(r.primary)
	r.attachBank(r.fallback)
}

// Bank implements sched.Stateful.
func (r *Resilient) Bank() *state.Bank { return r.bank }

// attachBank forwards the stored bank to a newly built engine (no-op for
// a nil engine or a nil bank).
func (r *Resilient) attachBank(eng sched.Engine) {
	if eng == nil || r.bank == nil {
		return
	}
	if s, ok := eng.(sched.Stateful); ok {
		s.AttachBank(r.bank)
	}
}
