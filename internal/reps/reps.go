// Package reps implements the REPS baseline (Zhao & Qiao, "Redundant
// Entanglement Provisioning and Selection for Throughput Maximization in
// Quantum Networks", INFOCOM 2021) as used for comparison in the SEE paper:
// entanglement links only (single-hop segments), redundant provisioning via
// an LP with progressive rounding, and post-realization path selection with
// round-robin fairness.
//
// The provisioning LP is the same formulation-(1) relaxation solved by
// internal/flow, restricted to single-hop candidates. Progressive rounding
// re-solves the LP on residual capacities a bounded number of times (the
// SEE paper itself criticizes REPS's one-LP-per-variable schedule as too
// slow; see DESIGN.md §2 for the substitution note).
package reps

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"see/internal/flow"
	"see/internal/graph"
	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/segment"
	"see/internal/topo"
)

// Options tunes REPS. The embedded sched.EngineOptions carry the knobs
// every engine shares; REPS always reports sched.REPS and provisions on
// the true capacities, so their Algorithm, PlanChannels and PlanMemory are
// ignored.
type Options struct {
	sched.EngineOptions
	// KPaths is the Yen path budget per SD pair (default 5).
	KPaths int
	// RoundingSolves caps the LP re-solves of progressive rounding
	// (default 6).
	RoundingSolves int
	// Flow tunes the underlying LP solves.
	Flow flow.Options
}

func (o Options) withDefaults() Options {
	if o.KPaths <= 0 {
		o.KPaths = 5
	}
	if o.RoundingSolves <= 0 {
		o.RoundingSolves = 6
	}
	return o
}

// Engine runs REPS time slots over a fixed network and workload. Like the
// SEE engine, provisioning depends only on the static topology and is
// computed once.
type Engine struct {
	Net   *topo.Network
	Pairs []topo.SDPair
	Set   *segment.Set
	// Plan is the provisioning result: integer entanglement-link creation
	// attempts per link (x̂ in the REPS paper).
	Plan qnet.AttemptPlan
	// LPObjective is the fractional ELP optimum.
	LPObjective float64
	// ConnCap is the per-pair connection cap.
	ConnCap []int

	// Frame runs the slot lifecycle around the engine's reserve and EPS
	// steps and provides the Stateful and Checkpointable capabilities.
	sched.Frame

	opts Options
	// slot is the reusable per-slot scratch: EPS's per-pair counters and
	// auxiliary graph, and the targeted Dijkstra buffers.
	slot *slotScratch
}

// slotScratch holds REPS's per-slot reusable buffers; the same lifetime
// rule as core.slotScratch applies — nothing in it may outlive the slot.
type slotScratch struct {
	perPair  []int
	aux      *graph.Graph
	auxPairs []segment.PairKey
	dij      graph.DijkstraScratch
}

// scratch returns the engine's slot scratch, creating it on first use.
func (e *Engine) scratch() *slotScratch {
	if e.slot == nil {
		e.slot = &slotScratch{
			perPair: make([]int, len(e.Pairs)),
			aux:     graph.New(e.Net.NumNodes()),
		}
	}
	return e.slot
}

var (
	_ sched.Stateful       = (*Engine)(nil)
	_ sched.Checkpointable = (*Engine)(nil)
)

// NewEngine provisions entanglement links for the workload.
func NewEngine(net *topo.Network, pairs []topo.SDPair, opts Options) (*Engine, error) {
	return NewEngineCtx(nil, net, pairs, opts)
}

// NewEngineCtx is NewEngine with the provisioning LP solves bounded by a
// context (nil = never cancelled); see core.NewEngineCtx.
func NewEngineCtx(ctx context.Context, net *topo.Network, pairs []topo.SDPair, opts Options) (*Engine, error) {
	if net == nil {
		return nil, errors.New("reps: nil network")
	}
	if len(pairs) == 0 {
		return nil, errors.New("reps: no SD pairs")
	}
	opts = opts.withDefaults()
	opts.Algorithm = sched.REPS
	segOpts := segment.DefaultOptions()
	segOpts.KPaths = opts.KPaths
	segOpts.MaxSegmentHops = 1 // entanglement links only
	segOpts.MinProb = 0
	// Budgeted construction bypasses the warm cache (see core.NewEngineCtx).
	useWarm := opts.Warm != nil && ctx == nil
	var set *segment.Set
	var err error
	if useWarm {
		set, err = opts.Warm.SegmentSet(net, pairs, segOpts)
	} else {
		set, err = segment.Build(net, pairs, segOpts)
	}
	if err != nil {
		return nil, fmt.Errorf("reps: building link candidates: %w", err)
	}
	connCap := opts.Flow.ConnCap
	if connCap == nil {
		connCap = make([]int, len(pairs))
		for i, sd := range pairs {
			connCap[i] = min(net.Memory[sd.S], net.Memory[sd.D])
		}
	}
	e := &Engine{Net: net, Pairs: pairs, Set: set, ConnCap: connCap, opts: opts}
	if err := e.provision(ctx); err != nil {
		return nil, err
	}
	e.Init(net, len(pairs), opts.EngineOptions, set.CandidateFor, sched.Steps{
		Bound: e.UpperBound,
		// The provisioning plan is fixed at construction, so the per-slot
		// reserve phase just re-commits it. REPS plans links, not
		// entanglement paths: no plan phase, and PlannedPaths and
		// ProvisionedPaths stay zero.
		Reserve: func(*sched.Slot) (qnet.AttemptPlan, qnet.AttemptPlan, error) { return e.Plan, nil, nil },
		Stitch:  e.stitchStep,
	})
	return e, nil
}

// provision runs the ELP + progressive rounding to fix the attempt plan.
func (e *Engine) provision(ctx context.Context) error {
	plan := make(qnet.AttemptPlan)
	channels := append([]int(nil), e.Net.Channels...)
	memory := append([]int(nil), e.Net.Memory...)
	// The rounding rounds re-solve over the same candidate set with only
	// the residual capacities changing, so one arena carries the solver's
	// capacity-independent tables across all of them; a warm cache
	// additionally replays whole solutions across engine rebuilds.
	useWarm := e.opts.Warm != nil && ctx == nil
	arena := &flow.Arena{}

	// commit reserves up to n attempts over c (as many as the residual
	// capacities fit) and returns how many were committed.
	commit := func(c *segment.Candidate, n int) int {
		if n <= 0 {
			return 0
		}
		for _, eid := range c.EdgeIDs {
			if channels[eid] < n {
				n = channels[eid]
			}
		}
		u, v := c.Path[0], c.Path[len(c.Path)-1]
		if memory[u] < n {
			n = memory[u]
		}
		if memory[v] < n {
			n = memory[v]
		}
		if n <= 0 {
			return 0
		}
		for _, eid := range c.EdgeIDs {
			channels[eid] -= n
		}
		memory[u] -= n
		memory[v] -= n
		plan[c] += n
		return n
	}

	for round := 0; round < e.opts.RoundingSolves; round++ {
		fopts := e.opts.Flow
		fopts.ConnCap = e.ConnCap
		fopts.Channels = channels
		fopts.Memory = memory
		fopts.Arena = arena
		var sol *flow.Solution
		var err error
		if useWarm {
			sol, err = e.opts.Warm.Solve(e.Set, fopts)
		} else {
			sol, err = flow.SolveCtx(ctx, e.Set, fopts)
		}
		if err != nil {
			return fmt.Errorf("reps: provisioning LP: %w", err)
		}
		if round == 0 {
			e.LPObjective = sol.Objective
		}
		if sol.Objective < 1e-6 {
			break
		}
		frac := fractionalAttempts(e.Net, sol)
		committed := 0
		// Commit the integral parts of every variable first.
		for _, fa := range frac {
			committed += commit(fa.cand, int(math.Floor(fa.x+1e-9)))
		}
		if committed == 0 {
			// Nothing integral left: round the largest fractional up,
			// one variable per LP solve, as in REPS.
			rounded := false
			for _, fa := range frac {
				if fa.x > 1e-6 && commit(fa.cand, 1) == 1 {
					rounded = true
					break
				}
			}
			if !rounded {
				break
			}
		}
	}

	// Redundant provisioning — the "R" in REPS: saturate the residual
	// channels and memory with extra attempts on the links the LP used,
	// so that individual link failures do not break whole paths. Links
	// with the fewest attempts are topped up first: availability
	// 1−(1−p)^x has strongly diminishing returns in x, so equalizing x
	// maximizes the probability that whole paths survive.
	if len(plan) > 0 {
		used := make([]*segment.Candidate, 0, len(plan))
		for c := range plan {
			used = append(used, c)
		}
		for {
			sort.Slice(used, func(i, j int) bool {
				if plan[used[i]] != plan[used[j]] {
					return plan[used[i]] < plan[used[j]]
				}
				return topo.Key(used[i].Path) < topo.Key(used[j].Path)
			})
			committed := 0
			for _, c := range used {
				committed += commit(c, 1)
			}
			if committed == 0 {
				break
			}
		}
	}
	e.Plan = plan
	return nil
}

type fracAttempt struct {
	cand *segment.Candidate
	x    float64
}

// fractionalAttempts converts LP path flows into fractional per-link
// attempt counts x, sorted by decreasing fractional part (rounding
// priority).
func fractionalAttempts(net *topo.Network, sol *flow.Solution) []fracAttempt {
	acc := make(map[*segment.Candidate]float64)
	for _, pf := range sol.Paths {
		for _, hop := range pf.Hops {
			c := hop.Cand
			// Divide rather than multiply by AttemptCost: the reciprocal
			// rounds differently and would shift the rounding order.
			den, ok := c.AttemptRate(net)
			if !ok {
				continue
			}
			acc[c] += pf.Flow / den
		}
	}
	out := make([]fracAttempt, 0, len(acc))
	for c, x := range acc {
		out = append(out, fracAttempt{cand: c, x: x})
	}
	sort.Slice(out, func(i, j int) bool {
		fi := out[i].x - math.Floor(out[i].x)
		fj := out[j].x - math.Floor(out[j].x)
		if fi != fj {
			return fi > fj
		}
		if out[i].x != out[j].x {
			return out[i].x > out[j].x
		}
		return topo.Key(out[i].cand.Path) < topo.Key(out[j].cand.Path)
	})
	return out
}

// stitchStep is REPS's EPS step over the slot's pool of realized (and
// carried) links: round-robin over SD pairs, repeatedly routing each on the
// available links via shortest path with junction weight −ln q, until no
// pair can be served. Swapping is sampled per assembled connection; a
// failure consumes the links but the pair stays eligible, so redundant
// links back up failed swaps (see the matching note on ECE in
// internal/core). The auxiliary graph, per-pair counters and Dijkstra
// buffers are the engine's slot scratch.
func (e *Engine) stitchStep(s *sched.Slot, pool *qnet.Pool) []*qnet.Connection {
	sc := e.scratch()
	tr, res := s.Tracer, s.Result
	swapObs := qnet.SwapObserver(tr.SwapResolved)
	fp := qnet.NewFloorPolicy(e.opts.FidelityFloors, e.Net)
	var floorDead []bool // pairs whose best route missed the floor
	aux := sc.aux
	aux.Reset()
	auxPairs := sc.auxPairs[:0]
	for _, pk := range pool.Pairs() {
		aux.AddEdge(pk.U, pk.V, 1)
		auxPairs = append(auxPairs, pk)
	}
	sc.auxPairs = auxPairs
	nodeWeight := func(u int) float64 {
		q := e.Net.SwapProb[u]
		if q <= 0 {
			return 1e9
		}
		return -math.Log(q)
	}
	edgeWeight := func(id int, _ float64) float64 {
		if pool.Available(auxPairs[id]) >= 1 {
			return 1e-5
		}
		return 1e9
	}
	perPair := sc.perPair
	clear(perPair)
	var out []*qnet.Connection
	for {
		progress := false
		for i, sd := range e.Pairs {
			if perPair[i] >= e.ConnCap[i] {
				continue
			}
			if floorDead != nil && floorDead[i] {
				continue
			}
			path, dist := graph.ShortestPathTarget(aux, sd.S, sd.D, graph.DijkstraOptions{
				NodeWeight: nodeWeight,
				EdgeWeight: edgeWeight,
			}, &sc.dij)
			if path == nil || dist >= 1e8 {
				continue
			}
			conn := &qnet.Connection{Pair: i, Nodes: path}
			ok := true
			for h := 0; h+1 < len(path); h++ {
				seg := fp.Take(pool, i, segment.MakePairKey(path[h], path[h+1]))
				if seg == nil {
					ok = false
					break
				}
				conn.Segments = append(conn.Segments, seg)
			}
			if !ok {
				for _, seg := range conn.Segments {
					pool.Return(seg)
				}
				continue
			}
			if fp.Rejects(i, conn.Segments) {
				for _, seg := range conn.Segments {
					pool.Return(seg)
				}
				if floorDead == nil {
					floorDead = make([]bool, len(e.Pairs))
				}
				floorDead[i] = true
				res.FloorRejected++
				tr.Incident(sched.IncidentFloorReject, 1)
				continue
			}
			progress = true
			res.Assembled++
			ok = conn.EstablishOrderedObserved(e.Net, pool, s.Rng, swapObs, e.opts.SwapOrder)
			tr.ConnectionAssembled(i, ok)
			if ok {
				out = append(out, conn)
				perPair[i]++
			}
		}
		if !progress {
			return out
		}
	}
}

// UpperBound returns the provisioning LP optimum.
func (e *Engine) UpperBound() float64 { return e.LPObjective }
