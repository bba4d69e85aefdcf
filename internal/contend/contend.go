// Package contend implements a contention-aware routing engine in the
// spirit of Q-CAST (Shi & Qian, SIGCOMM 2020): instead of the LP the paper
// solves, each SD pair gets a small catalogue of candidate entanglement
// paths on the segment graph, every candidate is scored by an
// expected-throughput metric E(ℓ) built from the paper's primitives —
// segment creation probability p^k_uv, swap success q_u and the attempt
// width the residual channels c_uv and memories m_u can still support —
// and paths are accepted best-score-first with explicit contention
// accounting: an accepted path decrements the residual channel capacity of
// every fibre link its realizations cross and the residual memory of every
// segment endpoint, so later candidates are scored against what is
// actually left.
//
// On top of the primary plan the engine reserves *recovery* attempts
// (Q-CAST's recovery paths, collapsed to the segment level): for each
// planned hop, one attempt on the next-best physical realization of the
// same endpoint pair. Recovery attempts fire only in the physical phase
// and only for hops whose primary attempts all failed, converting some
// single-hop bad luck into established connections instead of lost paths.
// Recovery activations are reported as sched.IncidentRecovery.
//
// Like the greedy engine, planning is deterministic and happens once at
// construction: RunSlot consumes the rng only for the physical phase,
// recovery attempts and swaps, so a fixed rng state reproduces the slot.
package contend

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"see/internal/graph"
	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/segment"
	"see/internal/topo"
)

// Options tunes the contention-aware engine. The embedded
// sched.EngineOptions carry the knobs every engine shares; their zero
// Algorithm means sched.Contend (the fault-aware and offline variants
// built in internal/engines override it), and PlanChannels / PlanMemory,
// when set, seed the selection loop's residual capacities and the per-pair
// connection caps.
type Options struct {
	sched.EngineOptions
	// Segment tunes candidate enumeration; the zero value uses the SEE
	// defaults (hop cap 10) so the engine plans over the same segment
	// catalogue as the LP engines it is compared against.
	Segment segment.Options
	// PathsPerPair is the number of candidate entanglement paths scored
	// per SD pair (Yen on the segment graph; default 5).
	PathsPerPair int
	// RecoveryAttempts is the number of creation attempts reserved on the
	// recovery realization of each planned hop (default 1; 0 disables
	// recovery paths entirely).
	RecoveryAttempts int
	// Offline switches planning to the Q-PASS-style offline mode: every
	// candidate path is scored once against the full fault-free topology
	// (no contention re-scoring), paths are provisioned in round-robin
	// sweeps over the SD pairs by static score with all-or-nothing
	// charging, and the forecast is never consulted. The contrast baseline
	// for the fault-aware variants.
	Offline bool
}

// DefaultOptions returns the contention-aware defaults.
func DefaultOptions() Options {
	seg := segment.DefaultOptions()
	seg.MaxSegmentHops = 10
	return Options{Segment: seg, PathsPerPair: 5, RecoveryAttempts: 1}
}

// Engine runs contention-aware time slots over a fixed network and
// workload.
type Engine struct {
	Net   *topo.Network
	Pairs []topo.SDPair
	Set   *segment.Set
	// ConnCap is the per-pair connection cap min(m_s, m_d).
	ConnCap []int

	paths    []sched.FixedPath
	plan     qnet.AttemptPlan
	recovery qnet.AttemptPlan
	// recoveryHops lists the recovery realization reserved for planned
	// hops, in path and hop order, with its endpoint pair and attempts.
	recoveryHops []sched.FixedHop
	expected     float64

	opts Options
	// avail is the recovery pass's per-slot count of realized segments per
	// endpoint pair; nothing in it outlives the slot.
	avail map[segment.PairKey]int

	// Frame runs the slot lifecycle around the fixed plan and the recovery
	// pass and provides the Stateful and Checkpointable capabilities.
	sched.Frame
}

var (
	_ sched.Stateful       = (*Engine)(nil)
	_ sched.Checkpointable = (*Engine)(nil)
)

// NewEngine enumerates candidate paths and fixes the contention-aware
// plan. Like the greedy engine it solves no LP, so construction needs no
// context/budget variant.
func NewEngine(net *topo.Network, pairs []topo.SDPair, opts Options) (*Engine, error) {
	if net == nil {
		return nil, errors.New("contend: nil network")
	}
	if len(pairs) == 0 {
		return nil, errors.New("contend: no SD pairs")
	}
	if opts.Segment.KPaths == 0 && opts.Segment.MaxSegmentHops == 0 {
		opts.Segment = DefaultOptions().Segment
	}
	if opts.PathsPerPair <= 0 {
		opts.PathsPerPair = 5
	}
	if opts.RecoveryAttempts < 0 {
		opts.RecoveryAttempts = 0
	}
	if opts.Algorithm == 0 {
		opts.Algorithm = sched.Contend
	}
	var set *segment.Set
	var err error
	if opts.Warm != nil {
		set, err = opts.Warm.SegmentSet(net, pairs, opts.Segment)
	} else {
		set, err = segment.Build(net, pairs, opts.Segment)
	}
	if err != nil {
		return nil, fmt.Errorf("contend: building candidates: %w", err)
	}
	planMem := net.Memory
	if opts.PlanMemory != nil {
		planMem = opts.PlanMemory
	}
	connCap := make([]int, len(pairs))
	for i, sd := range pairs {
		connCap[i] = min(planMem[sd.S], planMem[sd.D])
	}
	e := &Engine{
		Net:     net,
		Pairs:   pairs,
		Set:     set,
		ConnCap: connCap,
		opts:    opts,
		avail:   make(map[segment.PairKey]int),
	}
	e.buildPlan()
	steps := sched.FixedSteps(e.UpperBound, e.paths, e.plan, e.recovery, connCap)
	steps.Recover = e.recoverStep
	e.Init(net, len(pairs), opts.EngineOptions, set.CandidateFor, steps)
	return e, nil
}

// candidatePaths enumerates the per-pair candidate entanglement paths on
// the segment graph (Yen K shortest under the static attempt-cost metric
// with −ln q node weights, the same weights the greedy planner routes
// with).
func (e *Engine) candidatePaths() [][]graph.Path {
	nodeWeight := sched.SwapNodeWeight(e.Net)
	edgeWeight := func(id int, _ float64) float64 {
		best := math.Inf(1)
		for _, c := range e.Set.ByPair[e.Set.EdgePairs[id]] {
			if cost := c.AttemptCost(e.Net); cost < best {
				best = cost
			}
		}
		if math.IsInf(best, 1) {
			return sched.InfeasibleWeight
		}
		return best
	}
	out := make([][]graph.Path, len(e.Pairs))
	for i, sd := range e.Pairs {
		out[i] = graph.YenKShortest(e.Set.SegGraph, sd.S, sd.D, e.opts.PathsPerPair, graph.DijkstraOptions{
			NodeWeight: nodeWeight,
			EdgeWeight: edgeWeight,
		})
	}
	return out
}

// residual tracks the contention state during plan construction.
type residual struct {
	channels []int
	memory   []int
}

// cheapestFeasible returns the lowest-attempt-cost realization of the pair
// that fits at least one attempt in the residual resources, skipping the
// realization `not` (used to pick a disjoint recovery realization).
func (e *Engine) cheapestFeasible(r *residual, pk segment.PairKey, not *segment.Candidate) (*segment.Candidate, float64) {
	var best *segment.Candidate
	bestCost := math.Inf(1)
	for _, c := range e.Set.ByPair[pk] {
		if c == not {
			continue
		}
		fits := r.memory[pk.U] >= 1 && r.memory[pk.V] >= 1
		for _, id := range c.EdgeIDs {
			if r.channels[id] < 1 {
				fits = false
				break
			}
		}
		if !fits {
			continue
		}
		if cost := c.AttemptCost(e.Net); cost < bestCost {
			best, bestCost = c, cost
		}
	}
	return best, bestCost
}

// widthFor bounds the attempt count of a realization by the residual
// channels along its route and the residual memories of its endpoints,
// starting from the requested width.
func widthFor(r *residual, c *segment.Candidate, pk segment.PairKey, want int) int {
	n := want
	for _, id := range c.EdgeIDs {
		if r.channels[id] < n {
			n = r.channels[id]
		}
	}
	if r.memory[pk.U] < n {
		n = r.memory[pk.U]
	}
	if r.memory[pk.V] < n {
		n = r.memory[pk.V]
	}
	return n
}

// scorePath evaluates the expected-throughput metric of a candidate path
// under the residual resources:
//
//	E(ℓ) = Π_hops (1 − (1 − p^k_uv)^{n_h}) · Π_junctions q_u
//
// where n_h = min(⌈1/p⌉, residual width) is the attempt budget hop h would
// get, with each hop priced on its cheapest still-feasible realization. It
// returns the score and the concrete hop plan (nil when any hop has no
// feasible realization).
func (e *Engine) scorePath(r *residual, nodes graph.Path) (float64, []sched.FixedHop) {
	score := 1.0
	hops := make([]sched.FixedHop, 0, len(nodes)-1)
	// Hop reservations within one path compound, so simulate them on a
	// scratch copy of the residual state (paths share endpoints with
	// themselves when they revisit a node's memory).
	scratch := &residual{
		channels: append([]int(nil), r.channels...),
		memory:   append([]int(nil), r.memory...),
	}
	for i := 0; i+1 < len(nodes); i++ {
		pk := segment.MakePairKey(nodes[i], nodes[i+1])
		cand, cost := e.cheapestFeasible(scratch, pk, nil)
		if cand == nil || math.IsInf(cost, 1) {
			return 0, nil
		}
		n := widthFor(scratch, cand, pk, int(math.Ceil(1/cand.Prob)))
		if n < 1 {
			return 0, nil
		}
		for _, id := range cand.EdgeIDs {
			scratch.channels[id] -= n
		}
		scratch.memory[pk.U] -= n
		scratch.memory[pk.V] -= n
		score *= 1 - math.Pow(1-cand.Prob, float64(n))
		hops = append(hops, sched.FixedHop{Pair: pk, Cand: cand, Attempts: n})
	}
	for j := 1; j+1 < len(nodes); j++ {
		score *= e.Net.SwapProb[nodes[j]]
	}
	return score, hops
}

// buildPlan is the contention-aware selection loop: every unsaturated
// pair's candidate paths are re-scored against the residual resources, the
// globally best-scoring path is accepted, its hops (primary + recovery)
// are charged against the residuals, and the loop repeats until no
// candidate has positive score. Ties break deterministically on (pair
// index, candidate index).
func (e *Engine) buildPlan() {
	e.plan = make(qnet.AttemptPlan)
	e.recovery = make(qnet.AttemptPlan)
	if e.opts.Offline {
		e.buildPlanOffline()
		return
	}
	r := e.startingResidual()
	cands := e.candidatePaths()
	planned := make([]int, len(e.Pairs))
	for {
		bestScore := 0.0
		bestPair, bestIdx := -1, -1
		var bestHops []sched.FixedHop
		for i := range e.Pairs {
			if planned[i] >= e.ConnCap[i] {
				continue
			}
			for j, nodes := range cands[i] {
				score, hops := e.scorePath(r, nodes)
				if score > bestScore {
					bestScore, bestPair, bestIdx, bestHops = score, i, j, hops
				}
			}
		}
		if bestPair < 0 || bestScore <= 0 {
			break
		}
		e.accept(r, bestPair, cands[bestPair][bestIdx], bestHops, bestScore)
		planned[bestPair]++
	}
}

// accept fixes a selected path: it charges the path's primary
// reservations against the residuals, then reserves recovery attempts on
// the next-best disjoint realization of each hop within whatever
// resources remain, and adds the path's score to the plan's value.
func (e *Engine) accept(r *residual, commodity int, nodes graph.Path, hops []sched.FixedHop, score float64) {
	for _, h := range hops {
		for _, id := range h.Cand.EdgeIDs {
			r.channels[id] -= h.Attempts
		}
		r.memory[h.Pair.U] -= h.Attempts
		r.memory[h.Pair.V] -= h.Attempts
	}
	for _, h := range hops {
		if e.opts.RecoveryAttempts > 0 {
			if rec, cost := e.cheapestFeasible(r, h.Pair, h.Cand); rec != nil && !math.IsInf(cost, 1) {
				if n := widthFor(r, rec, h.Pair, e.opts.RecoveryAttempts); n >= 1 {
					for _, id := range rec.EdgeIDs {
						r.channels[id] -= n
					}
					r.memory[h.Pair.U] -= n
					r.memory[h.Pair.V] -= n
					e.recoveryHops = append(e.recoveryHops, sched.FixedHop{Pair: h.Pair, Cand: rec, Attempts: n})
					e.recovery[rec] += n
				}
			}
		}
		e.plan[h.Cand] += h.Attempts
	}
	e.paths = append(e.paths, sched.FixedPath{Commodity: commodity, Nodes: nodes, Hops: hops})
	e.expected += score
}

// startingResidual seeds the contention state from the planning capacity
// tables: the forecast-shrunk overrides when set, the network tables
// otherwise.
func (e *Engine) startingResidual() *residual {
	channels := e.Net.Channels
	if e.opts.PlanChannels != nil {
		channels = e.opts.PlanChannels
	}
	memory := e.Net.Memory
	if e.opts.PlanMemory != nil {
		memory = e.opts.PlanMemory
	}
	return &residual{
		channels: append([]int(nil), channels...),
		memory:   append([]int(nil), memory...),
	}
}

// buildPlanOffline fixes the Q-PASS-style offline plan. Candidate paths
// are scored exactly once against the full fault-free topology — the
// offline planner re-scores nothing against residual state — then
// provisioned in round-robin sweeps over the SD pairs (one path per
// unsaturated pair per sweep, best static score first). A path is accepted
// only if the residual resources still fit the pre-computed widths of all
// its hops (all-or-nothing), and per-hop recovery attempts are reserved up
// front like the online planner's. The fault forecast is deliberately
// ignored: this is the contrast baseline the fault-aware variants are
// measured against.
func (e *Engine) buildPlanOffline() {
	full := &residual{
		channels: append([]int(nil), e.Net.Channels...),
		memory:   append([]int(nil), e.Net.Memory...),
	}
	cands := e.candidatePaths()
	type offlinePath struct {
		nodes graph.Path
		hops  []sched.FixedHop
		score float64
	}
	scored := make([][]offlinePath, len(e.Pairs))
	for i := range e.Pairs {
		for _, nodes := range cands[i] {
			score, hops := e.scorePath(full, nodes)
			if score <= 0 {
				continue
			}
			scored[i] = append(scored[i], offlinePath{nodes: nodes, hops: hops, score: score})
		}
		list := scored[i]
		sort.SliceStable(list, func(a, b int) bool { return list[a].score > list[b].score })
	}

	r := &residual{
		channels: append([]int(nil), e.Net.Channels...),
		memory:   append([]int(nil), e.Net.Memory...),
	}
	// fits reports whether the residual covers every hop at its full
	// pre-computed width (hops of one path may share links and endpoints,
	// so charge a scratch copy).
	fits := func(hops []sched.FixedHop) bool {
		scratch := &residual{
			channels: append([]int(nil), r.channels...),
			memory:   append([]int(nil), r.memory...),
		}
		for _, h := range hops {
			for _, id := range h.Cand.EdgeIDs {
				scratch.channels[id] -= h.Attempts
				if scratch.channels[id] < 0 {
					return false
				}
			}
			scratch.memory[h.Pair.U] -= h.Attempts
			scratch.memory[h.Pair.V] -= h.Attempts
			if scratch.memory[h.Pair.U] < 0 || scratch.memory[h.Pair.V] < 0 {
				return false
			}
		}
		return true
	}
	planned := make([]int, len(e.Pairs))
	for {
		progress := false
		for i := range e.Pairs {
			if planned[i] >= e.ConnCap[i] {
				continue
			}
			accepted := -1
			for j, op := range scored[i] {
				if !fits(op.hops) {
					continue
				}
				accepted = j
				break
			}
			if accepted < 0 {
				continue
			}
			op := scored[i][accepted]
			e.accept(r, i, op.nodes, op.hops, op.score)
			planned[i]++
			progress = true
		}
		if !progress {
			break
		}
	}
}

// recoverStep is the recovery pass of the physical phase: it counts the
// surviving segments per endpoint pair (withdrawn carried segments count
// too) and fires the reserved recovery attempts of hops left with nothing,
// in deterministic path order. Recovery segments face the same
// decoherence stream as the primaries.
func (e *Engine) recoverStep(s *sched.Slot, created []*qnet.Segment) []*qnet.Segment {
	avail := e.avail
	clear(avail)
	for _, seg := range s.Withdrawn {
		avail[seg.Pair()]++
	}
	for _, seg := range created {
		avail[seg.Pair()]++
	}
	fired := 0
	for _, h := range e.recoveryHops {
		if avail[h.Pair] > 0 {
			continue
		}
		fired += h.Attempts
		rec := qnet.AttemptAllFaulty(qnet.AttemptPlan{h.Cand: h.Attempts}, s.Rng, s.Faults, s.Observe)
		s.Result.SegmentsCreated += len(rec)
		rec, _ = qnet.ApplyDecoherence(rec, s.Faults)
		for _, seg := range rec {
			avail[seg.Pair()]++
		}
		created = append(created, rec...)
	}
	if fired > 0 {
		s.Tracer.Incident(sched.IncidentRecovery, fired)
	}
	return created
}

// UpperBound returns the heuristic expected established count of the fixed
// plan (not an LP bound — the engine solves none).
func (e *Engine) UpperBound() float64 { return e.expected }

// PlannedPathCount reports how many entanglement paths the contention-aware
// selection accepted (diagnostics for tests and tools).
func (e *Engine) PlannedPathCount() int { return len(e.paths) }

// RecoveryReserved reports the total recovery attempts held in reserve per
// slot (diagnostics for tests and tools).
func (e *Engine) RecoveryReserved() int { return e.recovery.TotalAttempts() }
