// Package greedy implements a non-LP baseline scheduler in the spirit of
// greedy entanglement-routing heuristics (cf. the NIST swapping-order
// greedy): paths are chosen by repeated shortest-path on the segment graph
// under an expected-attempt-cost metric, and channels/memory are reserved
// first-come-first-served until the network is saturated. No linear program
// is solved anywhere, so construction is fast and deadline-proof — which is
// why internal/engines uses this engine as the degradation target when an
// LP-based engine blows its slot budget (ISSUE: graceful LP degradation).
//
// Like the LP engines, planning depends only on the static topology and
// happens once at construction, with no randomness: RunSlot consumes the
// rng only for the physical phase and the swaps, so a fixed rng state
// reproduces the slot exactly.
package greedy

import (
	"errors"
	"fmt"
	"math"

	"see/internal/graph"
	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/segment"
	"see/internal/topo"
)

// Options tunes the greedy engine. The embedded sched.EngineOptions carry
// the knobs every engine shares; their zero Algorithm means sched.Greedy,
// and PlanChannels and PlanMemory are ignored (the greedy plans on the
// true capacities).
type Options struct {
	sched.EngineOptions
	// Segment tunes candidate enumeration; the zero value uses the SEE
	// defaults (hop cap 10) so the greedy plans over the same segment
	// catalogue as the engine it substitutes for.
	Segment segment.Options
}

// DefaultOptions returns the greedy defaults.
func DefaultOptions() Options {
	seg := segment.DefaultOptions()
	seg.MaxSegmentHops = 10
	return Options{Segment: seg, EngineOptions: sched.EngineOptions{Algorithm: sched.Greedy}}
}

// Engine runs greedy time slots over a fixed network and workload.
type Engine struct {
	Net   *topo.Network
	Pairs []topo.SDPair
	Set   *segment.Set
	// ConnCap is the per-pair connection cap.
	ConnCap []int

	paths    []sched.FixedPath
	plan     qnet.AttemptPlan
	expected float64

	// Frame runs the slot lifecycle around the fixed plan and provides the
	// Stateful and Checkpointable capabilities.
	sched.Frame
}

var (
	_ sched.Stateful       = (*Engine)(nil)
	_ sched.Checkpointable = (*Engine)(nil)
)

// NewEngine enumerates candidates and fixes the greedy plan. It never
// solves an LP, so unlike the other engines it needs no context/budget
// variant: construction cost is one Yen enumeration plus a handful of
// Dijkstra runs.
func NewEngine(net *topo.Network, pairs []topo.SDPair, opts Options) (*Engine, error) {
	if net == nil {
		return nil, errors.New("greedy: nil network")
	}
	if len(pairs) == 0 {
		return nil, errors.New("greedy: no SD pairs")
	}
	if opts.Segment.KPaths == 0 && opts.Segment.MaxSegmentHops == 0 {
		d := DefaultOptions()
		opts.Segment = d.Segment
	}
	if opts.Algorithm == 0 {
		opts.Algorithm = sched.Greedy
	}
	var set *segment.Set
	var err error
	if opts.Warm != nil {
		set, err = opts.Warm.SegmentSet(net, pairs, opts.Segment)
	} else {
		set, err = segment.Build(net, pairs, opts.Segment)
	}
	if err != nil {
		return nil, fmt.Errorf("greedy: building candidates: %w", err)
	}
	connCap := make([]int, len(pairs))
	for i, sd := range pairs {
		connCap[i] = min(net.Memory[sd.S], net.Memory[sd.D])
	}
	e := &Engine{
		Net:     net,
		Pairs:   pairs,
		Set:     set,
		ConnCap: connCap,
	}
	e.buildPlan()
	e.Init(net, len(pairs), opts.EngineOptions, set.CandidateFor,
		sched.FixedSteps(e.UpperBound, e.paths, e.plan, nil, connCap))
	return e, nil
}

// buildPlan selects paths round-robin over SD pairs and reserves resources
// first-come-first-served. Each round routes every unsaturated pair on the
// segment graph, pricing each segment edge at the expected-attempt cost
// 1/(p·√(q_u·q_v)) of its cheapest still-feasible realization, with node
// weight −ln q (junctions must survive their swap). A selected path
// reserves up to ⌈1/p⌉ attempts per hop — enough for one expected created
// segment — bounded by the residual channels and memory. Rounds repeat
// until no pair can be routed.
func (e *Engine) buildPlan() {
	channels := append([]int(nil), e.Net.Channels...)
	memory := append([]int(nil), e.Net.Memory...)
	e.plan = make(qnet.AttemptPlan)

	// cheapestFeasible returns the lowest-cost realization of the edge's
	// pair that fits at least one attempt in the residual resources.
	cheapestFeasible := func(pk segment.PairKey) (*segment.Candidate, float64) {
		var best *segment.Candidate
		bestCost := math.Inf(1)
		for _, c := range e.Set.ByPair[pk] {
			fits := memory[pk.U] >= 1 && memory[pk.V] >= 1
			for _, id := range c.EdgeIDs {
				if channels[id] < 1 {
					fits = false
					break
				}
			}
			if !fits {
				continue
			}
			cost := c.AttemptCost(e.Net)
			if cost < bestCost {
				best, bestCost = c, cost
			}
		}
		return best, bestCost
	}

	nodeWeight := sched.SwapNodeWeight(e.Net)
	edgeWeight := func(id int, _ float64) float64 {
		if _, cost := cheapestFeasible(e.Set.EdgePairs[id]); !math.IsInf(cost, 1) {
			return cost
		}
		return sched.InfeasibleWeight
	}

	planned := make([]int, len(e.Pairs))
	for {
		progress := false
		for i, sd := range e.Pairs {
			if planned[i] >= e.ConnCap[i] {
				continue
			}
			path, dist := graph.ShortestPath(e.Set.SegGraph, sd.S, sd.D, graph.DijkstraOptions{
				NodeWeight: nodeWeight,
				EdgeWeight: edgeWeight,
			})
			if path == nil || dist >= sched.RejectThreshold {
				continue
			}
			pp := sched.FixedPath{Commodity: i, Nodes: path}
			ok := true
			for h := 0; h+1 < len(path); h++ {
				pk := segment.MakePairKey(path[h], path[h+1])
				cand, cost := cheapestFeasible(pk)
				if cand == nil || math.IsInf(cost, 1) {
					ok = false
					break
				}
				// One expected created segment per hop: n ≈ 1/p attempts,
				// bounded by what the residual resources actually fit.
				n := int(math.Ceil(1 / cand.Prob))
				if n < 1 {
					n = 1
				}
				for _, id := range cand.EdgeIDs {
					if channels[id] < n {
						n = channels[id]
					}
				}
				if memory[pk.U] < n {
					n = memory[pk.U]
				}
				if memory[pk.V] < n {
					n = memory[pk.V]
				}
				if n < 1 {
					ok = false
					break
				}
				for _, id := range cand.EdgeIDs {
					channels[id] -= n
				}
				memory[pk.U] -= n
				memory[pk.V] -= n
				pp.Hops = append(pp.Hops, sched.FixedHop{Pair: pk, Cand: cand, Attempts: n})
			}
			if !ok {
				// Roll back this path's partial reservations.
				for _, h := range pp.Hops {
					for _, id := range h.Cand.EdgeIDs {
						channels[id] += h.Attempts
					}
					memory[h.Pair.U] += h.Attempts
					memory[h.Pair.V] += h.Attempts
				}
				continue
			}
			for _, h := range pp.Hops {
				e.plan[h.Cand] += h.Attempts
			}
			e.paths = append(e.paths, pp)
			planned[i]++
			progress = true
		}
		if !progress {
			break
		}
	}
	e.expected = e.expectedEstablished()
}

// expectedEstablished is the heuristic value of the plan: per path, the
// probability every hop realizes at least one segment times the junction
// swap survival.
func (e *Engine) expectedEstablished() float64 {
	var total float64
	for _, pp := range e.paths {
		p := 1.0
		for _, h := range pp.Hops {
			p *= 1 - math.Pow(1-h.Cand.Prob, float64(h.Attempts))
		}
		for j := 1; j+1 < len(pp.Nodes); j++ {
			p *= e.Net.SwapProb[pp.Nodes[j]]
		}
		total += p
	}
	return total
}

// UpperBound returns the heuristic expected established count of the fixed
// plan (not an LP bound — the greedy solves none).
func (e *Engine) UpperBound() float64 { return e.expected }
