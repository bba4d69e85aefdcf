package sched

import (
	"math"

	"see/internal/graph"
	"see/internal/qnet"
	"see/internal/segment"
	"see/internal/topo"
)

// Routing weights of the fixed-path planners (greedy, contend) on the
// segment graph: an infeasible element gets a prohibitive weight, and a
// route as long as RejectThreshold crossed one.
const (
	InfeasibleWeight = 1e12
	RejectThreshold  = 1e11
)

// SwapNodeWeight returns the fixed-path planners' node weight −ln q_u
// (junctions must survive their swap), InfeasibleWeight for a node that
// cannot swap.
func SwapNodeWeight(net *topo.Network) func(int) float64 {
	return func(u int) float64 {
		q := net.SwapProb[u]
		if q <= 0 {
			return InfeasibleWeight
		}
		return -math.Log(q)
	}
}

// FixedHop is one planned segment of a fixed path: the endpoint pair, the
// physical realization reserved for it and its creation attempts.
type FixedHop struct {
	Pair     segment.PairKey
	Cand     *segment.Candidate
	Attempts int
}

// FixedPath is one entanglement path an engine fixed at construction: its
// SD-pair index, its junction sequence and the planned segment of each
// hop.
type FixedPath struct {
	Commodity int
	Nodes     graph.Path
	Hops      []FixedHop
}

// FixedSteps returns the steps of an engine whose paths and attempt plan
// are fixed at construction (greedy, contend): the plan phase reports the
// paths, the reserve phase re-commits plan plus standby, and the stitch
// phase is StitchFixed. bound is the engine's planning value; connCap is
// the per-pair connection cap.
func FixedSteps(bound func() float64, paths []FixedPath, plan, standby qnet.AttemptPlan, connCap []int) Steps {
	return Steps{
		Bound: bound,
		Plan: func(s *Slot) {
			s.Result.PlannedPaths = len(paths)
			if s.Traced {
				for _, p := range paths {
					s.Tracer.PathPlanned(p.Commodity, len(p.Hops))
				}
			}
		},
		Reserve: func(s *Slot) (qnet.AttemptPlan, qnet.AttemptPlan, error) {
			s.Result.ProvisionedPaths = len(paths)
			if s.Traced {
				for _, p := range paths {
					s.Tracer.PathProvisioned(p.Commodity)
				}
			}
			return plan, standby, nil
		},
		Stitch: func(s *Slot, pool *qnet.Pool) []*qnet.Connection {
			return s.StitchFixed(pool, paths, connCap)
		},
	}
}

// StitchFixed assembles connections over fixed paths: it sweeps the paths
// in order, assembling each whose hops all have a realized segment and
// whose pair is under its cap, and repeats while a sweep makes progress,
// so redundant segments retry a path whose swap failed. A path whose best
// available composition misses its pair's fidelity floor is dead for the
// rest of the slot. It records assembly attempts and floor rejections in
// the slot's result.
func (s *Slot) StitchFixed(pool *qnet.Pool, paths []FixedPath, connCap []int) []*qnet.Connection {
	f := s.frame
	served := f.served
	clear(served)
	res := s.Result
	var out []*qnet.Connection
	var floorDead []bool // paths proven unable to meet their floor
	for {
		progress := false
		for pi, p := range paths {
			if served[p.Commodity] >= connCap[p.Commodity] {
				continue
			}
			if floorDead != nil && floorDead[pi] {
				continue
			}
			ok := true
			for _, h := range p.Hops {
				if pool.Available(h.Pair) < 1 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			conn := &qnet.Connection{Pair: p.Commodity, Nodes: p.Nodes}
			for _, h := range p.Hops {
				conn.Segments = append(conn.Segments, f.floors.Take(pool, p.Commodity, h.Pair))
			}
			if f.floors.Rejects(p.Commodity, conn.Segments) {
				for _, seg := range conn.Segments {
					pool.Return(seg)
				}
				if floorDead == nil {
					floorDead = make([]bool, len(paths))
				}
				floorDead[pi] = true
				res.FloorRejected++
				s.Tracer.Incident(IncidentFloorReject, 1)
				continue
			}
			res.Assembled++
			progress = true
			ok = conn.EstablishOrderedObserved(f.net, pool, s.Rng, f.swaps, f.opts.SwapOrder)
			s.Tracer.ConnectionAssembled(p.Commodity, ok)
			if ok {
				out = append(out, conn)
				served[p.Commodity]++
			}
		}
		if !progress {
			return out
		}
	}
}
