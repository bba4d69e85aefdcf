package core

import (
	"see/internal/flow"
	"see/internal/graph"
	"see/internal/qnet"
	"see/internal/segment"
)

// slotScratch holds the per-slot reusable buffers of the engine's slot
// steps (the frame owns the attempt-ordering buffer and the segment pool).
// One instance lives on the Engine and is recycled every slot, so the
// steady-state slot loop performs no ledger/map/graph re-allocation. The
// arena lifetime rule (DESIGN.md §9): scratch may only hold state that is
// dead by slot end — anything that can outlive the slot (realized
// segments, connections, the attempt plan handed out by PlanSlot) is
// allocated fresh. PlanSlot therefore runs with a nil scratch.
type slotScratch struct {
	// The paths EPI planned and ESC provisioned this slot.
	planned     []PlannedPath
	provisioned []PlannedPath

	// ESC: reservation ledger (Reset per slot) and coverage tables.
	ledger   *qnet.Ledger
	plan     qnet.AttemptPlan
	expected map[segment.PairKey]float64
	demand   map[segment.PairKey]int
	attempts map[segment.PairKey]int
	keys     []segment.PairKey
	escPre   []escCandidate

	// ECE: per-pair counters, auxiliary stitch graph and the
	// targeted-Dijkstra buffers.
	perPair  []int
	aux      *graph.Graph
	auxPairs []segment.PairKey
	dij      graph.DijkstraScratch
}

// escCandidate is one precomputed backup-provisioning choice: the best
// reservable candidate for a pair at round start and its index in the
// ByPair list (the optimistic parallel scan's serial-fallback start).
type escCandidate struct {
	cand *segment.Candidate
	idx  int
}

// scratch returns the engine's slot scratch, creating it on first use.
func (e *Engine) scratch() *slotScratch {
	if e.slot == nil {
		e.slot = &slotScratch{
			ledger:   qnet.NewLedgerWithCapacities(e.Net, e.opts.PlanChannels, e.opts.PlanMemory),
			plan:     make(qnet.AttemptPlan),
			expected: make(map[segment.PairKey]float64),
			demand:   make(map[segment.PairKey]int),
			attempts: make(map[segment.PairKey]int),
			perPair:  make([]int, len(e.Pairs)),
			aux:      graph.New(e.Net.NumNodes()),
		}
	}
	return e.slot
}

// epiTables returns the per-commodity path lists and sampling weights of
// the fixed LP solution, derived once on first use: the solution never
// changes after construction, so re-deriving them every slot (the old
// behavior) was pure allocation churn.
func (e *Engine) epiTables() ([][]flow.PathFlow, [][]float64) {
	if e.epiPaths == nil {
		e.epiPaths, e.epiWeights = deriveEpiTables(len(e.Pairs), e.LP)
	}
	return e.epiPaths, e.epiWeights
}

// deriveEpiTables groups a solution's paths by commodity and extracts the
// flow sampling weights. The fixed construction LP caches the result (see
// epiTables); the carry-aware per-slot re-solve derives slot-local tables.
func deriveEpiTables(numPairs int, sol *flow.Solution) ([][]flow.PathFlow, [][]float64) {
	paths := make([][]flow.PathFlow, numPairs)
	for _, pf := range sol.Paths {
		paths[pf.Commodity] = append(paths[pf.Commodity], pf)
	}
	weights := make([][]float64, numPairs)
	for i, list := range paths {
		if len(list) == 0 {
			continue
		}
		w := make([]float64, len(list))
		for j, pf := range list {
			w[j] = pf.Flow
		}
		weights[i] = w
	}
	return paths, weights
}
