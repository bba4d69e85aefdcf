package flow

import (
	"math"

	"see/internal/graph"
)

// priceScratch holds the reusable buffers of one worker's pricing oracle:
// the layered DP's tables and frontiers, and the targeted Dijkstra of the
// unweighted objective. Each parallel pricing worker owns exactly one (see
// model.price), so pricing never shares state across goroutines; its zero
// value is ready and grows on first use.
type priceScratch struct {
	dist     []float64
	logq     []float64
	prevNode []int32
	prevEdge []int32
	// frontier and next are the DP's double-buffered layer frontiers;
	// inFrontier marks the nodes of next and is all false between calls.
	frontier   []int
	next       []int
	inFrontier []bool
	cands      []layerCand
	dest       destSearch
	sp         graph.DijkstraScratch
}

// layerCand is one hop count whose min-cost path to the destination
// qualifies, with its reduced cost and swap-survival weight.
type layerCand struct {
	h  int
	rc float64
	w  float64
}

func (ps *priceScratch) resize(layers, n int) {
	if len(ps.dist) != layers*n {
		ps.dist = make([]float64, layers*n)
		ps.logq = make([]float64, layers*n)
		ps.prevNode = make([]int32, layers*n)
		ps.prevEdge = make([]int32, layers*n)
	}
	if len(ps.inFrontier) != n {
		ps.inFrontier = make([]bool, n)
		ps.dest.lb = make([]float64, n)
		ps.dest.settled = make([]bool, n)
	}
}

// pruneSlack is the relative margin δ of the layered DP's pruning test.
// Sums of the same costs in another order differ by a few ulps; 1e-12
// lies far above that, so rounding never prunes a state that could still
// become a column.
const pruneSlack = 1e-12

// buildLayerBounds fills layerW: layerW[h] bounds the swap survival of any
// walk that leaves layer h−1, whatever its path. A walk ending at layer
// h' ≥ h has h'−1 junctions, each surviving with at most q_max, so the
// bound is the largest q_max^(h'−1) over h' ≥ h: q_max^(h−1) when
// q_max ≤ 1, and 1 at the source.
func (m *model) buildLayerBounds() {
	qMax := 0.0
	for _, q := range m.set.Net.SwapProb {
		qMax = max(qMax, q)
	}
	maxHops := m.opts.MaxJunctions + 1
	m.layerW = make([]float64, maxHops+1)
	w := 1.0
	for h := 1; h <= maxHops; h++ {
		m.layerW[h] = w
		w *= qMax
	}
	for h := maxHops - 1; h >= 1; h-- {
		m.layerW[h] = max(m.layerW[h], m.layerW[h+1])
	}
}

// layeredPrice is the pricing oracle for the swap-weighted objective: it
// finds, over all hop counts h ≤ MaxJunctions+1, the s→d path of exactly h
// segment hops minimizing resource cost, and returns the one maximizing
//
//	w(path) − dualI − cost,   w = Π_{junctions} q_j,
//
// if that exceeds eps. Because a path with h hops has exactly h−1
// junctions, hop count is a DAG layer: dist_h[v] = min over arcs (u,v) of
// dist_{h−1}[u] + cost(u,v), a pure dynamic program with no priority queue.
// For networks with uniform swap probability (the paper's setting) the
// layer fixes w exactly; for heterogeneous q the survival of the stored
// min-cost path is used, a conservative approximation.
//
// Min-cost fixed-hop walks may in principle revisit nodes; such walks are
// strictly dominated (positive arc costs, weights ≤ 1), so loopy
// reconstructions are skipped and a dominating simple path at another
// layer wins instead.
//
// Outside the seeding round the DP does not relax out of a state
// (h−1, u) that cannot lead to a column: every walk through it costs at
// least dist + LB[u], LB being u's min-cost distance to d (destSearch), and
// survives at most layerW[h], so it is skipped when
//
//	layerW[h]·(1+δ) − dualI − (dist + LB[u])·(1−δ) ≤ eps.
//
// A state on a walk that can still become a column is never skipped, and
// neither is any state before it on that walk, so it keeps its value;
// DESIGN.md §9 gives the argument.
//
// It returns (nil, nil, 0) when no path qualifies.
func (m *model) layeredPrice(ps *priceScratch, i int, dualI, eps float64) (graph.Path, []int, float64) {
	sd := m.set.Pairs[i]
	g := m.set.SegGraph
	n := g.N()
	maxHops := m.opts.MaxJunctions + 1

	ps.resize(maxHops+1, n)
	dist, logq := ps.dist, ps.logq
	prevNode, prevEdge := ps.prevNode, ps.prevEdge
	// Only dist needs resetting: prevNode/prevEdge are read exclusively at
	// entries whose dist was written this call (reconstruct follows layers
	// h…1 of a finite-dist path), so stale values are never observed.
	for k := range dist {
		dist[k] = math.Inf(1)
	}
	idx := func(h, v int) int { return h*n + v }
	dist[idx(0, sd.S)] = 0

	seeding := math.IsInf(dualI, -1)
	if !seeding {
		ps.dest.reset(g, m.bestCost, sd.D)
	}

	// frontier holds the nodes reachable at the previous layer, next
	// collects this layer's; the two buffers swap roles every layer.
	// inFrontier marks exactly the nodes of next, so clearing the marks of
	// the frontier that next is about to replace resets it.
	frontier := append(ps.frontier[:0], sd.S)
	next := ps.next[:0]
	inFrontier := ps.inFrontier
	for h := 1; h <= maxHops && len(frontier) > 0; h++ {
		for _, u := range frontier {
			inFrontier[u] = false
		}
		next = next[:0]
		limit := math.Inf(1)
		if !seeding {
			limit = m.pruneLimit(h, dualI, eps)
		}
		for _, u := range frontier {
			var addLogq float64
			if u != sd.S {
				addLogq = m.negLogQ[u]
				if math.IsInf(addLogq, 1) {
					continue
				}
			}
			du := dist[idx(h-1, u)]
			if !seeding && ps.dest.beyond(u, du, limit) {
				continue
			}
			lq := logq[idx(h-1, u)] + addLogq
			for _, e := range g.Neighbors(u) {
				// A dead edge costs +Inf, so nd < dist[to] fails.
				to := idx(h, e.To)
				if nd := du + m.bestCost[e.ID]; nd < dist[to] {
					dist[to] = nd
					logq[to] = lq
					prevNode[to] = int32(u)
					prevEdge[to] = int32(e.ID)
					if !inFrontier[e.To] {
						inFrontier[e.To] = true
						next = append(next, e.To)
					}
				}
			}
		}
		frontier, next = next, frontier
	}
	for _, u := range frontier {
		inFrontier[u] = false
	}
	ps.frontier, ps.next = frontier, next

	// Rank layers by reduced cost; seeding (dualI = −Inf) accepts the best
	// finite layer unconditionally.
	effDual := dualI
	minRC := eps
	if seeding {
		effDual = 0
		minRC = math.Inf(-1)
	}
	cands := ps.cands[:0]
	for h := 1; h <= maxHops; h++ {
		st := idx(h, sd.D)
		if math.IsInf(dist[st], 1) {
			continue
		}
		w := math.Exp(-logq[st])
		if rc := w - effDual - dist[st]; rc > minRC {
			cands = append(cands, layerCand{h: h, rc: rc, w: w})
		}
	}
	ps.cands = cands
	// Try candidates from best reduced cost down, skipping loopy walks.
	for len(cands) > 0 {
		best := 0
		for k := 1; k < len(cands); k++ {
			if cands[k].rc > cands[best].rc {
				best = k
			}
		}
		nodes, edges := reconstruct(prevNode, prevEdge, n, cands[best].h, sd.D)
		if nodes.Loopless() {
			return nodes, edges, cands[best].w
		}
		cands[best] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]
	}
	return nil, nil, 0
}

// pruneLimit is the cost from which a state leaving layer h−1 cannot
// lead to a column for a commodity of dual dualI: the DP skips (h−1, u)
// once dist + LB[u] reaches it.
func (m *model) pruneLimit(h int, dualI, eps float64) float64 {
	return (m.layerW[h]*(1+pruneSlack) - dualI - eps) / (1 - pruneSlack)
}

// destSearch answers the layered DP's pruning test. It is a Dijkstra
// search from the destination d over the edge costs (the segment graph is
// undirected, so it settles each node's min-cost distance LB to d) that
// runs only as far as the queries need: the search settles nodes in
// order of LB, so once the next distance K to settle satisfies
// dist + K ≥ limit, every unsettled node is known to be beyond the limit.
// Each answer therefore equals the one the full search would give.
type destSearch struct {
	g       *graph.Graph
	cost    []float64
	lb      []float64
	settled []bool
	heap    graph.Queue
}

// reset starts a new search from d; lb and settled are sized by resize.
func (s *destSearch) reset(g *graph.Graph, cost []float64, d int) {
	s.g, s.cost = g, cost
	for v := range s.lb {
		s.lb[v] = math.Inf(1)
		s.settled[v] = false
	}
	s.lb[d] = 0
	s.heap = append(s.heap[:0], graph.QueueItem{Node: d, Dist: 0})
}

// beyond reports whether dist + LB[u] ≥ limit, settling only the nodes
// closer to d than that takes to decide. Nodes d cannot reach are beyond
// every limit.
func (s *destSearch) beyond(u int, dist, limit float64) bool {
	for !s.settled[u] {
		for len(s.heap) > 0 && s.settled[s.heap[0].Node] {
			s.heap.Pop()
		}
		if len(s.heap) == 0 {
			return true
		}
		it := s.heap[0]
		if dist+it.Dist >= limit {
			return true
		}
		s.heap.Pop()
		s.settled[it.Node] = true
		for _, e := range s.g.Neighbors(it.Node) {
			if s.settled[e.To] {
				continue
			}
			if nd := it.Dist + s.cost[e.ID]; nd < s.lb[e.To] {
				s.lb[e.To] = nd
				s.heap.Push(graph.QueueItem{Node: e.To, Dist: nd})
			}
		}
	}
	return dist+s.lb[u] >= limit
}

func reconstruct(prevNode, prevEdge []int32, n, h, dst int) (graph.Path, []int) {
	nodes := make(graph.Path, h+1)
	edges := make([]int, h)
	v := dst
	for layer := h; layer > 0; layer-- {
		nodes[layer] = v
		edges[layer-1] = int(prevEdge[layer*n+v])
		v = int(prevNode[layer*n+v])
	}
	nodes[0] = v
	return nodes, edges
}
