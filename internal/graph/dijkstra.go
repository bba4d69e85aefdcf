package graph

import "math"

// Unreachable is the distance reported for nodes with no path from the
// source.
const Unreachable = math.MaxFloat64

// DijkstraOptions controls a shortest-path run.
type DijkstraOptions struct {
	// NodeWeight, when non-nil, adds NodeWeight(v) every time the path
	// passes *through* v as an intermediate node (it is charged when
	// departing v, so neither the source nor the final destination pay
	// their own weight). This matches the auxiliary-graph construction in
	// the paper's ECE algorithm, where junction nodes cost −ln q_u.
	NodeWeight func(v int) float64
	// Forbidden, when non-nil, reports nodes that must not be traversed.
	// The source is always allowed.
	Forbidden func(v int) bool
	// ForbiddenEdge, when non-nil, reports edge IDs that must not be used.
	ForbiddenEdge func(id int) bool
	// EdgeWeight, when non-nil, overrides the stored weight of each edge.
	// Returning a negative value is invalid. It allows callers (e.g. the
	// column-generation pricing oracle) to re-weight a graph per query
	// without rebuilding it.
	EdgeWeight func(id int, stored float64) float64
}

// ShortestResult holds single-source shortest path output.
type ShortestResult struct {
	Dist []float64
	// prev[v] is the predecessor node on a shortest path, prevEdge[v] the
	// edge ID used to enter v; both are -1 for the source and unreachable
	// nodes.
	prev     []int
	prevEdge []int
	source   int
}

// PathTo reconstructs a shortest path from the source to t, or nil if t is
// unreachable.
func (r *ShortestResult) PathTo(t int) Path {
	if t < 0 || t >= len(r.Dist) || r.Dist[t] == Unreachable {
		return nil
	}
	var rev []int
	for v := t; v != -1; v = r.prev[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// EdgesTo returns the edge IDs along the shortest path to t, or nil if
// unreachable.
func (r *ShortestResult) EdgesTo(t int) []int {
	if t < 0 || t >= len(r.Dist) || r.Dist[t] == Unreachable || t == r.source {
		return nil
	}
	var rev []int
	for v := t; r.prev[v] != -1; v = r.prev[v] {
		rev = append(rev, r.prevEdge[v])
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// QueueItem is one entry of a Queue: a node and its tentative distance.
type QueueItem struct {
	Node int
	Dist float64
}

// Queue is a binary min-heap on Dist for Dijkstra-style searches; a
// search pushes a node again when its distance drops and skips stale
// entries itself. Push and Pop are container/heap's Push and Pop
// specialised to it: the same sift-up and sift-down steps with the same
// comparisons, so items of equal distance leave the heap in exactly the
// order heap.Pop would produce, without boxing each item in an interface.
type Queue []QueueItem

// Push adds it to the queue.
func (q *Queue) Push(it QueueItem) {
	h := append(*q, it)
	*q = h
	for j := len(h) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].Dist < h[i].Dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// Pop removes and returns the item of least Dist; the queue must not be
// empty.
func (q *Queue) Pop() QueueItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].Dist < h[j1].Dist {
			j = j2 // right child
		}
		if !(h[j].Dist < h[i].Dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	*q = h[:n]
	return it
}

// Dijkstra computes single-source shortest paths with non-negative edge
// weights, optionally adding node weights at intermediate nodes and
// honouring node/edge exclusions. Negative edge weights cause undefined
// results; use BellmanFord to detect them in tests.
func Dijkstra(g *Graph, source int, opts DijkstraOptions) *ShortestResult {
	sc := &DijkstraScratch{}
	sc.search(g, source, -1, opts, nil)
	return &ShortestResult{Dist: sc.dist, prev: sc.prev, prevEdge: sc.prevEdge, source: source}
}

// ShortestPath returns the path from s to t and its length, exactly as a
// full Dijkstra run reconstructs them, from a search that stops once t is
// settled. It returns (nil, Unreachable) when no path exists.
func ShortestPath(g *Graph, s, t int, opts DijkstraOptions) (Path, float64) {
	return ShortestPathTarget(g, s, t, opts, nil)
}

// PathLength computes the total cost of a path under the same cost model as
// Dijkstra (edge weights plus node weights at intermediate nodes). The edge
// chosen between consecutive nodes is the minimum-weight parallel arc. It
// returns Unreachable if consecutive nodes are not adjacent.
func PathLength(g *Graph, p Path, opts DijkstraOptions) float64 {
	if len(p) == 0 {
		return Unreachable
	}
	var total float64
	for i := 0; i+1 < len(p); i++ {
		if i > 0 && opts.NodeWeight != nil {
			total += opts.NodeWeight(p[i])
		}
		best := Unreachable
		for _, e := range g.Neighbors(p[i]) {
			if e.To != p[i+1] {
				continue
			}
			if opts.ForbiddenEdge != nil && opts.ForbiddenEdge(e.ID) {
				continue
			}
			w := e.Weight
			if opts.EdgeWeight != nil {
				w = opts.EdgeWeight(e.ID, e.Weight)
			}
			if w < best {
				best = w
			}
		}
		if best == Unreachable {
			return Unreachable
		}
		total += best
	}
	return total
}
