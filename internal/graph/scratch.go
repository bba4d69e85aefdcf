package graph

// DijkstraScratch holds the reusable per-call buffers of a targeted
// shortest-path query. Engines run thousands of small queries per slot
// (the ECE stitch loop, REPS's pool selection); keeping one scratch per
// engine turns the four O(n) allocations per query into zero. The zero
// value is ready and grows on first use. Not safe for concurrent queries.
type DijkstraScratch struct {
	dist     []float64
	prev     []int
	prevEdge []int
	done     []bool
	pq       Queue
}

func (sc *DijkstraScratch) reset(n int) {
	if len(sc.dist) != n {
		sc.dist = make([]float64, n)
		sc.prev = make([]int, n)
		sc.prevEdge = make([]int, n)
		sc.done = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		sc.dist[i] = Unreachable
		sc.prev[i] = -1
		sc.prevEdge[i] = -1
		sc.done[i] = false
	}
	sc.pq = sc.pq[:0]
}

// spurBan is the extra restriction of one Yen spur search: nodes whose
// mark equals gen (the root path before the spur node) are forbidden, and
// arcs from the source to any node in next are skipped. Every arc Yen
// bans leaves the spur node, so only the source's out-arcs are checked.
type spurBan struct {
	mark []uint32
	gen  uint32
	next []int
}

func (b *spurBan) bansArc(to int) bool {
	for _, v := range b.next {
		if v == to {
			return true
		}
	}
	return false
}

// search runs Dijkstra from s, leaving distances and predecessors in sc.
// It stops once t is settled; t < 0 settles every reachable node. ban,
// when non-nil, adds a Yen spur restriction. A targeted search pops and
// relaxes exactly as the full one does until t is settled, and t's
// predecessor chain is final by then, so both yield the same path to t.
func (sc *DijkstraScratch) search(g *Graph, s, t int, opts DijkstraOptions, ban *spurBan) {
	n := g.N()
	sc.reset(n)
	if s < 0 || s >= n {
		return
	}
	sc.dist[s] = 0
	sc.pq.Push(QueueItem{Node: s, Dist: 0})
	for len(sc.pq) > 0 {
		it := sc.pq.Pop()
		u := it.Node
		if sc.done[u] {
			continue
		}
		sc.done[u] = true
		if u == t {
			break
		}
		depart := it.Dist
		if opts.NodeWeight != nil && u != s {
			depart += opts.NodeWeight(u)
		}
		for _, e := range g.Neighbors(u) {
			if sc.done[e.To] {
				continue
			}
			if ban != nil && (ban.mark[e.To] == ban.gen || (u == s && ban.bansArc(e.To))) {
				continue
			}
			if opts.Forbidden != nil && opts.Forbidden(e.To) {
				continue
			}
			if opts.ForbiddenEdge != nil && opts.ForbiddenEdge(e.ID) {
				continue
			}
			w := e.Weight
			if opts.EdgeWeight != nil {
				w = opts.EdgeWeight(e.ID, e.Weight)
			}
			nd := depart + w
			if nd < sc.dist[e.To] {
				sc.dist[e.To] = nd
				sc.prev[e.To] = u
				sc.prevEdge[e.To] = e.ID
				sc.pq.Push(QueueItem{Node: e.To, Dist: nd})
			}
		}
	}
}

// reached reports whether the latest search reached t, a valid node.
func (sc *DijkstraScratch) reached(t int) bool { return sc.dist[t] != Unreachable }

// pathTo returns prefix followed by the settled s→t chain after s (s
// itself is prefix's last node, or the path's first node when prefix is
// empty), in one allocation.
func (sc *DijkstraScratch) pathTo(s, t int, prefix Path) Path {
	length := 1
	for v := t; v != s; v = sc.prev[v] {
		length++
	}
	if len(prefix) > 0 {
		length--
	}
	path := make(Path, len(prefix)+length)
	copy(path, prefix)
	for i, v := len(path)-1, t; i >= len(prefix); i, v = i-1, sc.prev[v] {
		path[i] = v
	}
	return path
}

// ShortestPathTarget is ShortestPath with all working storage taken from
// sc (nil allocates fresh buffers). The search stops as soon as the target
// is settled: its distance and predecessor chain are final at pop time
// under non-negative weights, and the chain's nodes are all settled, so
// the reconstructed path is identical to the full Dijkstra run's. Returns
// (nil, Unreachable) when no path exists.
func ShortestPathTarget(g *Graph, s, t int, opts DijkstraOptions, sc *DijkstraScratch) (Path, float64) {
	if sc == nil {
		sc = &DijkstraScratch{}
	}
	if t < 0 || t >= g.N() {
		return nil, Unreachable
	}
	sc.search(g, s, t, opts, nil)
	if !sc.reached(t) {
		return nil, Unreachable
	}
	return sc.pathTo(s, t, nil), sc.dist[t]
}

// EdgesOf returns the edge IDs along p, a path the latest
// ShortestPathTarget call on sc returned: the same IDs
// ShortestResult.EdgesTo reports for the full run. It returns nil for a
// path of fewer than two nodes.
func (sc *DijkstraScratch) EdgesOf(p Path) []int {
	if len(p) < 2 {
		return nil
	}
	ids := make([]int, len(p)-1)
	for i := 1; i < len(p); i++ {
		ids[i-1] = sc.prevEdge[p[i]]
	}
	return ids
}
