package graph

import (
	"container/heap"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestYenSimpleDiamond(t *testing.T) {
	// 0-1-3 (len 2), 0-2-3 (len 3), 0-3 (len 4)
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(2, 3, 2)
	g.AddEdge(0, 3, 4)
	paths := YenKShortest(g, 0, 3, 3, DijkstraOptions{})
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	if !paths[0].Equal(Path{0, 1, 3}) {
		t.Fatalf("path[0] = %v", paths[0])
	}
	if !paths[1].Equal(Path{0, 2, 3}) {
		t.Fatalf("path[1] = %v", paths[1])
	}
	if !paths[2].Equal(Path{0, 3}) {
		t.Fatalf("path[2] = %v", paths[2])
	}
}

func TestYenFewerPathsThanK(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	paths := YenKShortest(g, 0, 2, 5, DijkstraOptions{})
	if len(paths) != 1 {
		t.Fatalf("got %d paths, want 1 (line graph)", len(paths))
	}
}

func TestYenNoPath(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	if paths := YenKShortest(g, 0, 2, 3, DijkstraOptions{}); paths != nil {
		t.Fatalf("got %v, want nil for disconnected target", paths)
	}
}

func TestYenSourceEqualsTarget(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	paths := YenKShortest(g, 0, 0, 3, DijkstraOptions{})
	if len(paths) != 1 || !paths[0].Equal(Path{0}) {
		t.Fatalf("got %v, want single trivial path", paths)
	}
}

func TestYenInvalidArgs(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	if YenKShortest(g, 0, 1, 0, DijkstraOptions{}) != nil {
		t.Fatal("k=0 must return nil")
	}
	if YenKShortest(g, -1, 1, 2, DijkstraOptions{}) != nil {
		t.Fatal("bad source must return nil")
	}
	if YenKShortest(g, 0, 9, 2, DijkstraOptions{}) != nil {
		t.Fatal("bad target must return nil")
	}
}

func TestYenRespectsNodeWeights(t *testing.T) {
	// Through node 1 is shorter in edges but node 1 is expensive.
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 2)
	g.AddEdge(2, 3, 2)
	nw := func(v int) float64 {
		if v == 1 {
			return 10
		}
		return 0
	}
	paths := YenKShortest(g, 0, 3, 2, DijkstraOptions{NodeWeight: nw})
	if len(paths) != 2 {
		t.Fatalf("got %d paths", len(paths))
	}
	if !paths[0].Equal(Path{0, 2, 3}) {
		t.Fatalf("first path should avoid heavy node: %v", paths[0])
	}
}

// Properties on random graphs: paths are loopless, distinct, sorted by
// length, start/end correctly, and the first path is the Dijkstra shortest.
func TestYenProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(16)
		g := randomGraph(rng, n, rng.Intn(2*n))
		s, d := rng.Intn(n), rng.Intn(n)
		if s == d {
			continue
		}
		k := 1 + rng.Intn(6)
		paths := YenKShortest(g, s, d, k, DijkstraOptions{})
		if len(paths) == 0 {
			t.Fatalf("random tree-based graph must connect %d-%d", s, d)
		}
		if len(paths) > k {
			t.Fatalf("returned %d > k=%d paths", len(paths), k)
		}
		_, want := ShortestPath(g, s, d, DijkstraOptions{})
		if got := PathLength(g, paths[0], DijkstraOptions{}); got > want+1e-9 {
			t.Fatalf("first Yen path length %v > Dijkstra %v", got, want)
		}
		seen := map[string]struct{}{}
		prevLen := -1.0
		for _, p := range paths {
			if p[0] != s || p[len(p)-1] != d {
				t.Fatalf("bad endpoints: %v", p)
			}
			if !p.Loopless() {
				t.Fatalf("loopy path: %v", p)
			}
			key := pathKey(p)
			if _, dup := seen[key]; dup {
				t.Fatalf("duplicate path: %v", p)
			}
			seen[key] = struct{}{}
			l := PathLength(g, p, DijkstraOptions{})
			if l < prevLen-1e-9 {
				t.Fatalf("paths not sorted by length: %v after %v", l, prevLen)
			}
			prevLen = l
		}
	}
}

func TestYenFindsAllSimplePathsInSmallGraph(t *testing.T) {
	// Complete graph K4 with unit weights has 5 simple paths 0→3:
	// direct, two 2-hop, two 3-hop.
	g := New(4)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			g.AddEdge(u, v, 1)
		}
	}
	paths := YenKShortest(g, 0, 3, 10, DijkstraOptions{})
	if len(paths) != 5 {
		t.Fatalf("got %d paths, want 5: %v", len(paths), paths)
	}
}

// yenReference is the original clone-based Yen implementation, kept
// verbatim as the oracle for YenKShortest: every spur runs a full
// Dijkstra (container/heap) over a copy of the graph with the banned arcs
// removed, root nodes are excluded through a map, and candidates are
// ranked by a stable sort. The production search must return exactly the
// same paths in exactly the same order, because the order among
// equal-length paths decides which segment candidates exist downstream.
func yenReference(g *Graph, s, t, k int, opts DijkstraOptions) []Path {
	if k <= 0 || s < 0 || t < 0 || s >= g.N() || t >= g.N() {
		return nil
	}
	if s == t {
		return []Path{{s}}
	}
	first := referenceDijkstra(g, s, opts).PathTo(t)
	if first == nil {
		return nil
	}
	accepted := []Path{first}

	type candidate struct {
		path Path
		len  float64
	}
	var candidates []candidate
	seen := map[string]struct{}{pathKey(first): {}}

	for len(accepted) < k {
		prev := accepted[len(accepted)-1]
		for i := 0; i+1 < len(prev); i++ {
			spurNode := prev[i]
			rootPath := prev[:i+1]

			banned := make(map[[2]int]struct{})
			for _, p := range accepted {
				if len(p) > i+1 && Path(p[:i+1]).Equal(rootPath) {
					banned[[2]int{p[i], p[i+1]}] = struct{}{}
				}
			}
			rootSet := make(map[int]struct{}, i)
			for _, v := range rootPath[:i] {
				rootSet[v] = struct{}{}
			}

			spurOpts := opts
			baseForbidden := opts.Forbidden
			spurOpts.Forbidden = func(v int) bool {
				if _, ok := rootSet[v]; ok {
					return true
				}
				return baseForbidden != nil && baseForbidden(v)
			}
			spurRes := referenceArcBanDijkstra(g, spurNode, spurOpts, banned)
			spurPath := spurRes.PathTo(t)
			if spurPath == nil {
				continue
			}
			total := append(append(Path{}, rootPath...), spurPath[1:]...)
			if !total.Loopless() {
				continue
			}
			key := pathKey(total)
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			candidates = append(candidates, candidate{
				path: total,
				len:  PathLength(g, total, opts),
			})
		}
		if len(candidates) == 0 {
			break
		}
		sort.SliceStable(candidates, func(a, b int) bool {
			if candidates[a].len != candidates[b].len {
				return candidates[a].len < candidates[b].len
			}
			return lessPath(candidates[a].path, candidates[b].path)
		})
		best := candidates[0]
		candidates = candidates[1:]
		accepted = append(accepted, best.path)
	}
	return accepted
}

// referenceArcBanDijkstra runs a full Dijkstra over a copy of g without
// the banned (from, to) arcs; parallel arcs of a banned pair all go.
func referenceArcBanDijkstra(g *Graph, source int, opts DijkstraOptions, banned map[[2]int]struct{}) *ShortestResult {
	if len(banned) == 0 {
		return referenceDijkstra(g, source, opts)
	}
	h := New(g.N())
	h.numEdges = g.numEdges
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Neighbors(u) {
			if _, bad := banned[[2]int{u, e.To}]; bad {
				continue
			}
			h.adj[u] = append(h.adj[u], e)
		}
	}
	return referenceDijkstra(h, source, opts)
}

// refQueue is the original container/heap priority queue.
type refQueue []QueueItem

func (q refQueue) Len() int            { return len(q) }
func (q refQueue) Less(i, j int) bool  { return q[i].Dist < q[j].Dist }
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(QueueItem)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// referenceDijkstra is the original full Dijkstra over container/heap,
// the oracle for the typed heap's pop order.
func referenceDijkstra(g *Graph, source int, opts DijkstraOptions) *ShortestResult {
	n := g.N()
	res := &ShortestResult{
		Dist:     make([]float64, n),
		prev:     make([]int, n),
		prevEdge: make([]int, n),
		source:   source,
	}
	for i := range res.Dist {
		res.Dist[i] = Unreachable
		res.prev[i] = -1
		res.prevEdge[i] = -1
	}
	if source < 0 || source >= n {
		return res
	}
	res.Dist[source] = 0
	done := make([]bool, n)
	pq := refQueue{{Node: source, Dist: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(&pq).(QueueItem)
		u := it.Node
		if done[u] {
			continue
		}
		done[u] = true
		depart := it.Dist
		if opts.NodeWeight != nil && u != source {
			depart += opts.NodeWeight(u)
		}
		for _, e := range g.Neighbors(u) {
			if done[e.To] {
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
			if nd < res.Dist[e.To] {
				res.Dist[e.To] = nd
				res.prev[e.To] = u
				res.prevEdge[e.To] = e.ID
				heap.Push(&pq, QueueItem{Node: e.To, Dist: nd})
			}
		}
	}
	return res
}

// yenEquivalenceGraph draws one random test graph: a random tree plus
// extra edges, some of them parallel to existing ones, some one-way arcs.
// Integer weights from a small range make equal-length paths (and so the
// tie-breaking order) common; float weights exercise the general case.
func yenEquivalenceGraph(rng *rand.Rand, n int, intWeights bool) *Graph {
	weight := func() float64 {
		if intWeights {
			return float64(1 + rng.Intn(3))
		}
		return 0.5 + rng.Float64()*4
	}
	g := New(n)
	type arc struct{ u, v int }
	var arcs []arc
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		g.AddEdge(u, v, weight())
		arcs = append(arcs, arc{u, v})
	}
	for i, extra := 0, rng.Intn(3*n); i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if rng.Intn(4) == 0 {
			// A parallel copy of an existing edge.
			a := arcs[rng.Intn(len(arcs))]
			u, v = a.u, a.v
		}
		if u == v {
			continue
		}
		if rng.Intn(5) == 0 {
			g.AddArc(u, v, weight())
		} else {
			g.AddEdge(u, v, weight())
		}
		arcs = append(arcs, arc{u, v})
	}
	return g
}

// TestYenMatchesReference pins YenKShortest to yenReference on random
// multigraphs: identical paths in identical order, for every option the
// search honours (node weights, edge-weight overrides, forbidden nodes
// and forbidden edges), with tie-heavy integer and generic float weights.
func TestYenMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2022))
	const graphs = 360
	exercised := map[string]int{}
	for trial := 0; trial < graphs; trial++ {
		n := 3 + rng.Intn(22)
		intWeights := trial%2 == 0
		g := yenEquivalenceGraph(rng, n, intWeights)

		var opts DijkstraOptions
		variant := trial % 6
		switch {
		case variant == 1 || variant == 5:
			mod := 1 + rng.Intn(3)
			opts.NodeWeight = func(v int) float64 {
				if intWeights {
					return float64(v % mod)
				}
				return float64(v%mod) * 0.37
			}
			exercised["NodeWeight"]++
		}
		switch {
		case variant == 2 || variant == 5:
			scale := 1 + rng.Intn(2)
			opts.EdgeWeight = func(id int, stored float64) float64 {
				if id%3 == 0 {
					return stored * float64(scale)
				}
				return stored
			}
			exercised["EdgeWeight"]++
		}
		if variant == 3 || variant == 5 {
			bad := rng.Intn(n)
			opts.Forbidden = func(v int) bool { return v == bad || v%7 == 6 }
			exercised["Forbidden"]++
		}
		if variant == 4 || variant == 5 {
			ids := g.NumEdgeIDs()
			banned := map[int]bool{}
			for j := 0; j < 1+ids/6; j++ {
				banned[rng.Intn(ids)] = true
			}
			opts.ForbiddenEdge = func(id int) bool { return banned[id] }
			exercised["ForbiddenEdge"]++
		}

		for q := 0; q < 4; q++ {
			s, d := rng.Intn(n), rng.Intn(n)
			k := 1 + rng.Intn(9)
			want := yenReference(g, s, d, k, opts)
			got := YenKShortest(g, s, d, k, opts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("graph %d (n=%d, int=%v, variant %d) %d→%d k=%d:\n got  %v\n want %v",
					trial, n, intWeights, variant, s, d, k, got, want)
			}
		}
	}
	for _, name := range []string{"NodeWeight", "EdgeWeight", "Forbidden", "ForbiddenEdge"} {
		if exercised[name] == 0 {
			t.Fatalf("option %s never exercised", name)
		}
	}
}
