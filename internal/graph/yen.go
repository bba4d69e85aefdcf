package graph

// YenKShortest returns up to k loopless shortest paths from s to t in
// non-decreasing order of length, using Yen's algorithm over Dijkstra.
// Node weights in opts apply to intermediate nodes exactly as in Dijkstra.
// It returns fewer than k paths when the graph does not contain them.
//
// Each spur is a targeted search over one per-call DijkstraScratch: it
// stops once t is settled, skips the banned arcs out of the spur node
// instead of copying the graph, and excludes the root path through
// generation-stamped node marks. Equal-length paths are ordered
// lexicographically by node sequence. All working state is per call, so
// concurrent calls are safe.
func YenKShortest(g *Graph, s, t, k int, opts DijkstraOptions) []Path {
	if k <= 0 || s < 0 || t < 0 || s >= g.N() || t >= g.N() {
		return nil
	}
	if s == t {
		return []Path{{s}}
	}
	var sc DijkstraScratch
	first, _ := ShortestPathTarget(g, s, t, opts, &sc)
	if first == nil {
		return nil
	}
	accepted := []Path{first}

	type candidate struct {
		path Path
		len  float64
	}
	less := func(a, b candidate) bool {
		if a.len != b.len {
			return a.len < b.len
		}
		return lessPath(a.path, b.path)
	}
	var candidates []candidate
	seen := map[string]struct{}{pathKey(first): {}}
	ban := spurBan{mark: make([]uint32, g.N())}

	for len(accepted) < k {
		prev := accepted[len(accepted)-1]
		// For each node in the previous accepted path except the last,
		// branch on a deviation ("spur") from that node.
		for i := 0; i+1 < len(prev); i++ {
			spurNode := prev[i]
			rootPath := prev[:i+1]

			// Arcs to remove: for every accepted path sharing the root,
			// the arc it takes out of the spur node. Parallel arcs of a
			// banned pair all go, the standard treatment for multigraphs.
			ban.next = ban.next[:0]
			for _, p := range accepted {
				if len(p) > i+1 && p[:i+1].Equal(rootPath) {
					ban.next = append(ban.next, p[i+1])
				}
			}
			// Nodes on the root path (except the spur node) are forbidden
			// to keep paths loopless.
			ban.gen++
			for _, v := range rootPath[:i] {
				ban.mark[v] = ban.gen
			}
			sc.search(g, spurNode, t, opts, &ban)
			if !sc.reached(t) {
				continue
			}
			// The spur chain avoids every root node but the spur node
			// itself, so total is loopless by construction.
			total := sc.pathTo(spurNode, t, rootPath)
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
		// Candidates are distinct paths, so (length, node sequence) is a
		// strict order and the minimum is unique.
		best := 0
		for c := 1; c < len(candidates); c++ {
			if less(candidates[c], candidates[best]) {
				best = c
			}
		}
		accepted = append(accepted, candidates[best].path)
		candidates[best] = candidates[len(candidates)-1]
		candidates = candidates[:len(candidates)-1]
	}
	return accepted
}

func pathKey(p Path) string {
	b := make([]byte, 0, len(p)*3)
	for _, v := range p {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), ',')
	}
	return string(b)
}

func lessPath(a, b Path) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
