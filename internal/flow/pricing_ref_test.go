package flow

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"see/internal/graph"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

// refLayeredPrice is the layered pricing DP before it pruned states,
// kept verbatim as a test-only reference: it relaxes out of every
// reachable state of every layer.
func refLayeredPrice(m *model, ps *priceScratch, i int, dualI, eps float64) (graph.Path, []int, float64) {
	sd := m.set.Pairs[i]
	g := m.set.SegGraph
	n := g.N()
	maxHops := m.opts.MaxJunctions + 1

	ps.resize(maxHops+1, n)
	dist, logq := ps.dist, ps.logq
	prevNode, prevEdge := ps.prevNode, ps.prevEdge
	for k := range dist {
		dist[k] = math.Inf(1)
	}
	idx := func(h, v int) int { return h*n + v }
	dist[idx(0, sd.S)] = 0

	frontier := append(ps.frontier[:0], sd.S)
	next := ps.next[:0]
	inFrontier := ps.inFrontier
	for h := 1; h <= maxHops && len(frontier) > 0; h++ {
		for _, u := range frontier {
			inFrontier[u] = false
		}
		next = next[:0]
		for _, u := range frontier {
			du := dist[idx(h-1, u)]
			base := du
			var addLogq float64
			if u != sd.S {
				addLogq = m.negLogQ[u]
				if math.IsInf(addLogq, 1) {
					continue
				}
			}
			lq := logq[idx(h-1, u)] + addLogq
			for _, e := range g.Neighbors(u) {
				w := m.bestCost[e.ID]
				if math.IsInf(w, 1) {
					continue
				}
				to := idx(h, e.To)
				if nd := base + w; nd < dist[to] {
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

	effDual := dualI
	minRC := eps
	if math.IsInf(dualI, -1) {
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

// refPricingSet builds a 60-node instance with 12 SD pairs; mixed draws
// every node's swap probability from [0.4, 1] and sets a few to 0.
func refPricingSet(t *testing.T, seed int64, mixed bool) *segment.Set {
	t.Helper()
	cfg := topo.DefaultConfig()
	cfg.Nodes = 60
	net, err := topo.Generate(cfg, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	if mixed {
		rng := rand.New(rand.NewSource(seed))
		for v := range net.SwapProb {
			net.SwapProb[v] = 0.4 + 0.6*rng.Float64()
			if v%17 == 3 {
				net.SwapProb[v] = 0
			}
		}
	}
	pairs := topo.ChooseSDPairs(net, 12, xrand.New(seed+1))
	set, err := segment.Build(net, pairs, segment.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// pathCost sums bestCost along edges in walk order, as the DP does.
func pathCost(m *model, edges []int) float64 {
	var c float64
	for _, id := range edges {
		c += m.bestCost[id]
	}
	return c
}

// TestLayeredPriceMatchesReference compares the pruned layered DP with
// the unpruned reference call by call: every commodity, under random
// duals drawn so that some commodities price a column and others do not,
// the seeding round, carry weights, dead links (+Inf costs) and mixed
// swap probabilities with q = 0 nodes.
//
// On the instances' float costs the two must return the same path, edges
// and weight bit for bit. The tie-heavy variant rounds every edge cost to
// a multiple of 1/4, so many walks tie exactly: a skipped state can then
// change the order of the next frontier and so which of two equal-cost
// walks a state keeps (DESIGN.md §9). There the two must agree on the
// reduced cost and weight of the returned path.
func TestLayeredPriceMatchesReference(t *testing.T) {
	type variant struct {
		name  string
		mixed bool
		ties  bool
		opts  func(set *segment.Set) Options
	}
	plain := func(*segment.Set) Options { return Options{} }
	variants := []variant{
		{name: "plain", opts: plain},
		{name: "mixed-q", mixed: true, opts: plain},
		{name: "carry", mixed: true, opts: func(set *segment.Set) Options {
			cw := make([]float64, len(set.EdgePairs))
			for id := range cw {
				cw[id] = 1 + float64(id%4)*0.5
			}
			return Options{CarryWeights: cw}
		}},
		{name: "dead-links", opts: func(set *segment.Set) Options {
			ch := append([]int(nil), set.Net.Channels...)
			for id := range ch {
				if id%5 == 1 {
					ch[id] = 0
				}
			}
			return Options{DropDeadLinks: true, Channels: ch}
		}},
		{name: "ties", ties: true, opts: plain},
		{name: "ties-mixed-q", ties: true, mixed: true, opts: plain},
	}
	const eps = 1e-7
	for vi, v := range variants {
		found, empty := 0, 0
		for seed := int64(1); seed <= 3; seed++ {
			set := refPricingSet(t, 10*seed+int64(vi), v.mixed)
			opts := v.opts(set)
			opts.SwapWeightedObjective = true
			opts.Workers = 1
			m := pricingModel(set, opts)
			rng := rand.New(rand.NewSource(seed))
			got, want := &priceScratch{}, &priceScratch{}
			for round := 0; round < 8; round++ {
				duals := unitDuals(m.numRows)
				if round > 0 {
					for r := range duals {
						duals[r] = rng.Float64() * 0.05 * float64(round)
					}
				}
				if err := m.priceRealizations(nil, duals); err != nil {
					t.Fatal(err)
				}
				if v.ties {
					for id, c := range m.bestCost {
						if !math.IsInf(c, 1) {
							m.bestCost[id] = math.Ceil(c*4) / 4
						}
					}
				}
				for i := range set.Pairs {
					for _, dualI := range []float64{math.Inf(-1), rng.Float64() * 0.9, duals[i]} {
						gn, ge, gw := m.layeredPrice(got, i, dualI, eps)
						wn, we, ww := refLayeredPrice(m, want, i, dualI, eps)
						if (gn == nil) != (wn == nil) {
							t.Fatalf("%s seed %d round %d pair %d dual %v: found %v, reference %v",
								v.name, seed, round, i, dualI, gn != nil, wn != nil)
						}
						if gn == nil {
							empty++
							continue
						}
						found++
						if math.Float64bits(gw) != math.Float64bits(ww) {
							t.Fatalf("%s seed %d round %d pair %d: weight %v, reference %v", v.name, seed, round, i, gw, ww)
						}
						if v.ties {
							grc := gw - dualI - pathCost(m, ge)
							wrc := ww - dualI - pathCost(m, we)
							if math.IsInf(dualI, -1) {
								grc, wrc = -pathCost(m, ge), -pathCost(m, we)
							}
							if math.Float64bits(grc) != math.Float64bits(wrc) {
								t.Fatalf("%s seed %d round %d pair %d: reduced cost %v, reference %v", v.name, seed, round, i, grc, wrc)
							}
							continue
						}
						if !reflect.DeepEqual(gn, wn) || !reflect.DeepEqual(ge, we) {
							t.Fatalf("%s seed %d round %d pair %d dual %v: path %v edges %v, reference %v %v",
								v.name, seed, round, i, dualI, gn, ge, wn, we)
						}
					}
				}
			}
		}
		t.Logf("%s: %d calls priced a path, %d none", v.name, found, empty)
		if found == 0 || empty == 0 {
			t.Errorf("%s: %d calls priced a path and %d none; the duals exercise only one outcome", v.name, found, empty)
		}
	}
}
