package flow

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

// pricingModel builds a model far enough for pricing: row layout and the
// dual-independent candidate tables.
func pricingModel(set *segment.Set, opts Options) *model {
	m := &model{set: set, opts: opts.withDefaults(set)}
	m.layoutRows()
	m.buildCandidateTables()
	m.price = make([]*priceScratch, 1)
	return m
}

// TestPricingScratchReuse prices every commodity of one instance, several
// times over with different duals and with seeding (dualI = −Inf), on one
// shared priceScratch, alternating between models of different layer
// counts so the tables resize. Each result must equal pricing on a fresh
// scratch: the double-buffered frontiers and the inFrontier marks must
// carry nothing from one call to the next.
func TestPricingScratchReuse(t *testing.T) {
	cfg := topo.DefaultConfig()
	cfg.Nodes = 40
	net, err := topo.Generate(cfg, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	pairs := topo.ChooseSDPairs(net, 8, xrand.New(12))
	set, err := segment.Build(net, pairs, segment.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	models := []*model{
		pricingModel(set, Options{SwapWeightedObjective: true, Workers: 1}),
		pricingModel(set, Options{SwapWeightedObjective: true, Workers: 1, MaxJunctions: 3}),
		pricingModel(set, Options{Workers: 1}),
	}
	shared := &priceScratch{}
	rng := rand.New(rand.NewSource(5))
	found := 0
	for round := 0; round < 6; round++ {
		for _, m := range models {
			duals := make([]float64, m.numRows)
			for r := range duals {
				duals[r] = rng.Float64() * 0.3
			}
			if round == 0 {
				duals = unitDuals(m.numRows)
			}
			if err := m.priceRealizations(nil, duals); err != nil {
				t.Fatal(err)
			}
			for i := range set.Pairs {
				for _, dualI := range []float64{math.Inf(-1), 0, duals[i]} {
					m.price[0] = &priceScratch{}
					want := m.pricePath(0, i, dualI, 1e-7)
					m.price[0] = shared
					got := m.pricePath(0, i, dualI, 1e-7)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d pair %d dualI %v (swap-weighted %v, max junctions %d): shared scratch %+v, fresh %+v",
							round, i, dualI, m.opts.SwapWeightedObjective, m.opts.MaxJunctions, got, want)
					}
					if got.ok {
						found++
					}
					for v, marked := range shared.inFrontier {
						if marked {
							t.Fatalf("round %d pair %d: inFrontier[%d] left set after pricing", round, i, v)
						}
					}
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no commodity ever priced a path; the test compares nothing")
	}
}
