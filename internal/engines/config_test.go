package engines

import (
	"testing"

	"see/internal/contend"
	"see/internal/core"
	"see/internal/greedy"
	"see/internal/sched"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

// TestConfigSegmentKnobsReachEngines checks that the shared Config's
// candidate knobs reach every engine that enumerates segments: no built
// candidate may exceed MaxSegmentHops or fall below MinSegmentProb.
func TestConfigSegmentKnobsReachEngines(t *testing.T) {
	cfg := topo.DefaultConfig()
	cfg.Nodes = 30
	net, err := topo.Generate(cfg, xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	pairs := topo.ChooseSDPairs(net, 4, xrand.New(22))
	knobs := Config{KPaths: 2, MaxSegmentHops: 2, MinSegmentProb: 0.3, Workers: 1}
	for _, alg := range []sched.Algorithm{sched.SEE, sched.SEEAware, sched.Greedy, sched.Contend, sched.QPass, sched.ContendAware} {
		t.Run(alg.String(), func(t *testing.T) {
			eng, err := New(alg, net, pairs, knobs)
			if err != nil {
				t.Fatal(err)
			}
			var set *segment.Set
			switch e := eng.(type) {
			case *core.Engine:
				set = e.Set
			case *greedy.Engine:
				set = e.Set
			case *contend.Engine:
				set = e.Set
			default:
				t.Fatalf("unexpected engine type %T", eng)
			}
			if eng.Algorithm() != alg {
				t.Errorf("Algorithm() = %v, want %v", eng.Algorithm(), alg)
			}
			if set.NumCandidates() == 0 {
				t.Fatal("no candidates built")
			}
			for _, list := range set.ByPair {
				for _, c := range list {
					if c.Hops() > knobs.MaxSegmentHops {
						t.Fatalf("candidate %v spans %d hops > %d", c.Path, c.Hops(), knobs.MaxSegmentHops)
					}
					if c.Prob < knobs.MinSegmentProb {
						t.Fatalf("candidate %v has p=%.3f < %.3f", c.Path, c.Prob, knobs.MinSegmentProb)
					}
				}
			}
		})
	}
}
