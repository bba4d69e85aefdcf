package experiment

import (
	"math"
	"strings"
	"testing"
	"time"

	"see/internal/qnet"
	"see/internal/sched"
)

// smallParams keeps tests fast while exercising the full pipeline.
func smallParams() Params {
	p := DefaultParams()
	p.Nodes = 40
	p.SDPairs = 4
	p.Trials = 3
	return p
}

func TestRunPointShape(t *testing.T) {
	res, err := RunPoint(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(Algorithms) {
		t.Fatalf("got %d algorithms", len(res))
	}
	for _, alg := range Algorithms {
		pr := res[alg]
		if pr.Throughput.N != 3 {
			t.Fatalf("%v: N = %d, want 3", alg, pr.Throughput.N)
		}
		if pr.Throughput.Mean < 0 {
			t.Fatalf("%v: negative mean", alg)
		}
		if pr.Jain < 0 || pr.Jain > 1+1e-9 {
			t.Fatalf("%v: Jain = %v", alg, pr.Jain)
		}
	}
}

func TestRunPointDeterministic(t *testing.T) {
	a, err := RunPoint(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPoint(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms {
		if math.Abs(a[alg].Throughput.Mean-b[alg].Throughput.Mean) > 1e-12 {
			t.Fatalf("%v: non-deterministic mean", alg)
		}
	}
}

func TestRunPointRejectsZeroTrials(t *testing.T) {
	p := smallParams()
	p.Trials = 0
	if _, err := RunPoint(p); err == nil {
		t.Fatal("zero trials accepted")
	}
}

func TestSweepRunnerAndTable(t *testing.T) {
	base := smallParams()
	sw, err := runSweep("test-sweep", "x", base, []float64{2, 3},
		func(p *Params, x float64) { p.Channels = int(x) })
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 2 || sw.Points[0].X != 2 || sw.Points[1].X != 3 {
		t.Fatalf("sweep points wrong: %+v", sw.Points)
	}
	table := sw.Table()
	if !strings.Contains(table, "test-sweep") || !strings.Contains(table, "SEE\tREPS\tE2E") {
		t.Fatalf("table header missing:\n%s", table)
	}
	if len(strings.Split(strings.TrimSpace(table), "\n")) != 4 {
		t.Fatalf("table should have 2 header + 2 data rows:\n%s", table)
	}
}

func TestMotivationValues(t *testing.T) {
	r := Motivation()
	if math.Abs(r.Conventional-0.729) > 1e-9 {
		t.Fatalf("conventional = %v, want 0.729", r.Conventional)
	}
	if math.Abs(r.SEE-1.4885) > 1e-9 {
		t.Fatalf("SEE = %v, want 1.4885", r.SEE)
	}
	if r.SEE/r.Conventional < 2 {
		t.Fatal("the paper's 2x claim must hold on the fixture")
	}
}

func TestAlgorithmString(t *testing.T) {
	if SEE.String() != "SEE" || REPS.String() != "REPS" || E2E.String() != "E2E" {
		t.Fatal("algorithm names wrong")
	}
	if Algorithm(42).String() == "" {
		t.Fatal("unknown algorithm must stringify")
	}
}

// Integration: on a modest instance, the paper's headline ordering holds
// (SEE >= both baselines) when averaged over a few trials.
func TestOrderingHoldsOnAverage(t *testing.T) {
	p := DefaultParams()
	p.Nodes = 60
	p.SDPairs = 8
	p.Trials = 6
	res, err := RunPoint(p)
	if err != nil {
		t.Fatal(err)
	}
	seeMean := res[SEE].Throughput.Mean
	if seeMean < res[REPS].Throughput.Mean*0.9 {
		t.Fatalf("SEE (%v) clearly below REPS (%v)", seeMean, res[REPS].Throughput.Mean)
	}
	if seeMean < res[E2E].Throughput.Mean*0.9 {
		t.Fatalf("SEE (%v) clearly below E2E (%v)", seeMean, res[E2E].Throughput.Mean)
	}
}

// Figure runners accept a tiny base without error; full-scale runs are the
// benchmarks' job.
func TestFigureRunnersSmoke(t *testing.T) {
	base := smallParams()
	base.Trials = 1
	type runner struct {
		name string
		run  func(Params) (*Sweep, error)
	}
	for _, r := range []runner{
		{"fig3", Fig3LinkCapacity},
		{"fig5", Fig5SwapProb},
	} {
		sw, err := r.run(base)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if len(sw.Points) < 2 {
			t.Fatalf("%s: too few points", r.name)
		}
	}
}

// A tracer shared across the harness's trial workers must survive the race
// detector and see every algorithm's slots, without perturbing results.
func TestRunPointSharedTracer(t *testing.T) {
	p := smallParams()
	p.Trials = 6
	p.Workers = 4
	bare, err := RunPoint(p)
	if err != nil {
		t.Fatal(err)
	}
	tr := sched.NewCountingTracer()
	p.Tracer = tr
	traced, err := RunPoint(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms {
		if bare[alg].Throughput.Mean != traced[alg].Throughput.Mean {
			t.Fatalf("%v: tracer changed results: %v vs %v",
				alg, bare[alg].Throughput.Mean, traced[alg].Throughput.Mean)
		}
	}
	c := tr.Counts()
	if want := p.Trials * len(Algorithms); c.Slots != want {
		t.Fatalf("Slots = %d, want %d", c.Slots, want)
	}
	if c.AttemptsResolved == 0 || c.AttemptsReserved != c.AttemptsResolved {
		t.Fatalf("attempt events inconsistent: %+v", c)
	}
}

// Parallel trial execution must be byte-identical to a serial run.
func TestRunPointParallelMatchesSerial(t *testing.T) {
	p := smallParams()
	p.Trials = 6
	p.Workers = 1
	serial, err := RunPoint(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Workers = 4
	parallel, err := RunPoint(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms {
		if serial[alg].Throughput.Mean != parallel[alg].Throughput.Mean ||
			serial[alg].Jain != parallel[alg].Jain {
			t.Fatalf("%v: serial %+v != parallel %+v", alg, serial[alg], parallel[alg])
		}
	}
}

// TestRunPointDeterministicAcrossWorkerCounts pins the end-to-end
// determinism contract: Params.Workers now also bounds the goroutines of
// every engine's LP pricing rounds, and results must stay byte-identical
// at any count. Every summary field and the per-pair CDF are compared with
// ==; run under -race this also exercises the pricing fan-out for data
// races.
func TestRunPointDeterministicAcrossWorkerCounts(t *testing.T) {
	p := smallParams()
	p.Trials = 4
	p.Workers = 1
	base, err := RunPoint(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		p.Workers = workers
		got, err := RunPoint(p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, alg := range Algorithms {
			b, g := base[alg], got[alg]
			if g.Throughput != b.Throughput {
				t.Fatalf("%v workers=%d: throughput %+v != %+v", alg, workers, g.Throughput, b.Throughput)
			}
			if g.Jain != b.Jain {
				t.Fatalf("%v workers=%d: jain %v != %v", alg, workers, g.Jain, b.Jain)
			}
			if len(g.PerPairCDF.Xs) != len(b.PerPairCDF.Xs) {
				t.Fatalf("%v workers=%d: CDF size mismatch", alg, workers)
			}
			for i := range b.PerPairCDF.Xs {
				if g.PerPairCDF.Xs[i] != b.PerPairCDF.Xs[i] || g.PerPairCDF.Ps[i] != b.PerPairCDF.Ps[i] {
					t.Fatalf("%v workers=%d: CDF point %d differs", alg, workers, i)
				}
			}
		}
	}
}

// TestParamsValidate covers the fail-fast configuration guard RunPoint
// (and through it every figure sweep) applies.
func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"zero trials", func(p *Params) { p.Trials = 0 }},
		{"negative trials", func(p *Params) { p.Trials = -3 }},
		{"negative slots", func(p *Params) { p.Slots = -1 }},
		{"negative workers", func(p *Params) { p.Workers = -2 }},
		{"zero nodes", func(p *Params) { p.Nodes = 0 }},
		{"negative pairs", func(p *Params) { p.SDPairs = -1 }},
		{"zero channels", func(p *Params) { p.Channels = 0 }},
		{"zero memory", func(p *Params) { p.Memory = 0 }},
		{"swap above one", func(p *Params) { p.SwapProb = 1.5 }},
		{"negative swap", func(p *Params) { p.SwapProb = -0.1 }},
		{"negative alpha", func(p *Params) { p.Alpha = -1e-4 }},
		{"negative delta", func(p *Params) { p.Delta = -0.05 }},
		{"negative kpaths", func(p *Params) { p.KPaths = -1 }},
		{"negative hops", func(p *Params) { p.MaxSegmentHops = -1 }},
		{"negative budget", func(p *Params) { p.SlotBudget = -time.Second }},
		{"negative carry window", func(p *Params) { p.CarrySlots = -1 }},
		{"unknown algorithm", func(p *Params) { p.Algorithms = []Algorithm{Algorithm(99)} }},
	}
	for _, tc := range cases {
		p := DefaultParams()
		tc.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if _, err := RunPoint(p); err == nil {
			t.Errorf("%s: RunPoint accepted", tc.name)
		}
	}
	// Registered repo-grown baselines pass.
	p := DefaultParams()
	p.Algorithms = []Algorithm{sched.Greedy, sched.Contend}
	if err := p.Validate(); err != nil {
		t.Errorf("registered baselines rejected: %v", err)
	}
}

// TestCarryRetentionReachesTrials checks that the carry bank's Werner
// aging reaches every engine of a multi-slot carry run: with a fidelity
// floor, aged carried segments fail the floor where fresh ones pass, so
// the retention knob must move the sweep's throughput.
func TestCarryRetentionReachesTrials(t *testing.T) {
	p := DefaultParams()
	p.Nodes, p.SDPairs, p.Trials, p.Slots, p.Workers = 40, 6, 3, 6, 1
	p.CarrySlots = 3
	p.FidelityFloors = &qnet.FloorSpec{Default: 0.8}
	fresh, err := RunPoint(p)
	if err != nil {
		t.Fatal(err)
	}
	p.CarryWernerRetention = 0.5
	aged, err := RunPoint(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{SEE, REPS} {
		if f, a := fresh[alg].Throughput.Mean, aged[alg].Throughput.Mean; a >= f {
			t.Errorf("%v: aging carried segments did not cost throughput under a floor: %v fresh, %v aged", alg, f, a)
		}
	}
}
