package see_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§IV). Each BenchmarkFig* runs the corresponding parameter
// sweep at a reduced trial count (benchTrials; the paper uses 100 — use
// cmd/seefig -trials 100 for paper-scale numbers) and logs the same
// rows/series the paper plots. Custom metrics report the headline
// throughputs so `go test -bench` output is self-describing:
//
//	SEE/slot, REPS/slot, E2E/slot — mean established connections per slot
//	                                at the sweep's default point.
//
// Micro-benchmarks at the bottom cover the expensive substrates (LP solve,
// column generation, Yen) and the ablations called out in DESIGN.md.

import (
	"fmt"
	"runtime"
	"testing"

	"see"
	"see/internal/core"
	"see/internal/experiment"
	"see/internal/flow"
	"see/internal/graph"
	"see/internal/lp"
	"see/internal/reps"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

// benchTrials trades benchmark wall-clock against noise; shapes are stable
// from ~3 trials, paper-scale error bars need 100.
const benchTrials = 3

func benchParams() experiment.Params {
	p := experiment.DefaultParams()
	p.Trials = benchTrials
	return p
}

// reportSweep logs the figure's series and reports each algorithm's mean
// throughput at the given x as a custom metric.
func reportSweep(b *testing.B, sw *experiment.Sweep, defaultX float64) {
	b.Helper()
	b.Log("\n" + sw.Table())
	for _, pt := range sw.Points {
		if pt.X != defaultX {
			continue
		}
		b.ReportMetric(pt.Results[experiment.SEE].Throughput.Mean, "SEE/slot")
		b.ReportMetric(pt.Results[experiment.REPS].Throughput.Mean, "REPS/slot")
		b.ReportMetric(pt.Results[experiment.E2E].Throughput.Mean, "E2E/slot")
	}
}

// BenchmarkMotivation regenerates the Fig. 2 table: expected connections of
// the conventional and segmented solutions on the 6-node fixture.
func BenchmarkMotivation(b *testing.B) {
	var r experiment.MotivationResult
	for i := 0; i < b.N; i++ {
		r = experiment.Motivation()
	}
	b.Logf("\nFig. 2: conventional=%.3f SEE=%.3f (%.2fx)", r.Conventional, r.SEE, r.SEE/r.Conventional)
	b.ReportMetric(r.Conventional, "conv")
	b.ReportMetric(r.SEE, "SEE")
}

// BenchmarkFig3LinkCapacity regenerates Fig. 3(a): throughput vs channels
// per link, 2–7.
func BenchmarkFig3LinkCapacity(b *testing.B) {
	var sw *experiment.Sweep
	var err error
	for i := 0; i < b.N; i++ {
		if sw, err = experiment.Fig3LinkCapacity(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
	reportSweep(b, sw, 3)
}

// BenchmarkFig4Alpha regenerates Fig. 4(a): throughput vs attenuation
// parameter α ∈ {1..5}×1e-4.
func BenchmarkFig4Alpha(b *testing.B) {
	var sw *experiment.Sweep
	var err error
	for i := 0; i < b.N; i++ {
		if sw, err = experiment.Fig4Alpha(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
	reportSweep(b, sw, 2)
}

// BenchmarkFig5SwapProb regenerates Fig. 5(a): throughput vs swapping
// success probability 0.5–1.0 (including the REPS/E2E crossover).
func BenchmarkFig5SwapProb(b *testing.B) {
	var sw *experiment.Sweep
	var err error
	for i := 0; i < b.N; i++ {
		if sw, err = experiment.Fig5SwapProb(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
	reportSweep(b, sw, 0.9)
}

// BenchmarkFig6Nodes regenerates Fig. 6(a): throughput vs network scale
// 100–500 nodes.
func BenchmarkFig6Nodes(b *testing.B) {
	var sw *experiment.Sweep
	var err error
	for i := 0; i < b.N; i++ {
		if sw, err = experiment.Fig6Nodes(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
	reportSweep(b, sw, 200)
}

// BenchmarkFig7SDPairs regenerates Fig. 7(a): throughput vs workload,
// 10–50 SD pairs.
func BenchmarkFig7SDPairs(b *testing.B) {
	var sw *experiment.Sweep
	var err error
	for i := 0; i < b.N; i++ {
		if sw, err = experiment.Fig7SDPairs(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
	reportSweep(b, sw, 20)
}

// --- Ablation benches (design choices called out in DESIGN.md §5) ---

func ablationNetwork(b *testing.B) (*topo.Network, []topo.SDPair) {
	b.Helper()
	cfg := topo.DefaultConfig()
	net, err := topo.Generate(cfg, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	return net, topo.ChooseSDPairs(net, 20, xrand.New(2))
}

func seeMeanThroughput(b *testing.B, net *topo.Network, pairs []topo.SDPair, opts core.Options, slots int) float64 {
	b.Helper()
	eng, err := core.NewEngine(net, pairs, opts)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(3)
	total := 0
	for s := 0; s < slots; s++ {
		res, err := eng.RunSlot(rng)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Established
	}
	return float64(total) / float64(slots)
}

// BenchmarkAblationObjective compares SEE with the swap-survival-weighted
// LP objective (default) against the paper-literal unweighted objective.
func BenchmarkAblationObjective(b *testing.B) {
	net, pairs := ablationNetwork(b)
	var weighted, plain float64
	for i := 0; i < b.N; i++ {
		o := core.DefaultOptions()
		weighted = seeMeanThroughput(b, net, pairs, o, 5)
		o.Flow.SwapWeightedObjective = false
		plain = seeMeanThroughput(b, net, pairs, o, 5)
	}
	b.Logf("\nSEE objective ablation: weighted=%.2f plain=%.2f", weighted, plain)
	b.ReportMetric(weighted, "weighted/slot")
	b.ReportMetric(plain, "plain/slot")
}

// BenchmarkAblationSegmentHops sweeps SEE's segment hop cap: 1 reproduces
// the link-only setting, larger caps admit longer all-optical segments.
func BenchmarkAblationSegmentHops(b *testing.B) {
	net, pairs := ablationNetwork(b)
	caps := []int{1, 2, 4, 10}
	out := make([]float64, len(caps))
	for i := 0; i < b.N; i++ {
		for k, hopCap := range caps {
			o := core.DefaultOptions()
			o.Segment.MaxSegmentHops = hopCap
			out[k] = seeMeanThroughput(b, net, pairs, o, 5)
		}
	}
	for k, hopCap := range caps {
		b.Logf("MaxSegmentHops=%2d: %.2f connections/slot", hopCap, out[k])
	}
	b.ReportMetric(out[0], "hops1/slot")
	b.ReportMetric(out[len(out)-1], "hops10/slot")
}

// BenchmarkAblationKPaths sweeps the Yen candidate budget.
func BenchmarkAblationKPaths(b *testing.B) {
	net, pairs := ablationNetwork(b)
	ks := []int{1, 3, 5, 8}
	out := make([]float64, len(ks))
	for i := 0; i < b.N; i++ {
		for j, k := range ks {
			o := core.DefaultOptions()
			o.Segment.KPaths = k
			out[j] = seeMeanThroughput(b, net, pairs, o, 5)
		}
	}
	for j, k := range ks {
		b.Logf("KPaths=%d: %.2f connections/slot", k, out[j])
	}
	b.ReportMetric(out[0], "k1/slot")
	b.ReportMetric(out[len(out)-1], "k8/slot")
}

// BenchmarkAblationREPSRounding sweeps REPS's progressive-rounding LP
// budget (the schedule the SEE paper criticizes as slow).
func BenchmarkAblationREPSRounding(b *testing.B) {
	net, pairs := ablationNetwork(b)
	budgets := []int{1, 3, 6, 12}
	out := make([]float64, len(budgets))
	for i := 0; i < b.N; i++ {
		for j, budget := range budgets {
			eng, err := reps.NewEngine(net, pairs, reps.Options{RoundingSolves: budget})
			if err != nil {
				b.Fatal(err)
			}
			rng := xrand.New(3)
			total := 0
			const slots = 5
			for s := 0; s < slots; s++ {
				res, err := eng.RunSlot(rng)
				if err != nil {
					b.Fatal(err)
				}
				total += res.Established
			}
			out[j] = float64(total) / slots
		}
	}
	for j, budget := range budgets {
		b.Logf("RoundingSolves=%2d: %.2f connections/slot", budget, out[j])
	}
}

// --- Substrate micro-benchmarks ---

// BenchmarkLPDenseSolve measures the two-phase simplex on a mid-size model.
func BenchmarkLPDenseSolve(b *testing.B) {
	rng := xrand.New(5)
	const n, m = 60, 40
	for i := 0; i < b.N; i++ {
		p := lp.NewDense(n)
		for j := 0; j < n; j++ {
			p.SetObjective(j, rng.Float64())
		}
		for r := 0; r < m; r++ {
			es := make([]lp.Entry, 0, n/2)
			for j := r % 2; j < n; j += 2 {
				es = append(es, lp.Entry{Index: j, Value: 0.1 + rng.Float64()})
			}
			p.AddConstraint(es, lp.LE, 5+rng.Float64()*5)
		}
		sol, err := p.Solve()
		if err != nil || sol.Status != lp.StatusOptimal {
			b.Fatalf("solve failed: %v %v", sol.Status, err)
		}
	}
}

// BenchmarkColumnGeneration measures one full SEE LP solve at paper scale.
func BenchmarkColumnGeneration(b *testing.B) {
	net, pairs := ablationNetwork(b)
	set, err := segment.Build(net, pairs, core.DefaultOptions().Segment)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := flow.Solve(set, flow.Options{SwapWeightedObjective: true})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Objective <= 0 {
			b.Fatal("degenerate LP")
		}
	}
}

// BenchmarkColumnGenerationParallel runs the same solve at several pricing
// worker counts. The results are byte-identical at every count (see
// internal/par); the sub-benchmarks expose how much of the solve the
// parallel pricing rounds can hide on multicore hosts. On a single-core
// host all counts degenerate to the serial path.
func BenchmarkColumnGenerationParallel(b *testing.B) {
	net, pairs := ablationNetwork(b)
	set, err := segment.Build(net, pairs, core.DefaultOptions().Segment)
	if err != nil {
		b.Fatal(err)
	}
	counts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	seen := make(map[int]bool, len(counts))
	for _, w := range counts {
		if seen[w] {
			continue
		}
		seen[w] = true
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sol, err := flow.Solve(set, flow.Options{SwapWeightedObjective: true, Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if sol.Objective <= 0 {
					b.Fatal("degenerate LP")
				}
			}
		})
	}
}

// BenchmarkYenKShortest measures candidate-path enumeration.
func BenchmarkYenKShortest(b *testing.B) {
	net, pairs := ablationNetwork(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if got := graph.YenKShortest(net.G, p.S, p.D, 5, graph.DijkstraOptions{}); len(got) == 0 {
			b.Fatal("no paths")
		}
	}
}

// BenchmarkSlotSEE measures one SEE slot (planning cached, rounding +
// physical phase + establishment live).
func BenchmarkSlotSEE(b *testing.B) {
	net, pairs := ablationNetwork(b)
	eng, err := core.NewEngine(net, pairs, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunSlot(rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSlotREPS measures one REPS slot.
func BenchmarkSlotREPS(b *testing.B) {
	net, pairs := ablationNetwork(b)
	eng, err := reps.NewEngine(net, pairs, reps.Options{})
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunSlot(rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerConstruction measures end-to-end engine setup
// (Yen + candidate enumeration + LP) through the public API.
func BenchmarkSchedulerConstruction(b *testing.B) {
	cfg := see.DefaultNetworkConfig()
	cfg.Nodes = 100
	net, pairs, err := see.GenerateNetwork(cfg, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := see.NewScheduler(see.SEE, net, pairs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCarryWorkload drives a 20-slot qubit workload through a fresh SEE
// scheduler each iteration, with or without the cross-slot state bank
// (DESIGN.md §6), and reports delivered qubits per slot.
func benchCarryWorkload(b *testing.B, carry bool) {
	b.Helper()
	net, pairs, err := see.GenerateNetwork(see.NetworkConfig{Nodes: 50}, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	const slots = 20
	var delivered int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := &see.SchedulerOptions{}
		if carry {
			opts.CarrySlots = 2
		}
		sc, err := see.NewScheduler(see.SEE, net, pairs, opts)
		if err != nil {
			b.Fatal(err)
		}
		res, err := see.RunWorkload(sc, len(pairs), see.WorkloadConfig{
			Slots:           slots,
			ArrivalsPerPair: 1,
			QueueCap:        20,
			Seed:            7,
		})
		if err != nil {
			b.Fatal(err)
		}
		delivered = res.Delivered
	}
	b.ReportMetric(float64(delivered)/slots, "delivered/slot")
}

// BenchmarkWorkloadCarryOver measures the carry-over path (segments banked
// in node memories across slots).
func BenchmarkWorkloadCarryOver(b *testing.B) { benchCarryWorkload(b, true) }

// BenchmarkWorkloadMemoryless measures the paper's memoryless slot for
// comparison against BenchmarkWorkloadCarryOver.
func BenchmarkWorkloadMemoryless(b *testing.B) { benchCarryWorkload(b, false) }

// benchWarmWorkload drives the PR-9 warm-start workload: each iteration
// rebuilds a SEE scheduler over the same paper-scale instance (200 nodes,
// 20 SD pairs — the restart/rebuild pattern of service mode and the
// resilience harness) and runs benchWarmSlots slots. With a warm cache the
// rebuild replays the memoized segment set and LP solution instead of
// re-deriving them, so the cold/warm ratio is the headline slots/sec claim
// in BENCH_PR9.json. Results are byte-identical either way (the schedtest
// warm≡cold suite pins this); only the time to reach them changes.
const benchWarmSlots = 10

func benchWarmWorkload(b *testing.B, cache *see.WarmCache) {
	b.Helper()
	cfg := see.DefaultNetworkConfig()
	cfg.Nodes = 200
	net, pairs, err := see.GenerateNetwork(cfg, 20, 1)
	if err != nil {
		b.Fatal(err)
	}
	opts := &see.SchedulerOptions{Warm: cache}
	if cache != nil {
		// Prime outside the timed region: the steady state being measured
		// is "every rebuild after the first".
		if _, err := see.NewScheduler(see.SEE, net, pairs, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := see.NewScheduler(see.SEE, net, pairs, opts)
		if err != nil {
			b.Fatal(err)
		}
		rng := xrand.New(4)
		for s := 0; s < benchWarmSlots; s++ {
			if _, err := sc.RunSlot(rng); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.N*benchWarmSlots)/b.Elapsed().Seconds(), "slots/sec")
}

// BenchmarkWorkloadSlotsCold measures the rebuild-and-run workload with the
// warm cache disabled: every iteration pays full segment enumeration and
// column generation — the pre-PR-9 cost of a scheduler restart.
func BenchmarkWorkloadSlotsCold(b *testing.B) { benchWarmWorkload(b, nil) }

// BenchmarkWorkloadSlotsWarm measures the same workload with a shared warm
// cache: rebuilds replay memoized planning artifacts and slots run on the
// reusable scratch arenas.
func BenchmarkWorkloadSlotsWarm(b *testing.B) { benchWarmWorkload(b, see.NewWarmCache()) }
