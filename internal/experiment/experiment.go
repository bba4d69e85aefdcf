// Package experiment is the benchmark harness that regenerates the paper's
// evaluation (Figs. 2–7): parameter sweeps over link capacity, segment
// success probability, swap success probability, network scale and
// workload, with throughput means across trials and per-SD-pair CDFs.
//
// Every trial draws its own topology and SD pairs from the trial seed, runs
// each scheduler on the *same* instance (paired comparison), and records the
// established connections. A trial runs Params.Slots consecutive time slots
// per scheduler (default 1, the paper's setting) and reports per-slot
// throughput; Params.CarrySlots additionally banks unconsumed segments across
// those slots (see internal/state).
package experiment

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"see/internal/engines"
	"see/internal/metrics"
	"see/internal/sched"
	"see/internal/topo"
	"see/internal/xrand"
)

// Algorithm selects a scheduler; it is the canonical sched.Algorithm.
type Algorithm = sched.Algorithm

// The three schemes compared in the paper.
const (
	SEE  = sched.SEE
	REPS = sched.REPS
	E2E  = sched.E2E
)

// Algorithms lists all schemes in display order.
var Algorithms = sched.Algorithms

// Params describes one simulation configuration (defaults follow §IV-A).
type Params struct {
	Nodes    int
	SDPairs  int
	Channels int
	Memory   int
	SwapProb float64
	Alpha    float64
	Delta    float64

	// Trials per data point (paper: 100).
	Trials int
	// BaseSeed drives all randomness; trial t uses xrand.ForTrial.
	BaseSeed int64
	// Slots is the number of consecutive time slots each trial runs per
	// algorithm (default 1, the paper's single-slot evaluation). The
	// reported throughput is established connections per slot, so
	// single-slot and multi-slot points are directly comparable.
	Slots int
	// Algorithms selects the schemes each trial runs and compares. nil
	// means the paper's trio (SEE, REPS, E2E); extend it with sched.Greedy
	// or sched.Contend to sweep the repo-grown baselines on the same
	// instances.
	Algorithms []Algorithm

	// Config builds every engine of every trial through engines.New, so
	// each engine gets its own fault injector (Faults) and its own
	// carry-over bank (CarrySlots). Workers also bounds the goroutines
	// running trials concurrently; trials are seeded independently and
	// the pricing parallelism is deterministic, so the results are
	// byte-identical to a serial run at any worker count. Trials run
	// concurrently, so a Tracer must be safe for concurrent use
	// (sched.CountingTracer is). Chaos must stay nil: an injector holds
	// per-slot state and cannot be shared across engines.
	engines.Config
}

// DefaultParams returns the paper's default setting.
func DefaultParams() Params {
	return Params{
		Nodes:    200,
		SDPairs:  20,
		Channels: 3,
		Memory:   10,
		SwapProb: 0.9,
		Alpha:    2e-4,
		Delta:    0.05,
		Trials:   100,
		BaseSeed: 20220101,
		Config:   engines.Config{KPaths: 5, MaxSegmentHops: 10},
	}
}

// Validate checks the parameter set before any trial spends work. It is
// called by RunPoint (and therefore by every figure sweep), so a typo'd
// configuration — a negative slot count, an unregistered algorithm — fails
// fast with a named field instead of panicking mid-sweep or silently
// producing a degenerate run.
func (p Params) Validate() error {
	switch {
	case p.Trials <= 0:
		return fmt.Errorf("experiment: Trials must be positive, got %d", p.Trials)
	case p.Slots < 0:
		return fmt.Errorf("experiment: negative Slots %d", p.Slots)
	case p.Nodes <= 0:
		return fmt.Errorf("experiment: Nodes must be positive, got %d", p.Nodes)
	case p.SDPairs < 0:
		return fmt.Errorf("experiment: negative SDPairs %d", p.SDPairs)
	case p.Channels <= 0:
		return fmt.Errorf("experiment: Channels must be positive, got %d", p.Channels)
	case p.Memory <= 0:
		return fmt.Errorf("experiment: Memory must be positive, got %d", p.Memory)
	case p.SwapProb < 0 || p.SwapProb > 1:
		return fmt.Errorf("experiment: SwapProb %v outside [0,1]", p.SwapProb)
	case p.Alpha < 0:
		return fmt.Errorf("experiment: negative Alpha %v", p.Alpha)
	case p.Delta < 0:
		return fmt.Errorf("experiment: negative Delta %v", p.Delta)
	case p.Chaos != nil:
		return errors.New("experiment: Chaos set (set Faults: every engine needs its own injector)")
	}
	for _, alg := range p.Algorithms {
		if !engines.Registered(alg) {
			return fmt.Errorf("experiment: unknown algorithm %v", alg)
		}
	}
	return p.Config.Validate()
}

// algorithms returns the schemes this run compares (the paper trio when
// Params.Algorithms is nil).
func (p Params) algorithms() []Algorithm {
	if len(p.Algorithms) > 0 {
		return p.Algorithms
	}
	return Algorithms
}

func (p Params) topoConfig() topo.Config {
	cfg := topo.DefaultConfig()
	cfg.Nodes = p.Nodes
	cfg.Channels = p.Channels
	cfg.Memory = p.Memory
	cfg.SwapProb = p.SwapProb
	cfg.Alpha = p.Alpha
	cfg.Delta = p.Delta
	return cfg
}

// PointResult aggregates one (configuration, algorithm) data point.
type PointResult struct {
	// Throughput summarizes established connections per slot over trials
	// (the y-axis of every (a) subplot).
	Throughput metrics.Summary
	// PerPairCDF is the per-SD-pair throughput distribution of the first
	// trial, as in the paper's (b)/(c) subplots.
	PerPairCDF metrics.CDF
	// Jain is the mean Jain fairness index over trials.
	Jain float64
}

// trialOutcome is one trial's result for every algorithm.
type trialOutcome struct {
	established map[Algorithm]float64
	perPair     map[Algorithm][]float64
	err         error
}

// RunPoint simulates all algorithms on the same instances and returns one
// PointResult per algorithm. Trials run on a bounded worker pool; every
// trial derives all of its randomness from its own seed, so the output is
// byte-identical to a serial run.
func RunPoint(p Params) (map[Algorithm]PointResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > p.Trials {
		workers = p.Trials
	}

	outcomes := make([]trialOutcome, p.Trials)
	var wg sync.WaitGroup
	trialCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for trial := range trialCh {
				outcomes[trial] = p.runTrial(trial)
			}
		}()
	}
	for trial := 0; trial < p.Trials; trial++ {
		trialCh <- trial
	}
	close(trialCh)
	wg.Wait()

	algs := p.algorithms()
	samples := make(map[Algorithm][]float64, len(algs))
	jains := make(map[Algorithm][]float64, len(algs))
	firstTrialPerPair := make(map[Algorithm][]float64, len(algs))
	for trial, oc := range outcomes {
		if oc.err != nil {
			return nil, fmt.Errorf("experiment: trial %d: %w", trial, oc.err)
		}
		for _, alg := range algs {
			samples[alg] = append(samples[alg], oc.established[alg])
			jains[alg] = append(jains[alg], metrics.JainIndex(oc.perPair[alg]))
			if trial == 0 {
				firstTrialPerPair[alg] = oc.perPair[alg]
			}
		}
	}

	out := make(map[Algorithm]PointResult, len(algs))
	for _, alg := range algs {
		out[alg] = PointResult{
			Throughput: metrics.Summarize(samples[alg]),
			PerPairCDF: metrics.NewCDF(firstTrialPerPair[alg]),
			Jain:       metrics.Summarize(jains[alg]).Mean,
		}
	}
	return out, nil
}

// runTrial draws one instance and runs every algorithm's slot on it.
func (p Params) runTrial(trial int) trialOutcome {
	algs := p.algorithms()
	oc := trialOutcome{
		established: make(map[Algorithm]float64, len(algs)),
		perPair:     make(map[Algorithm][]float64, len(algs)),
	}
	rng := xrand.ForTrial(p.BaseSeed, trial)
	topoRng := xrand.Split(rng)
	pairRng := xrand.Split(rng)
	net, err := topo.Generate(p.topoConfig(), topoRng)
	if err != nil {
		oc.err = err
		return oc
	}
	pairs := topo.ChooseSDPairs(net, p.SDPairs, pairRng)
	for _, alg := range algs {
		slotRng := xrand.Split(rng)
		eng, err := engines.New(alg, net, pairs, p.Config)
		if err != nil {
			oc.err = fmt.Errorf("%v: %w", alg, err)
			return oc
		}
		slots := p.Slots
		if slots <= 0 {
			slots = 1
		}
		total := 0
		perPairTotals := make([]int, len(pairs))
		for s := 0; s < slots; s++ {
			res, err := eng.RunSlot(slotRng)
			if err != nil {
				oc.err = fmt.Errorf("%v: %w", alg, err)
				return oc
			}
			total += res.Established
			for i, c := range res.PerPair {
				perPairTotals[i] += c
			}
		}
		// Per-slot averages; with the default Slots=1 the division is by
		// 1.0, so single-slot points stay bit-identical to the pre-Slots
		// harness.
		oc.established[alg] = float64(total) / float64(slots)
		pp := make([]float64, len(perPairTotals))
		for i, c := range perPairTotals {
			pp[i] = float64(c) / float64(slots)
		}
		oc.perPair[alg] = pp
	}
	return oc
}
