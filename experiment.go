package see

import (
	"fmt"

	"see/internal/experiment"
)

// ExperimentParams configures one evaluation data point (paper §IV-A
// defaults via DefaultExperimentParams).
type ExperimentParams struct {
	Nodes    int
	SDPairs  int
	Channels int
	Memory   int
	// SwapProb, Alpha and Delta follow the NetworkConfig convention: zero
	// means "paper default", ExplicitZero means an actual zero.
	SwapProb float64
	Alpha    float64
	Delta    float64
	// Trials per data point (paper: 100).
	Trials int
	// Seed drives everything; same seed, same numbers.
	Seed int64
	// Slots runs each trial for this many consecutive time slots per
	// algorithm (default 1, the paper's single-slot evaluation); reported
	// throughput is always per slot.
	Slots int
	// SchedulerOptions configures every scheduler of every trial. Trials
	// run concurrently, so Workers also bounds the trial pool (results are
	// identical at any value) and a Tracer must be safe for concurrent use
	// (CountingTracer is). Each engine gets its own injector built from
	// Faults. KPaths and MaxSegmentHops left zero select the harness
	// defaults 5 and 10.
	SchedulerOptions
}

// DefaultExperimentParams returns the paper's defaults with 100 trials.
func DefaultExperimentParams() ExperimentParams {
	p := experiment.DefaultParams()
	return ExperimentParams{
		Nodes:    p.Nodes,
		SDPairs:  p.SDPairs,
		Channels: p.Channels,
		Memory:   p.Memory,
		SwapProb: p.SwapProb,
		Alpha:    p.Alpha,
		Delta:    p.Delta,
		Trials:   p.Trials,
		Seed:     p.BaseSeed,
	}
}

func (p ExperimentParams) toInternal() experiment.Params {
	in := experiment.DefaultParams()
	if p.Nodes > 0 {
		in.Nodes = p.Nodes
	}
	if p.SDPairs > 0 {
		in.SDPairs = p.SDPairs
	}
	if p.Channels > 0 {
		in.Channels = p.Channels
	}
	if p.Memory > 0 {
		in.Memory = p.Memory
	}
	in.SwapProb = overrideFloat(p.SwapProb, in.SwapProb)
	in.Alpha = overrideFloat(p.Alpha, in.Alpha)
	in.Delta = overrideFloat(p.Delta, in.Delta)
	if p.Trials > 0 {
		in.Trials = p.Trials
	}
	if p.Seed != 0 {
		in.BaseSeed = p.Seed
	}
	in.Slots = p.Slots
	cfg := p.SchedulerOptions
	if cfg.KPaths == 0 {
		cfg.KPaths = in.KPaths
	}
	if cfg.MaxSegmentHops == 0 {
		cfg.MaxSegmentHops = in.MaxSegmentHops
	}
	in.Config = cfg
	return in
}

// PointResult is one (configuration, algorithm) evaluation outcome.
type PointResult struct {
	// MeanThroughput is the average established connections per slot.
	MeanThroughput float64
	// CI95 is the half-width of the 95% confidence interval.
	CI95 float64
	// Jain is the mean Jain fairness index across SD pairs.
	Jain float64
	// CDFXs/CDFPs trace the per-SD-pair throughput CDF of the first trial
	// (the paper's (b)/(c) subplots).
	CDFXs, CDFPs []float64
}

// RunExperiment evaluates the paper's three algorithms (SEE, REPS, E2E) on
// identical instances.
func RunExperiment(p ExperimentParams) (map[Algorithm]PointResult, error) {
	res, err := experiment.RunPoint(p.toInternal())
	if err != nil {
		return nil, err
	}
	out := make(map[Algorithm]PointResult, len(res))
	for alg, pr := range res {
		out[alg] = PointResult{
			MeanThroughput: pr.Throughput.Mean,
			CI95:           pr.Throughput.CI95,
			Jain:           pr.Jain,
			CDFXs:          pr.PerPairCDF.Xs,
			CDFPs:          pr.PerPairCDF.Ps,
		}
	}
	return out, nil
}

// MotivationExample evaluates the two Fig. 2 plans analytically and returns
// (conventional, SEE) expected connections — 0.729 and 1.489 in the paper.
func MotivationExample() (conventional, seeValue float64) {
	r := experiment.Motivation()
	return r.Conventional, r.SEE
}

// SweepPoint is one x-value of a figure sweep.
type SweepPoint struct {
	X       float64
	Results map[Algorithm]PointResult
}

// FigureData is a regenerated evaluation figure.
type FigureData struct {
	// Name identifies the figure (e.g. "fig5-swap-prob").
	Name string
	// XLabel names the sweep variable.
	XLabel string
	Points []SweepPoint
}

// Figure regenerates the data behind one of the paper's evaluation figures
// (3: link capacity, 4: α, 5: swap probability, 6: network scale, 7: SD
// pairs). The base parameters configure everything except the swept
// variable.
func Figure(id int, base ExperimentParams) (*FigureData, error) {
	in := base.toInternal()
	var sw *experiment.Sweep
	var err error
	switch id {
	case 3:
		sw, err = experiment.Fig3LinkCapacity(in)
	case 4:
		sw, err = experiment.Fig4Alpha(in)
	case 5:
		sw, err = experiment.Fig5SwapProb(in)
	case 6:
		sw, err = experiment.Fig6Nodes(in)
	case 7:
		sw, err = experiment.Fig7SDPairs(in)
	default:
		return nil, fmt.Errorf("see: no figure %d (want 3..7)", id)
	}
	if err != nil {
		return nil, err
	}
	out := &FigureData{Name: sw.Name, XLabel: sw.XLabel}
	for _, pt := range sw.Points {
		rp := make(map[Algorithm]PointResult, len(pt.Results))
		for alg, pr := range pt.Results {
			rp[alg] = PointResult{
				MeanThroughput: pr.Throughput.Mean,
				CI95:           pr.Throughput.CI95,
				Jain:           pr.Jain,
				CDFXs:          pr.PerPairCDF.Xs,
				CDFPs:          pr.PerPairCDF.Ps,
			}
		}
		out.Points = append(out.Points, SweepPoint{X: pt.X, Results: rp})
	}
	return out, nil
}
