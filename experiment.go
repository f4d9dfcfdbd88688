package see

import (
	"see/internal/engines"
	"see/internal/experiment"
)

// ExperimentParams configures one evaluation data point (paper §IV-A
// defaults via DefaultExperimentParams). The embedded NetworkConfig is
// every trial's topology, resolved like GenerateNetwork's (zero means
// "paper default", ExplicitZero an actual zero). The embedded
// SchedulerOptions configure every engine of every trial; each engine gets
// its own fault injector and bank, and its Workers also bounds the
// goroutines running trials concurrently (results are identical at any
// value). Its Tracer is handed to every algorithm and observes all trials
// concurrently, so it must be safe for concurrent use (CountingTracer is).
// Its Warm is not used: every trial shares a cache of its own.
type ExperimentParams struct {
	NetworkConfig
	// SDPairs drawn per trial (default 20).
	SDPairs int
	// Trials per data point (paper: 100).
	Trials int
	// Seed drives everything; same seed, same numbers.
	Seed int64
	// Slots runs each trial for this many consecutive time slots per
	// algorithm (default 1, the paper's single-slot evaluation); reported
	// throughput is always per slot. CarryOver is only meaningful with
	// Slots > 1.
	Slots int

	SchedulerOptions
}

// DefaultExperimentParams returns the paper's defaults with 100 trials.
func DefaultExperimentParams() ExperimentParams {
	p := experiment.DefaultParams()
	return ExperimentParams{
		NetworkConfig: DefaultNetworkConfig(),
		SDPairs:       p.SDPairs,
		Trials:        p.Trials,
		Seed:          p.BaseSeed,
	}
}

func (p ExperimentParams) toInternal() experiment.Params {
	in := experiment.DefaultParams()
	in.Network = p.NetworkConfig.toTopo()
	if p.SDPairs > 0 {
		in.SDPairs = p.SDPairs
	}
	if p.Trials > 0 {
		in.Trials = p.Trials
	}
	if p.Seed != 0 {
		in.BaseSeed = p.Seed
	}
	in.Slots = p.Slots
	in.Config = p.SchedulerOptions
	in.Config.Tracer, in.Config.Warm = nil, nil
	in.Tracers = make(map[Algorithm]Tracer)
	for _, alg := range engines.List() {
		in.Tracers[alg] = p.Tracer
	}
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

// RunExperiment evaluates all three algorithms on identical instances.
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
