package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"heterosgd/internal/core"
	"heterosgd/internal/metrics"
)

// figureAlgorithms lists the five lines of Figures 5 and 6 in legend order.
var figureAlgorithms = []core.Algorithm{
	core.AlgHogbatchCPU,
	core.AlgHogbatchGPU,
	core.AlgCPUGPUHogbatch,
	core.AlgAdaptiveHogbatch,
	core.AlgTensorFlow,
}

// RunSet holds the results of running every figure algorithm on one problem
// under a shared time budget — the raw material for Figures 5, 6 and 8.
type RunSet struct {
	Problem *Problem
	Horizon time.Duration
	BaseLR  float64
	// Results is keyed by algorithm display name.
	Results map[string]*core.Result
	// Order preserves the legend order.
	Order []string
}

// tuneCache memoizes grid results per (dataset, scale, seed) so figures
// sharing a problem don't re-grid.
var (
	tuneMu    sync.Mutex
	tuneCache = map[string]float64{}
)

// TuneLR grids the base learning rate in half-decade steps (the paper grids
// powers of 10, §VII-A) on a short GPU-only run and returns the value with
// the lowest final loss. The same value is then used by every algorithm on
// the same hardware, as the paper requires. Results are cached per
// problem+seed within the process. A cancelled ctx stops the grid early and
// returns the best value found so far (without caching the partial answer).
func TuneLR(ctx context.Context, p *Problem, seed uint64) float64 {
	key := fmt.Sprintf("%s/%s/%d/%d", p.Spec.Name, p.Scale.Name, p.Dataset.N(), seed)
	tuneMu.Lock()
	if lr, ok := tuneCache[key]; ok {
		tuneMu.Unlock()
		return lr
	}
	tuneMu.Unlock()
	horizon := 4 * p.GPUEpochTime()
	best, bestLoss := 0.05, 0.0
	first := true
	for _, lr := range []float64{3, 1, 0.3, 0.1, 0.03, 0.01} {
		if ctx.Err() != nil {
			return best
		}
		cfg := BaseConfig(core.AlgHogbatchGPU, p, seed)
		cfg.BaseLR = lr
		res, err := core.RunSim(ctx, cfg, horizon)
		if err != nil {
			continue
		}
		loss := res.FinalLoss
		if loss != loss { // NaN: diverged
			continue
		}
		if first || loss < bestLoss {
			best, bestLoss = lr, loss
			first = false
		}
	}
	tuneMu.Lock()
	tuneCache[key] = best
	tuneMu.Unlock()
	return best
}

// BaseConfig builds the configuration every experiment and sweep starts
// from for one algorithm on a problem: NewConfig at the seed, evaluated on
// at most 2048 examples.
func BaseConfig(alg core.Algorithm, p *Problem, seed uint64) core.Config {
	cfg := core.NewConfig(alg, p.Net, p.Dataset, p.Scale.Preset)
	cfg.Seed = seed
	cfg.EvalSubset = min(2048, p.Dataset.N())
	return cfg
}

// RunAll executes the five figure algorithms on the problem for the same
// virtual-time budget (the paper's methodology: "we execute each algorithm
// for the same fixed amount of time").
func RunAll(ctx context.Context, p *Problem, seed uint64) (*RunSet, error) {
	return RunAlgorithms(ctx, p, seed, figureAlgorithms)
}

// RunAlgorithms executes an arbitrary algorithm set on the problem under the
// shared budget, preserving the given order in the RunSet legend — the
// injectable core of RunAll, so experiments can compare any subset (or the
// consistency modes) without re-tuning. A cancelled ctx aborts with its
// error — partial RunSets would render misleading figures.
func RunAlgorithms(ctx context.Context, p *Problem, seed uint64, algs []core.Algorithm) (*RunSet, error) {
	horizon := p.Horizon()
	lr := TuneLR(ctx, p, seed)
	rs := &RunSet{
		Problem: p,
		Horizon: horizon,
		BaseLR:  lr,
		Results: make(map[string]*core.Result, len(algs)),
	}
	sampleEvery := horizon / 25
	for _, alg := range algs {
		cfg := BaseConfig(alg, p, seed)
		cfg.BaseLR = lr
		cfg.SampleEvery = sampleEvery
		res, err := core.RunSim(ctx, cfg, horizon)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s on %s: %w", alg, p.Spec.Name, err)
		}
		if res.Interrupted || ctx.Err() != nil {
			return nil, fmt.Errorf("experiments: %s on %s interrupted: %w", alg, p.Spec.Name, ctx.Err())
		}
		rs.Results[alg.String()] = res
		rs.Order = append(rs.Order, alg.String())
	}
	return rs, nil
}

// NormalizedTraces returns the loss traces normalized to the global minimum
// across all algorithms (§VII-A's methodology: "the minimum loss across all
// the algorithms is taken as basis … all loss values are normalized").
func (rs *RunSet) NormalizedTraces() []*metrics.Trace {
	traces := make([]*metrics.Trace, 0, len(rs.Order))
	for _, name := range rs.Order {
		traces = append(traces, cloneTrace(rs.Results[name].Trace))
	}
	base := metrics.GlobalMinLoss(traces)
	return metrics.Normalize(traces, base)
}

func cloneTrace(t *metrics.Trace) *metrics.Trace {
	out := &metrics.Trace{Name: t.Name, Points: make([]metrics.LossPoint, len(t.Points))}
	copy(out.Points, t.Points)
	return out
}

// TimeToTarget returns, per algorithm, the earliest time its normalized
// loss reaches the target (e.g. 1.1 = within 10% of the best minimum).
func (rs *RunSet) TimeToTarget(target float64) map[string]time.Duration {
	traces := rs.NormalizedTraces()
	out := make(map[string]time.Duration, len(traces))
	for _, t := range traces {
		if at, ok := t.TimeToReach(target); ok {
			out[t.Name] = at
		}
	}
	return out
}
