package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"heterosgd/internal/core"
	"heterosgd/internal/telemetry"
)

// TelemetryBenchResult is one telemetry-off vs telemetry-on measurement of
// the sim engine on a fixed-seed problem. OffSec/OnSec are best-of-Trials
// wall-clock times for the identical run; OverheadPct is the relative cost
// of tracing plus metrics: the median over the Trials off/on pairs of
// (on-off)/off, in percent. Spans and Updates
// document how much instrumentation fired during the measured run — an
// overhead number for a run that barely traced anything would be
// meaningless.
type TelemetryBenchResult struct {
	Dataset     string  `json:"dataset"`
	Algorithm   string  `json:"algorithm"`
	HorizonNS   int64   `json:"horizon_ns"`
	Trials      int     `json:"trials"`
	OffSec      float64 `json:"telemetry_off_sec"`
	OnSec       float64 `json:"telemetry_on_sec"`
	OverheadPct float64 `json:"overhead_pct"`
	Spans       int     `json:"spans"`
	Dropped     int64   `json:"spans_dropped"`
	Updates     int64   `json:"updates"`
}

// telemetryBenchConfig builds the measured run: adaptive Hogbatch on
// small-scale covtype, the suite's usual headline configuration.
func telemetryBenchConfig(p *Problem, seed uint64) core.Config {
	cfg := core.NewConfig(core.AlgAdaptiveHogbatch, p.Net, p.Dataset, p.Scale.Preset)
	cfg.BaseLR = 0.05
	cfg.Seed = seed
	cfg.EvalSubset = min(2048, p.Dataset.N())
	return cfg
}

// TelemetryBench measures the wall-clock cost of full telemetry (tracer and
// metrics registry both attached) against the identical untraced run.
// Each trial is a pair of adjacent runs, one per mode, and the overhead is
// the median of the pairs' on/off ratios: a time-varying background load
// (other test packages, a busy CI runner) that swings slowly hits both runs
// of a pair alike, and one pair caught across a swing moves the median no
// further than its neighbour. The off run goes first on even trials and
// second on odd ones, so neither mode always inherits the other's caches.
// The two runs share the seed and the virtual-time horizon, so they
// execute the same schedule — the sim engine guarantees identical updates
// and final loss, which TelemetryBench verifies as a precondition for the
// timing comparison to mean anything.
func TelemetryBench(seed uint64, trials int) (TelemetryBenchResult, string, error) {
	if trials < 1 {
		trials = 1
	}
	p, err := NewProblem("covtype", Small(), seed)
	if err != nil {
		return TelemetryBenchResult{}, "", err
	}
	horizon := p.Horizon()

	runOnce := func(instrument bool) (time.Duration, *core.Result, *telemetry.Tracer, error) {
		cfg := telemetryBenchConfig(p, seed)
		var tracer *telemetry.Tracer
		if instrument {
			tracer = core.NewRunTracer(&cfg, 0)
			cfg.Tracer = tracer
			cfg.Metrics = telemetry.NewRegistry()
		}
		t0 := time.Now()
		r, rerr := core.RunSim(context.Background(), cfg, horizon)
		return time.Since(t0), r, tracer, rerr
	}

	// Indexed by mode: 0 untraced, 1 traced.
	var best [2]time.Duration
	var res [2]*core.Result
	var spans int
	var dropped int64
	ratios := make([]float64, trials)
	for trial := range ratios {
		var dt [2]time.Duration
		for _, on := range [2]int{trial % 2, 1 - trial%2} {
			t, r, tracer, err := runOnce(on == 1)
			if err != nil {
				return TelemetryBenchResult{}, "", err
			}
			dt[on], res[on] = t, r
			if trial == 0 || t < best[on] {
				best[on] = t
			}
			if on == 1 {
				spans, dropped = tracer.Len(), tracer.Dropped()
			}
		}
		ratios[trial] = dt[1].Seconds() / dt[0].Seconds()
	}
	offRes, onRes := res[0], res[1]
	if offRes.TotalUpdates() != onRes.TotalUpdates() || offRes.FinalLoss != onRes.FinalLoss {
		return TelemetryBenchResult{}, "", fmt.Errorf(
			"telemetry perturbed the run: %d updates / loss %v traced vs %d / %v untraced",
			onRes.TotalUpdates(), onRes.FinalLoss, offRes.TotalUpdates(), offRes.FinalLoss)
	}

	row := TelemetryBenchResult{
		Dataset:     "covtype",
		Algorithm:   core.AlgAdaptiveHogbatch.String(),
		HorizonNS:   int64(horizon),
		Trials:      trials,
		OffSec:      best[0].Seconds(),
		OnSec:       best[1].Seconds(),
		OverheadPct: 100 * (median(ratios) - 1),
		Spans:       spans,
		Dropped:     dropped,
		Updates:     onRes.TotalUpdates(),
	}

	var b strings.Builder
	fmt.Fprintf(&b, "telemetry overhead, %s %s, horizon %v, %d interleaved pairs:\n",
		row.Algorithm, row.Dataset, horizon.Round(time.Microsecond), trials)
	fmt.Fprintf(&b, "  best off %8.2fms   best on %8.2fms   median pair overhead %+.2f%%\n",
		1e3*row.OffSec, 1e3*row.OnSec, row.OverheadPct)
	fmt.Fprintf(&b, "  on/off per pair (sorted):")
	for _, r := range ratios {
		fmt.Fprintf(&b, " %.3f", r)
	}
	fmt.Fprintf(&b, "\n  %d spans recorded (%d dropped), %d model updates\n", spans, dropped, row.Updates)
	return row, b.String(), nil
}

// median returns the median of xs, reordering them.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// TelemetryBenchJSON renders the row the way BENCH_telemetry.json stores it.
func TelemetryBenchJSON(row TelemetryBenchResult) ([]byte, error) {
	buf, err := json.MarshalIndent(row, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
