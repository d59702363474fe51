package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"heterosgd/internal/core"
	"heterosgd/internal/elastic"
	"heterosgd/internal/metrics"
)

// ElasticBenchResult is one churn scenario's outcome: the membership plan it
// ran, the churn accounting the membership manager reported, and the
// convergence the run achieved under that churn — the payload archived as
// results/BENCH_elastic.json.
type ElasticBenchResult struct {
	// Scenario names the row ("static", "join", "churn", ...).
	Scenario string `json:"scenario"`
	// Plan is the scripted membership schedule in -elastic syntax (empty
	// for the static baseline and the autoscale row).
	Plan string `json:"plan,omitempty"`
	// Joins/Leaves/Evictions/Rebalances echo the run's elastic report.
	Joins      int `json:"joins"`
	Leaves     int `json:"leaves"`
	Evictions  int `json:"evictions"`
	Rebalances int `json:"rebalances"`
	// PeakWorkers and FinalWorkers bracket the active-set size.
	PeakWorkers  int `json:"peak_workers"`
	FinalWorkers int `json:"final_workers"`
	// FinalLoss/MinLoss/Epochs/Updates summarize convergence under churn.
	FinalLoss float64 `json:"final_loss"`
	MinLoss   float64 `json:"min_loss"`
	Epochs    float64 `json:"epochs"`
	Updates   int64   `json:"updates"`
}

// elasticScenarios builds the churn schedules swept by FigElastic. Triggers
// are completed-dispatch counts, so the same schedule replays exactly on the
// sim engine's virtual clock regardless of host speed. Worker 1 is the GPU
// slot in every algorithm preset, so the leave/evict rows measure losing the
// throughput-dominant device mid-run.
func elasticScenarios(seed uint64) []struct {
	name string
	plan *elastic.Plan
} {
	return []struct {
		name string
		plan *elastic.Plan
	}{
		{"static", nil},
		{"join", elastic.NewPlan(seed, elastic.JoinAt(8))},
		{"leave", elastic.NewPlan(seed, elastic.LeaveAt(1, 8))},
		{"evict", elastic.NewPlan(seed, elastic.EvictAt(1, 8))},
		{"churn", elastic.NewPlan(seed, elastic.JoinAt(6), elastic.LeaveAt(1, 20))},
	}
}

// FigElastic benchmarks convergence under seeded worker churn: the adaptive
// algorithm on the same problem, budget, and tuned LR, once per membership
// scenario — static baseline, a mid-run join, a graceful leave, a forced
// eviction, and join-then-leave churn. Because membership triggers count
// completed dispatches and rebalancing restarts Algorithm 2's counters over
// the new active set, every row is deterministic for a fixed seed; the rows
// are archived as results/BENCH_elastic.json.
func FigElastic(ctx context.Context, p *Problem, seed uint64) ([]ElasticBenchResult, string, error) {
	lr := TuneLR(ctx, p, seed)
	horizon := p.Horizon()
	sampleEvery := horizon / 25

	type row struct {
		bench ElasticBenchResult
		res   *core.Result
	}
	var rows []row
	for _, sc := range elasticScenarios(seed) {
		cfg := BaseConfig(core.AlgAdaptiveHogbatch, p, seed)
		cfg.BaseLR = lr
		cfg.SampleEvery = sampleEvery
		cfg.Elastic = sc.plan
		if sc.plan != nil {
			if err := sc.plan.Validate(len(cfg.Workers)); err != nil {
				return nil, "", fmt.Errorf("experiments: figelastic scenario %q: %w", sc.name, err)
			}
		}
		res, err := core.RunSim(ctx, cfg, horizon)
		if err != nil {
			return nil, "", fmt.Errorf("experiments: figelastic scenario %q on %s: %w", sc.name, p.Spec.Name, err)
		}
		if res.Interrupted || ctx.Err() != nil {
			return nil, "", fmt.Errorf("experiments: figelastic on %s interrupted: %w", p.Spec.Name, ctx.Err())
		}
		b := ElasticBenchResult{
			Scenario:  sc.name,
			Plan:      sc.plan.String(),
			FinalLoss: res.FinalLoss,
			MinLoss:   res.MinLoss,
			Epochs:    res.Epochs,
			Updates:   res.TotalUpdates(),
		}
		if el := res.Elastic; el != nil {
			b.Joins, b.Leaves, b.Evictions = el.Joins, el.Leaves, el.Evictions
			b.Rebalances, b.PeakWorkers, b.FinalWorkers = el.Rebalances, el.Peak, el.Final
		} else {
			b.PeakWorkers, b.FinalWorkers = len(cfg.Workers), len(cfg.Workers)
		}
		rows = append(rows, row{bench: b, res: res})
	}

	traces := make([]*metrics.Trace, 0, len(rows))
	for _, r := range rows {
		tr := cloneTrace(r.res.Trace)
		tr.Name = r.bench.Scenario
		traces = append(traces, tr)
	}
	base := metrics.GlobalMinLoss(traces)
	norm := metrics.Normalize(traces, base)

	var b strings.Builder
	title := fmt.Sprintf("Fig elastic (%s): normalized loss vs time under worker churn — horizon %v, base LR %g (display clipped at %g×)",
		p.Spec.Name, horizon.Round(time.Microsecond), lr, displayCap)
	b.WriteString(metrics.ASCIIChart(clipForDisplay(norm), 72, 18, false, title))
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-8s %-18s %5s %6s %6s %5s %5s %12s %8s %8s\n",
		"scenario", "plan", "joins", "leaves", "evicts", "peak", "final", "final loss", "epochs", "updates")
	for _, r := range rows {
		e := r.bench
		plan := e.Plan
		if plan == "" {
			plan = "-"
		}
		fmt.Fprintf(&b, "%-8s %-18s %5d %6d %6d %5d %5d %12.4g %8.2f %8d\n",
			e.Scenario, plan, e.Joins, e.Leaves, e.Evictions, e.PeakWorkers, e.FinalWorkers,
			e.FinalLoss, e.Epochs, e.Updates)
	}

	out := make([]ElasticBenchResult, len(rows))
	for i, r := range rows {
		out[i] = r.bench
	}
	return out, b.String(), nil
}

// ElasticBenchJSON renders the scenario rows as the BENCH_elastic.json
// payload (indented, trailing newline).
func ElasticBenchJSON(rows []ElasticBenchResult) ([]byte, error) {
	buf, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
