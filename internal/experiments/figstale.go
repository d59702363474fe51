package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"heterosgd/internal/core"
	"heterosgd/internal/metrics"
)

// staleBounds is the swept SSP staleness bound s: 0 is fully synchronous
// lockstep, and each doubling admits more asynchrony until the gate is in
// practice never closed.
var staleBounds = []int{0, 1, 2, 4, 8, 16}

// staleReferences are the non-SSP consistency baselines rendered alongside
// the sweep: unbounded-staleness async (Hogbatch), round-synchronous
// LocalSGD, and delay-compensated async (DC-ASGD).
var staleReferences = []core.Algorithm{
	core.AlgCPUGPUHogbatch,
	core.AlgLocalSGD,
	core.AlgDCASGD,
}

// FigStale renders the convergence-versus-staleness-bound figure: one SSP
// run per bound in staleBounds on the same problem, budget, and tuned LR,
// plus the reference consistency modes. The chart shows the throughput/
// consistency trade the bound controls — tight bounds idle the fast worker
// at the gate (fewer updates, lower staleness), loose bounds recover async
// throughput at the cost of stale applies.
func FigStale(ctx context.Context, p *Problem, seed uint64) (string, error) {
	lr := TuneLR(ctx, p, seed)
	horizon := p.Horizon()
	sampleEvery := horizon / 25

	type row struct {
		label string
		res   *core.Result
	}
	var rows []row
	for _, s := range staleBounds {
		cfg := BaseConfig(core.AlgSSP, p, seed)
		cfg.BaseLR = lr
		cfg.StalenessBound = s
		cfg.SampleEvery = sampleEvery
		res, err := core.RunSim(ctx, cfg, horizon)
		if err != nil {
			return "", fmt.Errorf("experiments: figstale SSP s=%d on %s: %w", s, p.Spec.Name, err)
		}
		if res.Interrupted || ctx.Err() != nil {
			return "", fmt.Errorf("experiments: figstale on %s interrupted: %w", p.Spec.Name, ctx.Err())
		}
		rows = append(rows, row{label: fmt.Sprintf("SSP s=%d", s), res: res})
	}
	ref, err := RunAlgorithms(ctx, p, seed, staleReferences)
	if err != nil {
		return "", err
	}
	for _, name := range ref.Order {
		rows = append(rows, row{label: name, res: ref.Results[name]})
	}

	traces := make([]*metrics.Trace, 0, len(rows))
	for _, r := range rows {
		tr := cloneTrace(r.res.Trace)
		tr.Name = r.label
		traces = append(traces, tr)
	}
	base := metrics.GlobalMinLoss(traces)
	norm := metrics.Normalize(traces, base)

	var b strings.Builder
	title := fmt.Sprintf("Fig stale (%s): normalized loss vs time across staleness bounds — horizon %v, base LR %g (display clipped at %g×)",
		p.Spec.Name, horizon.Round(time.Microsecond), lr, displayCap)
	b.WriteString(metrics.ASCIIChart(clipForDisplay(norm), 72, 18, false, title))
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-16s %12s %12s %8s %8s %9s %8s %9s\n",
		"mode", "final loss", "min loss", "epochs", "updates", "stale max", "mean", "blocked")
	for _, r := range rows {
		st := r.res.Staleness
		staleMax, staleMean, blocked := "-", "-", "-"
		if st != nil && st.Count > 0 {
			staleMax = fmt.Sprintf("%d", st.Max)
			staleMean = fmt.Sprintf("%.2f", st.Mean())
			blocked = fmt.Sprintf("%d", st.Blocked)
		}
		fmt.Fprintf(&b, "%-16s %12.4g %12.4g %8.2f %8d %9s %8s %9s\n",
			r.label, r.res.FinalLoss, r.res.MinLoss, r.res.Epochs,
			r.res.TotalUpdates(), staleMax, staleMean, blocked)
	}
	return b.String(), nil
}
