package experiments

import (
	"context"
	"fmt"
	"strings"

	"heterosgd/internal/atomicio"
)

// Options parameterizes an experiment invocation.
type Options struct {
	// Ctx, when set, makes every training run inside the experiment
	// cancellable (nil means context.Background()). Cancellation surfaces
	// as an "interrupted" error from Experiment.Run.
	Ctx context.Context
	// Scale selects fidelity (Small/Medium/Full).
	Scale Scale
	// Dataset restricts per-dataset experiments ("covtype", …); empty
	// runs all four.
	Dataset string
	// Seed drives data generation and model initialization.
	Seed uint64
	// BenchOut, when set, makes the benchmark experiments (sparsebench,
	// telbench, figelastic) also write their rows as JSON to this path — the
	// results/BENCH_*.json artifacts are regenerated this way.
	BenchOut string
}

// archive writes an experiment's JSON rows to opts.BenchOut, when set, and
// notes the path in the rendered output.
func (o Options) archive(out string, encode func() ([]byte, error)) (string, error) {
	if o.BenchOut == "" {
		return out, nil
	}
	buf, err := encode()
	if err != nil {
		return "", err
	}
	if err := atomicio.WriteFile(o.BenchOut, buf, 0o644); err != nil {
		return "", err
	}
	return out + fmt.Sprintf("\n(rows written to %s)\n", o.BenchOut), nil
}

// ctx returns the invocation context, never nil.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the CLI name ("table1", "fig5", …).
	ID string
	// Title describes the experiment.
	Title string
	// Run produces the rendered output.
	Run func(Options) (string, error)
}

// perDataset runs f on the problem of every dataset opts selects (all four
// when opts.Dataset is empty) and concatenates its outputs, each followed by
// a blank line.
func perDataset(f func(context.Context, *Problem, uint64) (string, error)) func(Options) (string, error) {
	return func(opts Options) (string, error) {
		names := []string{"covtype", "w8a", "delicious", "real-sim"}
		if opts.Dataset != "" {
			names = []string{opts.Dataset}
		}
		var b strings.Builder
		for _, name := range names {
			p, err := NewProblem(name, opts.Scale, opts.Seed)
			if err != nil {
				return "", err
			}
			out, err := f(opts.ctx(), p, opts.Seed)
			if err != nil {
				return "", err
			}
			b.WriteString(out)
			b.WriteString("\n")
		}
		return b.String(), nil
	}
}

// runSetFigures renders figs, blank-line separated, from one RunAll per
// problem — Figures 5, 6 and 8 share their runs.
func runSetFigures(figs ...func(*RunSet) string) func(context.Context, *Problem, uint64) (string, error) {
	return func(ctx context.Context, p *Problem, seed uint64) (string, error) {
		rs, err := RunAll(ctx, p, seed)
		if err != nil {
			return "", err
		}
		out := make([]string, len(figs))
		for i, fig := range figs {
			out[i] = fig(rs)
		}
		return strings.Join(out, "\n"), nil
	}
}

// All returns the registry in paper order.
func All() []Experiment {
	return []Experiment{
		{
			ID: "table1", Title: "Table I: hardware architecture specifications",
			Run: func(Options) (string, error) { return Table1(), nil },
		},
		{
			ID: "table2", Title: "Table II: datasets and DNN configurations",
			Run: func(opts Options) (string, error) { return Table2(opts.Scale), nil },
		},
		{
			ID: "fig5", Title: "Figure 5: normalized loss vs time (convergence speed)",
			Run: perDataset(runSetFigures(Fig5)),
		},
		{
			ID: "fig6", Title: "Figure 6: normalized loss vs epochs (statistical efficiency)",
			Run: perDataset(runSetFigures(Fig6)),
		},
		{
			ID: "fig7", Title: "Figure 7: CPU and GPU utilization over three epochs",
			Run: perDataset(Fig7),
		},
		{
			ID: "fig8", Title: "Figure 8: model-update distribution CPU vs GPU",
			Run: perDataset(runSetFigures(Fig8)),
		},
		{
			ID: "figstale", Title: "Convergence vs SSP staleness bound, with LocalSGD and DC-ASGD references",
			Run: perDataset(FigStale),
		},
		{
			ID: "figelastic", Title: "Convergence under seeded worker churn: join, leave, evict, and join+leave plans",
			Run: func(opts Options) (string, error) {
				var all []ElasticBenchResult
				out, err := perDataset(func(ctx context.Context, p *Problem, seed uint64) (string, error) {
					rows, out, err := FigElastic(ctx, p, seed)
					all = append(all, rows...)
					return out, err
				})(opts)
				if err != nil {
					return "", err
				}
				return opts.archive(out, func() ([]byte, error) { return ElasticBenchJSON(all) })
			},
		},
		{
			ID: "ratio", Title: "§VII-B: Hogwild CPU vs GPU epoch speed ratio (236–317×)",
			Run: func(Options) (string, error) { return SpeedRatio(), nil },
		},
		{
			ID: "verify", Title: "Reproduction certificate: PASS/FAIL per paper claim",
			Run: func(opts Options) (string, error) {
				ds := opts.Dataset
				if ds == "" {
					ds = "covtype"
				}
				_, out, err := Verify(opts.ctx(), ds, opts.Scale, opts.Seed)
				return out, err
			},
		},
		{
			ID: "plan", Title: "Full-scale predictions straight from the device cost models",
			Run: func(Options) (string, error) { return Plan(), nil },
		},
		{
			ID: "batchtrace", Title: "Algorithm 2 diagnostic: batch-size evolution over time",
			Run: perDataset(BatchEvolution),
		},
		{
			ID: "sparsebench", Title: "Dense vs sparse (CSR) gradient throughput on Table II's sparse shapes",
			Run: func(opts Options) (string, error) {
				rows, out, err := SparseBench(opts.Seed)
				if err != nil {
					return "", err
				}
				return opts.archive(out, func() ([]byte, error) { return SparseBenchJSON(rows) })
			},
		},
		{
			ID: "telbench", Title: "Telemetry overhead: traced+metered sim run vs identical untraced run",
			Run: func(opts Options) (string, error) {
				row, out, err := TelemetryBench(opts.Seed, 3)
				if err != nil {
					return "", err
				}
				return opts.archive(out, func() ([]byte, error) { return TelemetryBenchJSON(row) })
			},
		},
		{
			ID: "related", Title: "§II: Adaptive Hogbatch vs Omnivore vs adaptive learning rates",
			Run: perDataset(RelatedWork),
		},
		{
			ID: "figs", Title: "Figures 5, 6 and 8 from one set of runs per dataset",
			Run: perDataset(runSetFigures(Fig5, Fig6, Fig8)),
		},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(All()))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(ids, ", "))
}
