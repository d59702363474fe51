package experiments

import (
	"context"
	"fmt"
	"strings"

	"heterosgd/internal/atomicio"
	"heterosgd/internal/core"
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

// DefaultOptions uses the medium scale and the covtype dataset.
func DefaultOptions() Options {
	return Options{Scale: Medium(), Seed: 1}
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

// datasets resolves the dataset list an option selects.
func datasets(opts Options) []string {
	if opts.Dataset != "" {
		return []string{opts.Dataset}
	}
	return []string{"covtype", "w8a", "delicious", "real-sim"}
}

// runSets builds one RunSet per selected dataset (shared by fig5/6/8).
// With no explicit algorithms it runs the five figure algorithms; passing a
// set restricts every dataset's RunSet to exactly those algorithms.
func runSets(opts Options, algs ...core.Algorithm) ([]*RunSet, error) {
	if len(algs) == 0 {
		algs = figureAlgorithms
	}
	var out []*RunSet
	for _, name := range datasets(opts) {
		p, err := NewProblem(name, opts.Scale, opts.Seed)
		if err != nil {
			return nil, err
		}
		rs, err := RunAlgorithms(opts.ctx(), p, opts.Seed, algs)
		if err != nil {
			return nil, err
		}
		out = append(out, rs)
	}
	return out, nil
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
			Run: func(opts Options) (string, error) {
				sets, err := runSets(opts)
				if err != nil {
					return "", err
				}
				var b strings.Builder
				for _, rs := range sets {
					b.WriteString(Fig5(rs))
					b.WriteString("\n")
				}
				return b.String(), nil
			},
		},
		{
			ID: "fig6", Title: "Figure 6: normalized loss vs epochs (statistical efficiency)",
			Run: func(opts Options) (string, error) {
				sets, err := runSets(opts)
				if err != nil {
					return "", err
				}
				var b strings.Builder
				for _, rs := range sets {
					b.WriteString(Fig6(rs))
					b.WriteString("\n")
				}
				return b.String(), nil
			},
		},
		{
			ID: "fig7", Title: "Figure 7: CPU and GPU utilization over three epochs",
			Run: func(opts Options) (string, error) {
				var b strings.Builder
				for _, name := range datasets(opts) {
					p, err := NewProblem(name, opts.Scale, opts.Seed)
					if err != nil {
						return "", err
					}
					out, err := Fig7(opts.ctx(), p, opts.Seed)
					if err != nil {
						return "", err
					}
					b.WriteString(out)
					b.WriteString("\n")
				}
				return b.String(), nil
			},
		},
		{
			ID: "fig8", Title: "Figure 8: model-update distribution CPU vs GPU",
			Run: func(opts Options) (string, error) {
				sets, err := runSets(opts)
				if err != nil {
					return "", err
				}
				var b strings.Builder
				for _, rs := range sets {
					b.WriteString(Fig8(rs))
					b.WriteString("\n")
				}
				return b.String(), nil
			},
		},
		{
			ID: "figstale", Title: "Convergence vs SSP staleness bound, with LocalSGD and DC-ASGD references",
			Run: func(opts Options) (string, error) {
				var b strings.Builder
				for _, name := range datasets(opts) {
					p, err := NewProblem(name, opts.Scale, opts.Seed)
					if err != nil {
						return "", err
					}
					out, err := FigStale(opts.ctx(), p, opts.Seed)
					if err != nil {
						return "", err
					}
					b.WriteString(out)
					b.WriteString("\n")
				}
				return b.String(), nil
			},
		},
		{
			ID: "figelastic", Title: "Convergence under seeded worker churn: join, leave, evict, and join+leave plans",
			Run: func(opts Options) (string, error) {
				var b strings.Builder
				var all []ElasticBenchResult
				for _, name := range datasets(opts) {
					p, err := NewProblem(name, opts.Scale, opts.Seed)
					if err != nil {
						return "", err
					}
					rows, out, err := FigElastic(opts.ctx(), p, opts.Seed)
					if err != nil {
						return "", err
					}
					all = append(all, rows...)
					b.WriteString(out)
					b.WriteString("\n")
				}
				return opts.archive(b.String(), func() ([]byte, error) { return ElasticBenchJSON(all) })
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
			Run: func(opts Options) (string, error) {
				var b strings.Builder
				for _, name := range datasets(opts) {
					p, err := NewProblem(name, opts.Scale, opts.Seed)
					if err != nil {
						return "", err
					}
					out, err := BatchEvolution(opts.ctx(), p, opts.Seed)
					if err != nil {
						return "", err
					}
					b.WriteString(out)
					b.WriteString("\n")
				}
				return b.String(), nil
			},
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
			Run: func(opts Options) (string, error) {
				var b strings.Builder
				for _, name := range datasets(opts) {
					p, err := NewProblem(name, opts.Scale, opts.Seed)
					if err != nil {
						return "", err
					}
					out, err := RelatedWork(opts.ctx(), p, opts.Seed)
					if err != nil {
						return "", err
					}
					b.WriteString(out)
					b.WriteString("\n")
				}
				return b.String(), nil
			},
		},
		{
			ID: "figs", Title: "Figures 5, 6 and 8 from one set of runs per dataset",
			Run: func(opts Options) (string, error) {
				sets, err := runSets(opts)
				if err != nil {
					return "", err
				}
				var b strings.Builder
				for _, rs := range sets {
					b.WriteString(Fig5(rs))
					b.WriteString("\n")
					b.WriteString(Fig6(rs))
					b.WriteString("\n")
					b.WriteString(Fig8(rs))
					b.WriteString("\n")
				}
				return b.String(), nil
			},
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
