// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VII), one testing.B target per artifact, plus ablation benches for the
// design decisions called out in DESIGN.md §5. Custom metrics carry the
// quantities the paper reports (final normalized loss, update shares,
// utilization), so `go test -bench . -benchmem` doubles as the reproduction
// harness at the "small" experiment scale; cmd/hogbench runs the same
// experiments at medium/full fidelity.
package heterosgd

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"heterosgd/internal/core"
	"heterosgd/internal/experiments"
	"heterosgd/internal/metrics"
	"heterosgd/internal/tensor"
)

// runCache memoizes one RunSet per dataset so the Fig5/Fig6/Fig8 benches
// don't re-train the same five algorithms three times.
var (
	runCacheMu sync.Mutex
	runCache   = map[string]*experiments.RunSet{}
)

func cachedRunSet(b *testing.B, dataset string) *experiments.RunSet {
	b.Helper()
	runCacheMu.Lock()
	defer runCacheMu.Unlock()
	if rs, ok := runCache[dataset]; ok {
		return rs
	}
	p, err := experiments.NewProblem(dataset, experiments.Small(), 1)
	if err != nil {
		b.Fatal(err)
	}
	rs, err := experiments.RunAll(context.Background(), p, 1)
	if err != nil {
		b.Fatal(err)
	}
	runCache[dataset] = rs
	return rs
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Table1(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	sc := experiments.Small()
	for i := 0; i < b.N; i++ {
		if out := experiments.Table2(sc); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// benchFig5 regenerates Figure 5 for one dataset and reports the paper's
// headline quantities as custom metrics.
func benchFig5(b *testing.B, dataset string) {
	for i := 0; i < b.N; i++ {
		rs := cachedRunSet(b, dataset)
		if out := experiments.Fig5(rs); len(out) == 0 {
			b.Fatal("empty figure")
		}
		if i == 0 {
			reach := rs.TimeToTarget(1.25)
			for name, metric := range map[string]string{
				"Adaptive":     "adaptive_ms_to_1.25x",
				"CPU+GPU":      "hybrid_ms_to_1.25x",
				"Hogbatch GPU": "gpu_ms_to_1.25x",
			} {
				if at, ok := reach[name]; ok {
					b.ReportMetric(at.Seconds()*1e3, metric)
				}
			}
		}
	}
}

func BenchmarkFig5Covtype(b *testing.B)   { benchFig5(b, "covtype") }
func BenchmarkFig5W8a(b *testing.B)       { benchFig5(b, "w8a") }
func BenchmarkFig5Delicious(b *testing.B) { benchFig5(b, "delicious") }
func BenchmarkFig5RealSim(b *testing.B)   { benchFig5(b, "real-sim") }

func benchFig6(b *testing.B, dataset string) {
	for i := 0; i < b.N; i++ {
		rs := cachedRunSet(b, dataset)
		if out := experiments.Fig6(rs); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig6Covtype(b *testing.B)   { benchFig6(b, "covtype") }
func BenchmarkFig6W8a(b *testing.B)       { benchFig6(b, "w8a") }
func BenchmarkFig6Delicious(b *testing.B) { benchFig6(b, "delicious") }
func BenchmarkFig6RealSim(b *testing.B)   { benchFig6(b, "real-sim") }

func BenchmarkFig7(b *testing.B) {
	// The paper shows Figure 7 on covtype only.
	p, err := experiments.NewProblem("covtype", experiments.Small(), 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		out, err := experiments.Fig7(context.Background(), p, 1)
		if err != nil || len(out) == 0 {
			b.Fatalf("fig7: %v", err)
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := cachedRunSet(b, "covtype")
		if out := experiments.Fig8(rs); len(out) == 0 {
			b.Fatal("empty figure")
		}
		if i == 0 {
			hybrid := rs.Results[core.AlgCPUGPUHogbatch.String()]
			adaptive := rs.Results[core.AlgAdaptiveHogbatch.String()]
			b.ReportMetric(100*hybrid.CPUShare(), "hybrid_cpu_share_%")
			b.ReportMetric(100*adaptive.CPUShare(), "adaptive_cpu_share_%")
		}
	}
}

func BenchmarkSpeedRatio(b *testing.B) {
	// §VII-B: Hogwild-CPU epochs are 236–317× slower than GPU epochs, from
	// the paper-scale cost models (full 512-unit nets, full dataset sizes).
	for i := 0; i < b.N; i++ {
		if out := experiments.SpeedRatio(); len(out) == 0 {
			b.Fatal("empty report")
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// ablationProblem returns a small problem + config for ablation runs.
func ablationProblem(b *testing.B, alg core.Algorithm) (*experiments.Problem, core.Config) {
	b.Helper()
	p, err := experiments.NewProblem("covtype", experiments.Small(), 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.NewConfig(alg, p.Net, p.Dataset, p.Scale.Preset)
	cfg.BaseLR = 0.1
	cfg.EvalSubset = 1024
	return p, cfg
}

// BenchmarkAblationUpdateMode compares the wall-clock throughput of the
// shared-model write disciplines on the live engine: atomic (a row at a time
// under a striped lock table), racy (the paper-exact plain stores) and locked
// (one RWMutex over the model).
func BenchmarkAblationUpdateMode(b *testing.B) {
	for _, mode := range []tensor.UpdateMode{tensor.UpdateAtomic, tensor.UpdateRacy, tensor.UpdateLocked} {
		b.Run(mode.String(), func(b *testing.B) {
			var updates int64
			var examples int64
			for i := 0; i < b.N; i++ {
				_, cfg := ablationProblem(b, core.AlgCPUGPUHogbatch)
				cfg.UpdateMode = mode
				cfg.Workers[0].Threads = 8 // live goroutines; keep modest
				res, err := core.RunReal(context.Background(), cfg, 200*time.Millisecond)
				if err != nil {
					b.Fatal(err)
				}
				updates += res.TotalUpdates()
				examples += res.ExamplesProcessed
			}
			b.ReportMetric(float64(updates)/float64(b.N), "updates/run")
			b.ReportMetric(float64(examples)/float64(b.N), "examples/run")
		})
	}
}

// BenchmarkAblationReplica compares reference vs deep CPU model replicas
// (§V: CPU workers use references; the ablation forces deep copies, losing
// intra-batch update visibility).
func BenchmarkAblationReplica(b *testing.B) {
	for _, deep := range []bool{false, true} {
		name := "reference"
		if deep {
			name = "deep"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, cfg := ablationProblem(b, core.AlgHogbatchCPU)
				cfg.Workers[0].DeepReplica = deep
				res, err := core.RunSim(context.Background(), cfg, p.Horizon())
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.FinalLoss, "final_loss")
				}
			}
		})
	}
}

// BenchmarkAblationAlphaBeta sweeps Algorithm 2's α (batch scale factor)
// and β (update survival fraction).
func BenchmarkAblationAlphaBeta(b *testing.B) {
	cases := []struct {
		name        string
		alpha, beta float64
	}{
		{"alpha1.5_beta1", 1.5, 1},
		{"alpha2_beta1", 2, 1},
		{"alpha4_beta1", 4, 1},
		{"alpha2_beta0.5", 2, 0.5},
		{"alpha2_beta0.25", 2, 0.25},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, cfg := ablationProblem(b, core.AlgAdaptiveHogbatch)
				cfg.Alpha = c.alpha
				cfg.Beta = c.beta
				res, err := core.RunSim(context.Background(), cfg, p.Horizon())
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.FinalLoss, "final_loss")
					b.ReportMetric(100*res.CPUShare(), "cpu_share_%")
					b.ReportMetric(float64(res.Resizes[0]+res.Resizes[1]), "resizes")
				}
			}
		})
	}
}

// BenchmarkAblationThresholds sweeps the GPU lower batch threshold, the
// knob the paper says "controls the tradeoff between GPU utilization and
// convergence" (§VII-B).
func BenchmarkAblationThresholds(b *testing.B) {
	for _, gpuMin := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("gpuMin%d", gpuMin), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, cfg := ablationProblem(b, core.AlgAdaptiveHogbatch)
				cfg.Workers[1].MinBatch = gpuMin
				res, err := core.RunSim(context.Background(), cfg, p.Horizon())
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.FinalLoss, "final_loss")
					b.ReportMetric(100*metrics.MeanUtilization(res.Utilization["gpu0"], res.Duration), "gpu_util_%")
				}
			}
		})
	}
}

// BenchmarkAblationLRScaling toggles the batch-proportional learning-rate
// rule (§VI-B).
func BenchmarkAblationLRScaling(b *testing.B) {
	for _, scaling := range []bool{true, false} {
		name := "scaled"
		if !scaling {
			name = "flat"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, cfg := ablationProblem(b, core.AlgCPUGPUHogbatch)
				cfg.LRScaling = scaling
				res, err := core.RunSim(context.Background(), cfg, p.Horizon())
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.FinalLoss, "final_loss")
				}
			}
		})
	}
}

// BenchmarkAblationStaleDamping sweeps the stale-gradient learning-rate
// damping (§VI-B's mitigation for stale deep replicas).
func BenchmarkAblationStaleDamping(b *testing.B) {
	for _, damping := range []float64{0, 0.05, 0.5} {
		b.Run(fmt.Sprintf("damping%g", damping), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, cfg := ablationProblem(b, core.AlgCPUGPUHogbatch)
				cfg.StaleDamping = damping
				res, err := core.RunSim(context.Background(), cfg, p.Horizon())
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.FinalLoss, "final_loss")
				}
			}
		})
	}
}

// BenchmarkEngineThroughput measures the live engine's end-to-end training
// throughput (examples/second) for each algorithm on this host.
func BenchmarkEngineThroughput(b *testing.B) {
	for _, alg := range []core.Algorithm{core.AlgHogbatchCPU, core.AlgHogbatchGPU, core.AlgCPUGPUHogbatch, core.AlgAdaptiveHogbatch} {
		b.Run(alg.String(), func(b *testing.B) {
			var examples int64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				_, cfg := ablationProblem(b, alg)
				cfg.UpdateMode = tensor.UpdateLocked
				for w := range cfg.Workers {
					if cfg.Workers[w].Threads > 8 {
						cfg.Workers[w].Threads = 8
					}
				}
				res, err := core.RunReal(context.Background(), cfg, 150*time.Millisecond)
				if err != nil {
					b.Fatal(err)
				}
				examples += res.ExamplesProcessed
				elapsed += res.Duration
			}
			if elapsed > 0 {
				b.ReportMetric(float64(examples)/elapsed.Seconds(), "examples/s")
			}
		})
	}
}

// BenchmarkAblationSVRG compares the plain heterogeneous mixture against
// the explicit variance-reduced variant (§II's SVRG connection).
func BenchmarkAblationSVRG(b *testing.B) {
	for _, alg := range []core.Algorithm{core.AlgCPUGPUHogbatch, core.AlgSVRG} {
		b.Run(alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, cfg := ablationProblem(b, alg)
				res, err := core.RunSim(context.Background(), cfg, p.Horizon())
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.FinalLoss, "final_loss")
					b.ReportMetric(res.MinLoss, "min_loss")
				}
			}
		})
	}
}

// BenchmarkRelatedWork regenerates the §II comparison (Adaptive vs
// Omnivore vs AdaptiveLR) on covtype.
func BenchmarkRelatedWork(b *testing.B) {
	p, err := experiments.NewProblem("covtype", experiments.Small(), 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		out, err := experiments.RelatedWork(context.Background(), p, 1)
		if err != nil || len(out) == 0 {
			b.Fatalf("related: %v", err)
		}
	}
}
