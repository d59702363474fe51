package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"heterosgd/internal/core"
	"heterosgd/internal/data"
	"heterosgd/internal/device"
	"heterosgd/internal/metrics"
)

// Table1 renders the hardware-specification table (Table I) from the
// calibrated device models.
func Table1() string {
	return "TABLE I: Hardware architecture specifications\n" +
		device.TableI(device.NewXeon("cpu0", 56), device.NewV100("gpu0"))
}

// Table2 renders the dataset-characteristics table (Table II): the paper's
// full-size shapes and, when sc is not full scale, the generated sizes.
func Table2(sc Scale) string {
	var b strings.Builder
	b.WriteString("TABLE II: Datasets and DNN configurations\n")
	fmt.Fprintf(&b, "%-12s %10s %8s %9s %7s %7s\n", "dataset", "examples", "dims", "classes", "hidden", "units")
	for _, spec := range data.AllSpecs() {
		fmt.Fprintf(&b, "%-12s %10d %8d %9d %7d %7d\n",
			spec.Name, spec.N, spec.Dim, spec.Classes, spec.HiddenLayers, spec.HiddenUnits)
	}
	if sc.DataFrac < 1 {
		fmt.Fprintf(&b, "\ngenerated at scale %q (×%g examples, %d-unit layers):\n", sc.Name, sc.DataFrac, sc.HiddenUnits)
		fmt.Fprintf(&b, "%-12s %10s %8s %9s\n", "dataset", "examples", "dims", "classes")
		for _, spec := range data.AllSpecs() {
			s := spec.Scaled(sc.DataFrac)
			fmt.Fprintf(&b, "%-12s %10d %8d %9d\n", s.Name, s.N, s.Dim, s.Classes)
		}
	}
	return b.String()
}

// displayCap bounds the rendered normalized loss: a single early divergence
// spike (large-batch instability, §II) would otherwise flatten every curve
// against the x-axis. Data and summaries are never clipped — only the chart.
const displayCap = 8.0

// clipForDisplay caps trace losses at displayCap for rendering.
func clipForDisplay(traces []*metrics.Trace) []*metrics.Trace {
	out := make([]*metrics.Trace, len(traces))
	for i, t := range traces {
		c := cloneTrace(t)
		for j := range c.Points {
			if c.Points[j].Loss > displayCap {
				c.Points[j].Loss = displayCap
			}
		}
		out[i] = c
	}
	return out
}

// Fig5 renders the normalized-loss-versus-time figure for one dataset: the
// convergence-speed comparison that is the paper's headline result.
func Fig5(rs *RunSet) string {
	traces := rs.NormalizedTraces()
	title := fmt.Sprintf("Fig 5 (%s): normalized loss vs time — horizon %v, base LR %g (display clipped at %g×)",
		rs.Problem.Spec.Name, rs.Horizon.Round(time.Microsecond), rs.BaseLR, displayCap)
	out := metrics.ASCIIChart(clipForDisplay(traces), 72, 18, false, title)
	for _, target := range []float64{2.0, 1.1} {
		out += fmt.Sprintf("\ntime to reach %.1f× best loss:\n", target)
		reached := rs.TimeToTarget(target)
		for _, name := range rs.Order {
			if at, ok := reached[name]; ok {
				out += fmt.Sprintf("  %-14s %12v\n", name, at.Round(time.Microsecond))
			} else {
				out += fmt.Sprintf("  %-14s %12s\n", name, "not reached")
			}
		}
	}
	out += "\nepochs completed: " + epochSummary(rs) + "\n"
	return out
}

// Fig6 renders the statistical-efficiency figure: normalized loss versus
// epochs. Hogwild CPU is omitted exactly as in the paper ("not included …
// because of the extremely long time it takes to perform the required
// number of epochs").
func Fig6(rs *RunSet) string {
	all := rs.NormalizedTraces()
	var traces []*metrics.Trace
	for _, t := range all {
		if t.Name == core.AlgHogbatchCPU.String() {
			continue
		}
		traces = append(traces, t)
	}
	title := fmt.Sprintf("Fig 6 (%s): normalized loss vs epochs (statistical efficiency, display clipped at %g×)", rs.Problem.Spec.Name, displayCap)
	out := metrics.ASCIIChart(clipForDisplay(traces), 72, 18, true, title)
	out += "\nepochs to reach 1.1× best loss:\n"
	for _, t := range traces {
		if ep, ok := t.EpochsToReach(1.1); ok {
			out += fmt.Sprintf("  %-14s %10.2f epochs\n", t.Name, ep)
		} else {
			out += fmt.Sprintf("  %-14s %10s\n", t.Name, "not reached")
		}
	}
	return out
}

// fig7Algorithms are the four Hogbatch variants shown in Figure 7.
var fig7Algorithms = []core.Algorithm{
	core.AlgHogbatchCPU, core.AlgHogbatchGPU, core.AlgCPUGPUHogbatch, core.AlgAdaptiveHogbatch,
}

// Fig7 runs each Hogbatch algorithm for about three of its own epochs on
// the problem and renders per-device utilization over time (Figure 7).
func Fig7(ctx context.Context, p *Problem, seed uint64) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 7 (%s): CPU and GPU utilization over ~3 epochs\n", p.Spec.Name)
	lr := TuneLR(ctx, p, seed)
	for _, alg := range fig7Algorithms {
		cfg := BaseConfig(alg, p, seed)
		cfg.BaseLR = lr
		horizon := time.Duration(3.4 * float64(estimateEpochTime(&cfg, p)))
		res, err := core.RunSim(ctx, cfg, horizon)
		if err != nil {
			return "", err
		}
		if res.Interrupted {
			return "", fmt.Errorf("experiments: fig7 %s interrupted: %w", alg, ctx.Err())
		}
		fmt.Fprintf(&b, "\n%s (%.1f epochs in %v):\n", alg, res.Epochs, horizon.Round(time.Microsecond))
		for _, dev := range []string{"cpu0", "gpu0"} {
			series := metrics.Series(res.Utilization[dev], horizon, horizon/48)
			mean := metrics.MeanUtilization(res.Utilization[dev], horizon)
			fmt.Fprintf(&b, "  %-5s %s  mean %4.0f%%\n", dev, sparkline(series), 100*mean)
		}
	}
	return b.String(), nil
}

// Fig8 renders the model-update distribution between CPU and GPU for the
// two heterogeneous algorithms (Figure 8).
func Fig8(rs *RunSet) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8 (%s): ratio of model updates CPU vs GPU\n", rs.Problem.Spec.Name)
	fmt.Fprintf(&b, "%-14s %14s %14s %8s %8s\n", "algorithm", "CPU updates", "GPU updates", "CPU %", "GPU %")
	for _, alg := range []core.Algorithm{core.AlgCPUGPUHogbatch, core.AlgAdaptiveHogbatch} {
		res, ok := rs.Results[alg.String()]
		if !ok {
			continue
		}
		var cpu, gpu int64
		for name, n := range res.Updates {
			if strings.HasPrefix(name, "cpu") {
				cpu += n
			} else {
				gpu += n
			}
		}
		total := cpu + gpu
		if total == 0 {
			total = 1
		}
		fmt.Fprintf(&b, "%-14s %14d %14d %7.1f%% %7.1f%%\n",
			alg, cpu, gpu, 100*float64(cpu)/float64(total), 100*float64(gpu)/float64(total))
	}
	return b.String()
}

// SpeedRatio reports the §VII-B observation — a Hogwild CPU epoch takes
// 236–317× longer than a batch-8192 GPU epoch — straight from the cost
// models at full paper scale (no arithmetic needed, so this is exact at any
// experiment scale).
func SpeedRatio() string {
	cpu := device.NewXeon("cpu0", 56)
	gpu := device.NewV100("gpu0")
	var b strings.Builder
	b.WriteString("Epoch speed ratio, Hogwild CPU vs Hogbatch GPU (paper: 236–317×)\n")
	fmt.Fprintf(&b, "%-12s %14s %14s %9s\n", "dataset", "CPU epoch", "GPU epoch", "ratio")
	for _, spec := range data.AllSpecs() {
		arch := spec.Arch()
		mb := int64(arch.NumParameters()) * 8
		cpuIters := (spec.N + cpu.WorkerThreads - 1) / cpu.WorkerThreads
		cpuEpoch := time.Duration(cpuIters) * cpu.IterTime(arch, cpu.WorkerThreads, mb)
		gpuIters := (spec.N + 8191) / 8192
		gpuEpoch := time.Duration(gpuIters) * gpu.IterTime(arch, 8192, mb)
		fmt.Fprintf(&b, "%-12s %14v %14v %8.0f×\n",
			spec.Name, cpuEpoch.Round(time.Millisecond), gpuEpoch.Round(time.Millisecond),
			cpuEpoch.Seconds()/gpuEpoch.Seconds())
	}
	return b.String()
}

// estimateEpochTime predicts one epoch's duration for a configuration from
// the device models: the pool drains at the sum of the workers' example
// rates.
func estimateEpochTime(cfg *core.Config, p *Problem) time.Duration {
	modelBytes := int64(p.Net.Arch.NumParameters()) * 8
	rate := 0.0
	for _, w := range cfg.Workers {
		iter := w.Device.IterTime(p.Net.Arch, w.InitialBatch, modelBytes).Seconds()
		if iter > 0 {
			rate += float64(w.InitialBatch) / iter
		}
	}
	if rate == 0 {
		return time.Second
	}
	return time.Duration(float64(p.Dataset.N()) / rate * float64(time.Second))
}

// epochSummary lists epochs completed per algorithm, sorted by legend order.
func epochSummary(rs *RunSet) string {
	parts := make([]string, 0, len(rs.Order))
	for _, name := range rs.Order {
		parts = append(parts, fmt.Sprintf("%s %.2f", name, rs.Results[name].Epochs))
	}
	return strings.Join(parts, ", ")
}

// sparkline renders a 0–1 series with unicode block glyphs.
func sparkline(series []float64) string {
	glyphs := []rune("▁▂▃▄▅▆▇█")
	var b strings.Builder
	for _, v := range series {
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		idx := int(v * float64(len(glyphs)-1))
		b.WriteRune(glyphs[idx])
	}
	return b.String()
}

// BatchEvolution runs Adaptive Hogbatch and renders each worker's batch
// size over time — Algorithm 2's visible behaviour ("assigns batches with
// continuously evolving size based on the relative speed of CPU and GPU",
// abstract). Not a paper figure; a diagnostic the framework makes cheap.
func BatchEvolution(ctx context.Context, p *Problem, seed uint64) (string, error) {
	cfg := BaseConfig(core.AlgAdaptiveHogbatch, p, seed)
	cfg.BaseLR = TuneLR(ctx, p, seed)
	horizon := p.Horizon()
	res, err := core.RunSim(ctx, cfg, horizon)
	if err != nil {
		return "", err
	}
	if res.Interrupted {
		return "", fmt.Errorf("experiments: batch evolution interrupted: %w", ctx.Err())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Batch-size evolution (%s, Adaptive Hogbatch, %v horizon)\n", p.Spec.Name, horizon.Round(time.Microsecond))
	fmt.Fprintf(&b, "%12s %-8s %8s\n", "time", "worker", "batch")
	for _, ev := range res.BatchTrace {
		fmt.Fprintf(&b, "%12v %-8s %8d\n", ev.At.Round(time.Microsecond), ev.Worker, ev.Size)
	}
	fmt.Fprintf(&b, "final: %v after %v resizes; update gap stayed policy-bounded\n", res.FinalBatch, res.Resizes)
	return b.String(), nil
}
