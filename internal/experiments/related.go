package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"heterosgd/internal/core"
	"heterosgd/internal/device"
	"heterosgd/internal/metrics"
)

// RelatedWork runs the §II comparison the paper argues but never plots:
// Adaptive Hogbatch (dynamic batches, asynchronous) against the two
// related-work designs it criticizes — Omnivore-style static proportional
// splitting with synchronized rounds (with perfect and with misestimated
// speeds) and parameter-server-style adaptive learning rates — all under
// the same time budget, data, and initial model.
func RelatedWork(ctx context.Context, p *Problem, seed uint64) (string, error) {
	horizon := p.Horizon()
	lr := TuneLR(ctx, p, seed)

	type entry struct {
		name string
		cfg  core.Config
		res  *core.Result
	}
	var entries []entry
	for _, alg := range []core.Algorithm{core.AlgAdaptiveHogbatch, core.AlgAdaptiveLR, core.AlgCPUGPUHogbatch} {
		entries = append(entries, entry{name: alg.String(), cfg: BaseConfig(alg, p, seed)})
	}
	exact, skewed := omnivoreConfig(p, seed, 1), omnivoreConfig(p, seed, 10)
	entries = append(entries, entry{name: "Omnivore (exact)", cfg: exact}, entry{name: "Omnivore (10× mis-est)", cfg: skewed})
	for i := range entries {
		e := &entries[i]
		e.cfg.BaseLR = lr
		res, err := core.RunSim(ctx, e.cfg, horizon)
		if err != nil {
			return "", err
		}
		if res.Interrupted {
			return "", fmt.Errorf("experiments: %s interrupted: %w", e.name, ctx.Err())
		}
		e.res = res
	}

	var traces []*metrics.Trace
	for _, e := range entries {
		t := cloneTrace(e.res.Trace)
		t.Name = e.name
		traces = append(traces, t)
	}
	base := metrics.GlobalMinLoss(traces)
	metrics.Normalize(traces, base)

	var b strings.Builder
	fmt.Fprintf(&b, "Related-work comparison (%s, §II): horizon %v, base LR %g\n",
		p.Spec.Name, horizon.Round(time.Microsecond), lr)
	fmt.Fprintf(&b, "%-24s %12s %12s %10s %14s\n", "system", "final loss", "min loss", "epochs", "to 1.5× best")
	for i, e := range entries {
		reach := "not reached"
		if at, ok := traces[i].TimeToReach(1.5); ok {
			reach = at.Round(time.Microsecond).String()
		}
		fmt.Fprintf(&b, "%-24s %12.4f %12.4f %10.2f %14s\n",
			e.name, traces[i].FinalLoss(), traces[i].MinLoss(), e.res.Epochs, reach)
	}

	// The structural argument: Omnivore's barrier stalls under
	// misestimation, quantified.
	fmt.Fprintf(&b, "\nOmnivore barrier stall: %.0f%% of each round with exact estimates, %.0f%% at 10× misestimation\n",
		100*stallFraction(&exact), 100*stallFraction(&skewed))
	return b.String(), nil
}

// omnivoreConfig is the Omnivore comparator whose planner believes the GPU
// gpuSkew× as fast as its cost model says: the same static split, from a
// skewed rate (1 = the exact estimate NewConfig plans with).
func omnivoreConfig(p *Problem, seed uint64, gpuSkew float64) core.Config {
	cfg := BaseConfig(core.AlgOmnivore, p, seed)
	cpu, gpu := &cfg.Workers[0], &cfg.Workers[1]
	cb, gb := device.SpeedSplit(p.Net.Arch, p.Scale.Preset.GPUMax, cpu.Device, gpu.Device, gpuSkew)
	cpu.InitialBatch, cpu.MinBatch, cpu.MaxBatch = cb, cb, cb
	gpu.InitialBatch, gpu.MinBatch, gpu.MaxBatch = gb, gb, gb
	return cfg
}

// stallFraction reports the fraction of a synchronized round the fastest
// device spends waiting at the barrier for the slowest, at cfg's static batch
// sizes — the inefficiency Adaptive Hogbatch eliminates.
func stallFraction(cfg *core.Config) float64 {
	arch := cfg.Net.Arch
	modelBytes := int64(arch.NumParameters()) * 8
	var fast, round time.Duration
	for i, w := range cfg.Workers {
		t := w.Device.IterTime(arch, w.InitialBatch, modelBytes)
		if i == 0 || t < fast {
			fast = t
		}
		round = max(round, t)
	}
	if round == 0 {
		return 0
	}
	return 1 - fast.Seconds()/round.Seconds()
}
