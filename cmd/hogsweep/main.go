// Command hogsweep grids hyperparameters the way the paper's methodology
// prescribes (§VII-A: "the SGD learning rate is chosen by griding its range
// in powers of 10") and reports loss/time-to-target for every combination,
// so the tuned values used by hogbench can be audited or re-derived.
//
// Usage:
//
//	hogsweep -dataset covtype -scale small -alg adaptive
//	hogsweep -dataset w8a -sweep thresholds
//	hogsweep -dataset covtype -sweep alphabeta
package main

import (
	"flag"
	"fmt"
	"time"

	"heterosgd/internal/cli"
	"heterosgd/internal/core"
	"heterosgd/internal/device"
	"heterosgd/internal/experiments"
)

func main() {
	prob := cli.DefaultProblem()
	prob.Bind(flag.CommandLine)
	var tel cli.Telemetry
	tel.Bind(flag.CommandLine)
	var (
		algName = flag.String("alg", "adaptive", "algorithm to sweep")
		sweep   = flag.String("sweep", "lr", "what to sweep: lr, alphabeta, thresholds")
		target  = flag.Float64("target", 1.25, "normalized loss target for time-to-target")
	)
	cli.Parse()

	if _, err := tel.Serve(); err != nil {
		cli.Fatal(err)
	}
	alg, err := core.ParseAlgorithm(*algName)
	if err != nil {
		cli.Fatal(err)
	}
	p, err := prob.Build()
	if err != nil {
		cli.Fatal(err)
	}
	seed := prob.Seed
	// SIGINT/SIGTERM cancel the sweep: the current run drains and the rows
	// completed so far are reported before exiting 0.
	ctx, stopSignals := cli.SignalContext()
	defer stopSignals()
	horizon := p.Horizon()
	fmt.Printf("%s (%s scale) — %s, horizon %v\n\n", p.Spec.Name, p.Scale.Name, alg, horizon.Round(time.Microsecond))

	type row struct {
		label string
		cfg   core.Config
	}
	var rows []row
	switch *sweep {
	case "lr":
		for _, lr := range []float64{3, 1, 0.3, 0.1, 0.03, 0.01, 0.003} {
			cfg := experiments.BaseConfig(alg, p, seed)
			cfg.BaseLR = lr
			rows = append(rows, row{fmt.Sprintf("lr=%g", lr), cfg})
		}
	case "alphabeta":
		lr := experiments.TuneLR(ctx, p, seed)
		for _, alpha := range []float64{1.25, 1.5, 2, 3, 4} {
			for _, beta := range []float64{0.25, 0.5, 1} {
				cfg := experiments.BaseConfig(alg, p, seed)
				cfg.BaseLR = lr
				cfg.Alpha = alpha
				cfg.Beta = beta
				rows = append(rows, row{fmt.Sprintf("α=%g β=%g", alpha, beta), cfg})
			}
		}
	case "thresholds":
		lr := experiments.TuneLR(ctx, p, seed)
		gpuMax := p.Scale.Preset.GPUMax
		for _, gpuMin := range []int{gpuMax / 16, gpuMax / 8, gpuMax / 4, gpuMax / 2} {
			if gpuMin < 32 {
				continue
			}
			cfg := experiments.BaseConfig(alg, p, seed)
			cfg.BaseLR = lr
			for i := range cfg.Workers {
				if cfg.Workers[i].Device.Kind() == device.KindGPU {
					cfg.Workers[i].MinBatch = gpuMin
				}
			}
			rows = append(rows, row{fmt.Sprintf("gpuMin=%d", gpuMin), cfg})
		}
	default:
		cli.Fatal(fmt.Errorf("unknown sweep %q (lr, alphabeta, thresholds)", *sweep))
	}

	fmt.Printf("%-16s %12s %12s %10s %12s %10s\n", "config", "final", "min", "epochs", "to target", "CPU %")
	best, bestLoss := "", 0.0
	first := true
	var results []*core.Result
	interrupted := false
	for _, r := range rows {
		res, err := core.RunSim(ctx, r.cfg, horizon)
		if err != nil {
			cli.Fatal(err)
		}
		if res.Interrupted {
			interrupted = true
			break
		}
		results = append(results, res)
		if first || res.MinLoss < bestLoss {
			best, bestLoss = r.label, res.MinLoss
			first = false
		}
	}
	for i, res := range results {
		r := rows[i]
		reach := "—"
		if at, ok := res.Trace.TimeToReach(bestLoss * *target); ok {
			reach = at.Round(time.Microsecond).String()
		}
		fmt.Printf("%-16s %12.4f %12.4f %10.2f %12s %9.1f%%\n",
			r.label, res.FinalLoss, res.MinLoss, res.Epochs, reach, 100*res.CPUShare())
	}
	if interrupted {
		fmt.Printf("\ninterrupted after %d/%d configs\n", len(results), len(rows))
	}
	if len(results) > 0 {
		fmt.Printf("\nbest minimum loss: %s (%.4f); time-to-target uses %.2f× that minimum\n", best, bestLoss, *target)
	}
}
