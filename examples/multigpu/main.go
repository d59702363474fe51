// Multi-GPU scaling study — the paper's stated future work ("we plan to
// scale these algorithms to multi-GPU architectures"). The framework's
// coordinator is worker-count agnostic, so this example sweeps 1–4 GPU
// workers (plus the CPU socket pair of Figure 2) with Adaptive Hogbatch
// and reports throughput and convergence.
//
//	go run ./examples/multigpu
package main

import (
	"context"
	"fmt"
	"log"

	"heterosgd/internal/core"
	"heterosgd/internal/experiments"
)

func main() {
	ctx := context.Background()
	p, err := experiments.NewProblem("w8a", experiments.Small(), 1)
	if err != nil {
		log.Fatal(err)
	}
	horizon := p.Horizon()
	lr := experiments.TuneLR(ctx, p, 1)
	fmt.Printf("%s — budget %v, LR %g\n\n", p.Dataset, horizon, lr)

	fmt.Printf("%-6s %-6s %14s %12s %10s %12s\n",
		"CPUs", "GPUs", "examples", "epochs", "loss", "GPU updates")
	for _, topo := range []struct{ cpus, gpus int }{
		{1, 1}, {1, 2}, {1, 4}, {2, 2},
	} {
		cfg, err := core.NewMultiConfig(core.AlgAdaptiveHogbatch, p.Net, p.Dataset, p.Scale.Preset, topo.cpus, topo.gpus)
		if err != nil {
			log.Fatal(err)
		}
		cfg.BaseLR = lr
		cfg.EvalSubset = 1024
		res, err := core.RunSim(ctx, cfg, horizon)
		if err != nil {
			log.Fatal(err)
		}
		var gpuUpdates int64
		for name, n := range res.Updates {
			if name[0] == 'g' {
				gpuUpdates += n
			}
		}
		fmt.Printf("%-6d %-6d %14d %12.2f %10.4f %12d\n",
			topo.cpus, topo.gpus, res.ExamplesProcessed, res.Epochs, res.FinalLoss, gpuUpdates)
	}

	fmt.Println("\nSame budget, single CPU+GPU pair for reference:")
	cfg := core.NewConfig(core.AlgAdaptiveHogbatch, p.Net, p.Dataset, p.Scale.Preset)
	cfg.BaseLR = lr
	cfg.EvalSubset = 1024
	res, err := core.RunSim(ctx, cfg, horizon)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
}
