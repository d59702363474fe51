// Covtype shoot-out: run all four Hogbatch algorithms plus the TensorFlow
// baseline on covtype-shaped data for the same simulated time budget and
// compare convergence — a miniature of the paper's Figure 5(a).
//
//	go run ./examples/covtype
package main

import (
	"context"
	"fmt"
	"log"

	"heterosgd/internal/core"
	"heterosgd/internal/experiments"
	"heterosgd/internal/metrics"
)

func main() {
	ctx := context.Background()
	p, err := experiments.NewProblem("covtype", experiments.Small(), 1)
	if err != nil {
		log.Fatal(err)
	}
	horizon := p.Horizon()
	lr := experiments.TuneLR(ctx, p, 1)
	fmt.Printf("%s — budget %v, grid-tuned LR %g\n\n", p.Dataset, horizon, lr)

	var traces []*metrics.Trace
	for _, alg := range []core.Algorithm{
		core.AlgHogbatchCPU, core.AlgHogbatchGPU,
		core.AlgCPUGPUHogbatch, core.AlgAdaptiveHogbatch, core.AlgTensorFlow,
	} {
		cfg := core.NewConfig(alg, p.Net, p.Dataset, p.Scale.Preset)
		cfg.BaseLR = lr
		cfg.SampleEvery = horizon / 25
		res, err := core.RunSim(ctx, cfg, horizon)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res)
		traces = append(traces, res.Trace)
	}

	base := metrics.GlobalMinLoss(traces)
	metrics.Normalize(traces, base)
	fmt.Println()
	fmt.Print(metrics.ASCIIChart(traces, 72, 16, false,
		"normalized loss vs simulated time (cf. paper Fig 5a)"))
}
