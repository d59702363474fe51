// Multi-label training on delicious-shaped data (983 labels in the paper):
// per-label sigmoid cross-entropy through the heterogeneous framework, and
// the TensorFlow baseline's multi-label collapse (§VII-B).
//
//	go run ./examples/multilabel
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
	p, err := experiments.NewProblem("delicious", experiments.Small(), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s (multi-label: avg %.1f labels/example)\n", p.Dataset, avgLabels(p))
	horizon := p.Horizon()
	lr := experiments.TuneLR(ctx, p, 1)

	adaptive := core.NewConfig(core.AlgAdaptiveHogbatch, p.Net, p.Dataset, p.Scale.Preset)
	adaptive.BaseLR = lr
	res, err := core.RunSim(ctx, adaptive, horizon)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("adaptive:", res)

	gpuCfg := core.NewConfig(core.AlgHogbatchGPU, p.Net, p.Dataset, p.Scale.Preset)
	gpuCfg.BaseLR = lr
	gpuRes, err := core.RunSim(ctx, gpuCfg, horizon)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("gpu-only:", gpuRes)

	// TensorFlow pays a per-label output cost: with hundreds of labels its
	// iterations are several times slower, so it completes far fewer
	// epochs in the same budget — the paper's delicious anomaly.
	tfCfg := core.NewConfig(core.AlgTensorFlow, p.Net, p.Dataset, p.Scale.Preset)
	tfCfg.BaseLR = lr
	tfRes, err := core.RunSim(ctx, tfCfg, horizon)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("tensorflow:", tfRes)
	fmt.Printf("\nepochs in the same budget: adaptive %.1f, gpu %.1f, tensorflow %.1f\n",
		res.Epochs, gpuRes.Epochs, tfRes.Epochs)
	fmt.Printf("tensorflow slowdown vs gpu-only: %.1f× fewer epochs\n",
		gpuRes.Epochs/tfRes.Epochs)

	// Precision@1 — the standard extreme-classification metric.
	ws := p.Net.NewWorkspace(p.Dataset.N())
	fmt.Printf("adaptive P@1 on training data: %.2f\n",
		p.Net.PrecisionAtKX(res.Params, ws, p.Dataset.Input(), p.Dataset.Y, 1, 1))
}

func avgLabels(p *experiments.Problem) float64 {
	total := 0
	for _, ls := range p.Dataset.Y.Multi {
		total += len(ls)
	}
	return float64(total) / float64(p.Dataset.N())
}
