// Quickstart: train a deep MLP with Adaptive Hogbatch on a heterogeneous
// (simulated) CPU+GPU machine in ~20 lines.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"heterosgd/internal/core"
	"heterosgd/internal/data"
	"heterosgd/internal/nn"
)

func main() {
	ctx := context.Background()
	// A covtype-shaped synthetic dataset at 1/250 scale (the real file
	// drops in via data.ReadLIBSVMFile).
	spec := data.Covtype.Scaled(0.004)
	spec.HiddenUnits = 64
	dataset := data.Generate(spec, 1)
	network := nn.MustNetwork(spec.Arch())
	fmt.Println(dataset)
	fmt.Println("network:", network.Arch)

	// Adaptive Hogbatch (Algorithm 2): a 56-thread CPU worker running
	// Hogwild-style small batches plus a V100-modelled GPU worker running
	// large batches, batch sizes rebalanced from live update counts.
	cfg := core.NewConfig(core.AlgAdaptiveHogbatch, network, dataset, core.Preset{
		CPUThreads: 56, CPUMinPerThread: 1, CPUMaxPerThread: 64,
		GPUMin: 128, GPUMax: 512,
	})
	cfg.BaseLR = 0.05

	res, err := core.RunSim(ctx, cfg, 20*time.Millisecond) // 20ms of V100 time
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(res)
	fmt.Printf("CPU performed %.0f%% of the model updates\n", 100*res.CPUShare())
	fmt.Printf("batch sizes converged to %v\n", res.FinalBatch)

	// The trained parameters are ordinary nn.Params:
	ws := network.NewWorkspace(dataset.N())
	acc := network.AccuracyX(res.Params, ws, dataset.Input(), dataset.Y, 1)
	fmt.Printf("training accuracy: %.1f%%\n", 100*acc)
}
