// Live-engine demo: the same coordinator/worker framework running on real
// goroutines and the wall clock (the paper's pthreads architecture), with
// the dataset round-tripped through LIBSVM files as the real datasets
// would be.
//
//	go run ./examples/realengine
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"heterosgd/internal/core"
	"heterosgd/internal/data"
	"heterosgd/internal/metrics"
	"heterosgd/internal/nn"
	"heterosgd/internal/tensor"
)

func main() {
	// Generate w8a-shaped data and write it to disk in LIBSVM format.
	spec := data.W8a.Scaled(0.01)
	spec.HiddenUnits = 32
	spec.HiddenLayers = 3
	generated := data.Generate(spec, 7)
	dir, err := os.MkdirTemp("", "heterosgd")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "w8a.libsvm")
	if err := data.WriteLIBSVMFile(path, generated); err != nil {
		log.Fatal(err)
	}

	// Load it back the way a user would load the real file.
	ds, err := data.ReadLIBSVMFile(path, data.LIBSVMOptions{Dim: spec.Dim, Name: "w8a"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("loaded:", ds)

	net := nn.MustNetwork(nn.Arch{
		InputDim:   ds.Dim(),
		Hidden:     []int{32, 32, 32},
		OutputDim:  ds.NumClasses,
		Activation: nn.ActSigmoid,
	})

	// CPU+GPU Hogbatch on live goroutines: an 8-thread Hogwild CPU worker
	// and a large-batch deep-replica worker updating one shared model.
	cfg := core.NewConfig(core.AlgCPUGPUHogbatch, net, ds, core.Preset{
		CPUThreads: 8, CPUMinPerThread: 1, CPUMaxPerThread: 16,
		GPUMin: 64, GPUMax: 128,
	})
	cfg.BaseLR = 0.05
	// UpdateLocked serializes shared-model access (race-detector clean);
	// switch to tensor.UpdateAtomic or tensor.UpdateRacy for lock-free
	// Hogwild exactly as in the paper.
	cfg.UpdateMode = tensor.UpdateLocked

	// Ctrl-C interrupts gracefully: the coordinator stops scheduling,
	// drains in-flight batches, and returns the partial result.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := core.RunReal(ctx, cfg, 2*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	if res.Interrupted {
		fmt.Println("interrupted — partial result:")
	}
	fmt.Println(res)
	for worker, n := range res.Updates {
		fmt.Printf("  %-6s %8d updates, mean utilization %.0f%%\n",
			worker, n, 100*metrics.MeanUtilization(res.Utilization[worker], res.Duration))
	}

	ws := net.NewWorkspace(ds.N())
	fmt.Printf("training accuracy after %v: %.1f%%\n",
		res.Duration.Round(time.Millisecond),
		100*net.AccuracyX(res.Params, ws, ds.Input(), ds.Y, 1))
}
