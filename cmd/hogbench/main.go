// Command hogbench regenerates the paper's tables and figures. Each
// experiment runs the relevant SGD algorithms through the simulated
// CPU+GPU engine and prints the same rows/series the paper reports.
//
// Usage:
//
//	hogbench -exp fig5 -dataset covtype -scale medium
//	hogbench -exp all -scale small
//	hogbench -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"heterosgd/internal/atomicio"
	"heterosgd/internal/cli"
	"heterosgd/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (table1, table2, fig5, fig6, fig7, fig8, ratio) or \"all\"")
		dataset = flag.String("dataset", "", "restrict to one dataset (covtype, w8a, delicious, real-sim)")
		scale   = flag.String("scale", "medium", "experiment fidelity: small, medium, full")
		seed    = flag.Uint64("seed", 1, "random seed for data generation and model init")
		list    = flag.Bool("list", false, "list experiments and exit")
		outDir  = flag.String("out", "", "also write each experiment's output to <out>/<exp>[_<dataset>]_<scale>.txt")
		bench   = flag.String("benchjson", "", "also write the JSON rows of the selected benchmark experiment (sparsebench, telbench or figelastic) to this path, e.g. results/BENCH_sparse.json")
	)
	var tel cli.Telemetry
	tel.Bind(flag.CommandLine)
	cli.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	if _, err := tel.Serve(); err != nil {
		cli.Fatal(err)
	}

	sc, err := experiments.ScaleByName(*scale)
	if err != nil {
		cli.Fatal(err)
	}
	// SIGINT/SIGTERM cancel the suite: the current run drains, the
	// experiment in flight is abandoned (partial figures would mislead),
	// and the process exits 0.
	ctx, stopSignals := cli.SignalContext()
	defer stopSignals()
	opts := experiments.Options{Scale: sc, Dataset: *dataset, Seed: *seed, BenchOut: *bench, Ctx: ctx}

	run := func(e experiments.Experiment) {
		fmt.Printf("=== %s — %s ===\n", e.ID, e.Title)
		start := time.Now()
		out, err := e.Run(opts)
		if err != nil {
			if errors.Is(err, ctx.Err()) || ctx.Err() != nil {
				fmt.Printf("interrupted during %s; stopping\n", e.ID)
				os.Exit(0)
			}
			cli.Fatal(err)
		}
		fmt.Println(out)
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if *outDir != "" {
			name := e.ID
			if *dataset != "" {
				name += "_" + *dataset
			}
			path := filepath.Join(*outDir, name+"_"+*scale+".txt")
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				cli.Fatal(err)
			}
			if err := atomicio.WriteFile(path, []byte(out), 0o644); err != nil {
				cli.Fatal(err)
			}
			fmt.Printf("(written to %s)\n", path)
		}
	}

	if *exp == "all" {
		if *bench != "" {
			cli.Fatal(errors.New("-benchjson names one file: select the experiment it archives with -exp"))
		}
		for _, e := range experiments.All() {
			run(e)
		}
		return
	}
	e, err := experiments.ByID(*exp)
	if err != nil {
		cli.Fatal(err)
	}
	run(e)
}
