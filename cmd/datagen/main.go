// Command datagen emits the shape-matched synthetic datasets (Table II) in
// LIBSVM format, so they can be inspected, reused, or swapped for the real
// files when those are available.
//
// Usage:
//
//	datagen -dataset covtype -scale 0.01 -o covtype.libsvm
//	datagen -dataset delicious -scale 0.05 -seed 7 -o delicious.libsvm
package main

import (
	"flag"
	"fmt"

	"heterosgd/internal/cli"
	"heterosgd/internal/data"
)

func main() {
	var (
		dsName = flag.String("dataset", "covtype", "dataset shape: covtype, w8a, delicious, real-sim")
		scale  = flag.Float64("scale", 0.01, "fraction of the full dataset size to generate (0, 1]")
		seed   = flag.Uint64("seed", 1, "generator seed")
		out    = flag.String("o", "", "output path (default <dataset>.libsvm)")
		info   = flag.Bool("info", false, "print dataset characteristics instead of generating")
	)
	cli.Parse()

	spec, err := data.SpecByName(*dsName)
	if err != nil {
		cli.Fatal(err)
	}
	if *info {
		for _, s := range data.AllSpecs() {
			fmt.Printf("%-12s %8d examples %6d dims %5d classes  density %.4f  DNN %d×%d\n",
				s.Name, s.N, s.Dim, s.Classes, s.Density, s.HiddenLayers, s.HiddenUnits)
		}
		return
	}

	scaled := spec.Scaled(*scale)
	ds := data.Generate(scaled, *seed)
	path := *out
	if path == "" {
		path = spec.Name + ".libsvm"
	}
	if err := data.WriteLIBSVMFile(path, ds); err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("wrote %s: %s\n", path, ds)
}
