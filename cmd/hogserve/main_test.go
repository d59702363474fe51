package main

import (
	"reflect"
	"testing"
	"time"

	"heterosgd/internal/cli"
	"heterosgd/internal/core"
	"heterosgd/internal/serve"
	"heterosgd/internal/tensor"
)

// TestSoakTrainsWhatTrainTrains: the soak's training run is the one -train
// attaches — the same algorithm, learning rate, seed and update mode, on the
// scale's own batch thresholds rather than the clamped ones the built
// problem keeps. For covtype/small the GPU ceiling is 512 on the one and 256
// on the other, so a soak on the clamped preset fails here.
func TestSoakTrainsWhatTrainTrains(t *testing.T) {
	prob := cli.DefaultProblem()
	p, err := prob.Build()
	if err != nil {
		t.Fatal(err)
	}
	pub := serve.NewPublisher(p.Net)
	// runSoak's call, with -soak's flag defaults.
	soak, err := trainConfig(prob, p, "cpu+gpu", pub, 100*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	// What -train runs: its flag defaults on the scale's own preset.
	sc, err := prob.Fidelity()
	if err != nil {
		t.Fatal(err)
	}
	train := core.NewConfig(core.AlgCPUGPUHogbatch, p.Net, p.Dataset, sc.Preset)
	train.BaseLR, train.Seed, train.UpdateMode = 0.05, prob.Seed, tensor.UpdateLocked

	if soak.Algorithm != train.Algorithm || soak.BaseLR != train.BaseLR ||
		soak.Seed != train.Seed || soak.UpdateMode != train.UpdateMode {
		t.Errorf("soak trains %v lr %v seed %d mode %v, -train %v lr %v seed %d mode %v",
			soak.Algorithm, soak.BaseLR, soak.Seed, soak.UpdateMode,
			train.Algorithm, train.BaseLR, train.Seed, train.UpdateMode)
	}
	if !reflect.DeepEqual(soak.Workers, train.Workers) {
		t.Errorf("soak workers %+v, -train workers %+v", soak.Workers, train.Workers)
	}
	if sc.Preset.GPUMax == p.Scale.Preset.GPUMax {
		t.Fatalf("the scale's GPU ceiling %d equals the clamped one: the check above proves nothing", sc.Preset.GPUMax)
	}
}
