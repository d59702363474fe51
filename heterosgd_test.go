package heterosgd

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"heterosgd/internal/data"
	"heterosgd/internal/nn"
	"heterosgd/internal/tensor"
)

// facadeProblem builds a tiny problem through the public facade only.
func facadeProblem(t *testing.T) (*Network, *Dataset) {
	t.Helper()
	spec := SynthSpec{
		Name: "tiny", N: 512, Dim: 10, Classes: 2,
		Density: 1.0, Separation: 2.5, Noise: 0.5,
		HiddenLayers: 2, HiddenUnits: 16,
	}
	return MustNetwork(spec.Arch()), Generate(spec, 42)
}

func facadePreset() Preset {
	return Preset{CPUThreads: 4, CPUMinPerThread: 1, CPUMaxPerThread: 8, GPUMin: 32, GPUMax: 128}
}

func TestFacadeEndToEndSim(t *testing.T) {
	net, ds := facadeProblem(t)
	cfg := NewConfig(AlgAdaptiveHogbatch, net, ds, facadePreset())
	cfg.BaseLR = 0.1
	cfg.RefBatch = 4
	cfg.EvalSubset = 256
	res, err := RunSim(context.Background(), cfg, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss >= res.Trace.Points[0].Loss*0.5 {
		t.Fatalf("facade run failed to learn: %v → %v", res.Trace.Points[0].Loss, res.FinalLoss)
	}
	// Figure 7 through the facade: the GPU's busy intervals bin to a
	// utilization in (0, 1].
	busy := res.Utilization["gpu0"]
	if m := MeanUtilization(busy, res.Duration); m <= 0 || m > 1 {
		t.Fatalf("gpu0 mean utilization %v", m)
	}
	if s := UtilizationSeries(busy, res.Duration, res.Duration/4); len(s) != 4 {
		t.Fatalf("gpu0 series %v, want 4 bins", s)
	}
}

func TestFacadeEndToEndReal(t *testing.T) {
	net, ds := facadeProblem(t)
	cfg := NewConfig(AlgCPUGPUHogbatch, net, ds, facadePreset())
	cfg.BaseLR = 0.1
	cfg.RefBatch = 4
	cfg.EvalSubset = 256
	cfg.UpdateMode = tensor.UpdateLocked
	res, err := RunReal(context.Background(), cfg, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalUpdates() == 0 {
		t.Fatal("no updates through the facade real engine")
	}
}

// facadeComparator runs one of the §II/§VII comparators the way every other
// algorithm runs: a NewConfig on the simulated engine.
func facadeComparator(t *testing.T, alg Algorithm) {
	t.Helper()
	net, ds := facadeProblem(t)
	cfg := NewConfig(alg, net, ds, facadePreset())
	cfg.BaseLR = 0.1
	cfg.EvalSubset = 256
	res, err := RunSim(context.Background(), cfg, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != alg || res.Trace.Name != alg.String() {
		t.Fatalf("labels %v %q", res.Algorithm, res.Trace.Name)
	}
	if res.FinalLoss >= res.Trace.Points[0].Loss {
		t.Fatalf("%v did not learn: %v → %v", alg, res.Trace.Points[0].Loss, res.FinalLoss)
	}
}

func TestFacadeTensorFlowBaseline(t *testing.T) { facadeComparator(t, AlgTensorFlow) }

func TestFacadeParseAlgorithm(t *testing.T) {
	alg, err := ParseAlgorithm("adaptive")
	if err != nil || alg != AlgAdaptiveHogbatch {
		t.Fatalf("ParseAlgorithm: %v %v", alg, err)
	}
}

func TestFacadeLIBSVMRoundTrip(t *testing.T) {
	_, ds := facadeProblem(t)
	path := filepath.Join(t.TempDir(), "tiny.libsvm")
	// The facade doesn't re-export WriteLIBSVMFile (read-side suffices for
	// users); use the internal writer to produce the fixture.
	if err := writeFixture(path, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLIBSVMFile(path, LIBSVMOptions{Dim: ds.Dim(), NumClasses: ds.NumClasses})
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != ds.N() {
		t.Fatalf("round trip N %d vs %d", back.N(), ds.N())
	}
}

func TestFacadeSpecsMatchPaper(t *testing.T) {
	if CovtypeSpec.N != 581012 || W8aSpec.Dim != 300 || DeliciousSpec.Classes != 983 || RealSimSpec.Dim != 20958 {
		t.Fatal("dataset specs drifted from Table II")
	}
	if DefaultPreset().GPUMax != 8192 {
		t.Fatal("preset drifted from §VII-A")
	}
}

func TestFacadeRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("facade RNG not deterministic per seed")
		}
	}
}

func TestFacadeCheckpointInterop(t *testing.T) {
	// Params trained through the facade serialize/load via nn.
	net, ds := facadeProblem(t)
	cfg := NewConfig(AlgHogbatchGPU, net, ds, facadePreset())
	cfg.BaseLR = 0.1
	cfg.EvalSubset = 256
	res, err := RunSim(context.Background(), cfg, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.hgm")
	if err := nn.SaveParamsFile(path, res.Params); err != nil {
		t.Fatal(err)
	}
	back, err := nn.LoadParamsFile(path, net)
	if err != nil {
		t.Fatal(err)
	}
	if res.Params.MaxAbsDiff(back) != 0 {
		t.Fatal("checkpoint round trip changed the model")
	}
}

// writeFixture emits ds in LIBSVM format (test helper).
func writeFixture(path string, ds *Dataset) error {
	return data.WriteLIBSVMFile(path, ds)
}

func TestFacadeSVRGAndMulti(t *testing.T) {
	net, ds := facadeProblem(t)
	cfg := NewConfig(AlgSVRG, net, ds, facadePreset())
	cfg.BaseLR = 0.1
	cfg.RefBatch = 4
	cfg.EvalSubset = 256
	res, err := RunSim(context.Background(), cfg, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss >= res.Trace.Points[0].Loss {
		t.Fatal("facade SVRG failed to learn")
	}

	multi, err := NewMultiConfig(AlgCPUGPUHogbatch, net, ds, facadePreset(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	multi.BaseLR = 0.1
	multi.EvalSubset = 256
	if _, err := RunSim(context.Background(), multi, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeOmnivore(t *testing.T) { facadeComparator(t, AlgOmnivore) }

func TestFacadeModelIO(t *testing.T) {
	net, ds := facadeProblem(t)
	cfg := NewConfig(AlgHogbatchGPU, net, ds, facadePreset())
	cfg.BaseLR = 0.1
	cfg.EvalSubset = 256
	res, err := RunSim(context.Background(), cfg, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "facade.hgm")
	if err := SaveModel(path, res.Params); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(path, net)
	if err != nil {
		t.Fatal(err)
	}
	resume := NewConfig(AlgHogbatchGPU, net, ds, facadePreset())
	resume.BaseLR = 0.1
	resume.EvalSubset = 256
	resume.InitialParams = back
	res2, err := RunSim(context.Background(), resume, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Trace.Points[0].Loss >= res.Trace.Points[0].Loss {
		t.Fatal("warm start through facade ineffective")
	}
}
