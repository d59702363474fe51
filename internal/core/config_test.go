package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"heterosgd/internal/data"
	"heterosgd/internal/device"
	"heterosgd/internal/nn"
)

// tinySpec is a fast, separable synthetic problem for engine tests.
func tinySpec() data.SynthSpec {
	return data.SynthSpec{
		Name: "tiny", N: 512, Dim: 10, Classes: 2,
		Density: 1.0, Separation: 2.5, Noise: 0.5,
		HiddenLayers: 2, HiddenUnits: 16,
	}
}

// tinyPreset shrinks the paper's thresholds so tests run in milliseconds.
func tinyPreset() Preset {
	return Preset{CPUThreads: 4, CPUMinPerThread: 1, CPUMaxPerThread: 8, GPUMin: 32, GPUMax: 128}
}

func tinyConfig(t *testing.T, alg Algorithm) Config {
	t.Helper()
	spec := tinySpec()
	ds := data.Generate(spec, 42)
	net := nn.MustNetwork(spec.Arch())
	cfg := NewConfig(alg, net, ds, tinyPreset())
	cfg.BaseLR = 0.1
	cfg.RefBatch = 4
	cfg.EvalSubset = 256
	return cfg
}

func TestAlgorithmNamesAndParsing(t *testing.T) {
	algs := []Algorithm{AlgHogbatchCPU, AlgHogbatchGPU, AlgCPUGPUHogbatch, AlgAdaptiveHogbatch, AlgMinibatchCPU}
	for _, a := range algs {
		if a.String() == "" || a.String() == "unknown" {
			t.Fatalf("bad name for %d", int(a))
		}
	}
	if Algorithm(99).String() != "unknown" {
		t.Fatal("unknown algorithm name")
	}
	for name, want := range map[string]Algorithm{
		"cpu": AlgHogbatchCPU, "hogwild": AlgHogbatchCPU,
		"gpu": AlgHogbatchGPU, "cpu+gpu": AlgCPUGPUHogbatch,
		"hybrid": AlgCPUGPUHogbatch, "adaptive": AlgAdaptiveHogbatch,
		"minibatch-cpu": AlgMinibatchCPU,
		"ssp":           AlgSSP, "localsgd": AlgLocalSGD, "local-sgd": AlgLocalSGD,
		"dcasgd": AlgDCASGD, "dc-asgd": AlgDCASGD,
	} {
		got, err := ParseAlgorithm(name)
		if err != nil || got != want {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestNewConfigPresets(t *testing.T) {
	spec := tinySpec()
	ds := data.Generate(spec, 1)
	net := nn.MustNetwork(spec.Arch())
	p := tinyPreset()

	cases := []struct {
		alg        Algorithm
		numWorkers int
	}{
		{AlgHogbatchCPU, 1},
		{AlgHogbatchGPU, 1},
		{AlgCPUGPUHogbatch, 2},
		{AlgAdaptiveHogbatch, 2},
		{AlgMinibatchCPU, 1},
	}
	for _, c := range cases {
		cfg := NewConfig(c.alg, net, ds, p)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%v: %v", c.alg, err)
		}
		if len(cfg.Workers) != c.numWorkers {
			t.Fatalf("%v: %d workers, want %d", c.alg, len(cfg.Workers), c.numWorkers)
		}
	}

	// Static algorithms pin batch sizes; adaptive spans the thresholds.
	static := NewConfig(AlgCPUGPUHogbatch, net, ds, p)
	for _, w := range static.Workers {
		if w.MinBatch != w.MaxBatch {
			t.Fatal("static algorithm must pin batch sizes")
		}
	}
	ad := NewConfig(AlgAdaptiveHogbatch, net, ds, p)
	cpuW, gpuW := ad.Workers[0], ad.Workers[1]
	if cpuW.MinBatch != p.CPUThreads*p.CPUMinPerThread || cpuW.MaxBatch != p.CPUThreads*p.CPUMaxPerThread {
		t.Fatalf("adaptive CPU range [%d,%d]", cpuW.MinBatch, cpuW.MaxBatch)
	}
	if gpuW.MinBatch != p.GPUMin || gpuW.MaxBatch != p.GPUMax {
		t.Fatalf("adaptive GPU range [%d,%d]", gpuW.MinBatch, gpuW.MaxBatch)
	}
	// §VII-A: CPU starts at the lower threshold (Hogwild), GPU at the upper.
	if cpuW.InitialBatch != cpuW.MinBatch || gpuW.InitialBatch != gpuW.MaxBatch {
		t.Fatal("adaptive initial batch sizes must sit at the thresholds")
	}
	// A GPU steps on a private copy because it has no CPU lanes, whatever
	// DeepReplica says (see laneStep.readsCopy).
	if cpuThreads(gpuW) != 0 {
		t.Fatal("GPU workers must read a private copy: no CPU lanes")
	}
}

func TestConfigValidationErrors(t *testing.T) {
	good := tinyConfig(t, AlgCPUGPUHogbatch)
	mutate := map[string]func(*Config){
		"no net":       func(c *Config) { c.Net = nil },
		"no dataset":   func(c *Config) { c.Dataset = nil },
		"no workers":   func(c *Config) { c.Workers = nil },
		"bad lr":       func(c *Config) { c.BaseLR = 0 },
		"bad alpha":    func(c *Config) { c.Alpha = 1 },
		"bad beta":     func(c *Config) { c.Beta = 0 },
		"beta over":    func(c *Config) { c.Beta = 1.5 },
		"nil device":   func(c *Config) { c.Workers[0].Device = nil },
		"batch range":  func(c *Config) { c.Workers[0].MinBatch = 10; c.Workers[0].MaxBatch = 5 },
		"init outside": func(c *Config) { c.Workers[0].InitialBatch = c.Workers[0].MaxBatch + 1 },
		"cpu threads":  func(c *Config) { c.Workers[0].Threads = 0 },
		"dim mismatch": func(c *Config) {
			c.Net = nn.MustNetwork(nn.Arch{InputDim: 99, OutputDim: 2, Activation: nn.ActSigmoid})
		},
	}
	for name, f := range mutate {
		cfg := tinyConfig(t, AlgCPUGPUHogbatch)
		cfg.Workers = append([]WorkerConfig(nil), good.Workers...)
		f(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("%s: expected validation error", name)
		}
	}
}

func TestLRForScaling(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.BaseLR = 0.1
	cfg.RefBatch = 64
	cfg.LRScaling = true
	cfg.LRScalingCap = 4
	if lr := cfg.LRFor(64); math.Abs(lr-0.1) > 1e-12 {
		t.Fatalf("LR at ref batch = %v", lr)
	}
	if lr := cfg.LRFor(128); math.Abs(lr-0.2) > 1e-12 {
		t.Fatalf("LR at 2×ref = %v", lr)
	}
	// Cap at 4×.
	if lr := cfg.LRFor(64 * 100); math.Abs(lr-0.4) > 1e-12 {
		t.Fatalf("capped LR = %v", lr)
	}
	// Tiny batches floor at BaseLR/RefBatch.
	if lr := cfg.LRFor(0); math.Abs(lr-0.1/64) > 1e-12 {
		t.Fatalf("floored LR = %v", lr)
	}
	cfg.LRScaling = false
	if lr := cfg.LRFor(8192); lr != 0.1 {
		t.Fatalf("scaling off should return BaseLR, got %v", lr)
	}
}

func TestDefaultPresetMatchesPaper(t *testing.T) {
	p := DefaultPreset()
	if p.CPUThreads != 56 {
		t.Fatalf("CPU threads %d, paper uses 56", p.CPUThreads)
	}
	if p.CPUMinPerThread != 1 || p.CPUMaxPerThread != 64 {
		t.Fatal("paper: CPU batch 1–64 examples per thread")
	}
	if p.GPUMax != 8192 {
		t.Fatal("paper: GPU batch up to 8192")
	}
	cpu := device.NewXeon("c", p.CPUThreads)
	if cpu.WorkerThreads != 56 {
		t.Fatal("device threads mismatch")
	}
}

// TestMechanismDecisionsLiveInConfig keeps "which algorithm uses which
// mechanism" in one file: outside config.go no non-test file may compare a
// .Algorithm with an Alg… constant or switch on one — it asks a Config
// property (rounds, sspGated, delayCompensated, …) instead, so a new algorithm
// is a row in config.go, not a branch in the coordinator.
func TestMechanismDecisionsLiveInConfig(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	isAlgorithm := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Algorithm"
	}
	isAlgConst := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && strings.HasPrefix(id.Name, "Alg")
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if name == "config.go" || strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if (n.Op == token.EQL || n.Op == token.NEQ) &&
					(isAlgorithm(n.X) && isAlgConst(n.Y) || isAlgConst(n.X) && isAlgorithm(n.Y)) {
					t.Errorf("%s compares .Algorithm with a constant; ask a Config property", fset.Position(n.Pos()))
				}
			case *ast.SwitchStmt:
				if n.Tag != nil && isAlgorithm(n.Tag) {
					t.Errorf("%s switches on .Algorithm; ask a Config property", fset.Position(n.Pos()))
				}
			}
			return true
		})
	}
}
