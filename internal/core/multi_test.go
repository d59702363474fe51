package core

import (
	"context"
	"reflect"
	"testing"

	"heterosgd/internal/device"
	"heterosgd/internal/nn"
	"heterosgd/internal/tensor"
)

func TestNewMultiConfigTopologies(t *testing.T) {
	base := tinyConfig(t, AlgAdaptiveHogbatch)
	cases := []struct{ cpus, gpus int }{{1, 1}, {2, 2}, {4, 1}, {0, 2}, {2, 0}}
	for _, c := range cases {
		cfg, err := NewMultiConfig(AlgAdaptiveHogbatch, base.Net, base.Dataset, tinyPreset(), c.cpus, c.gpus)
		if err != nil {
			t.Fatalf("%d+%d: %v", c.cpus, c.gpus, err)
		}
		if len(cfg.Workers) != c.cpus+c.gpus {
			t.Fatalf("%d+%d: %d workers", c.cpus, c.gpus, len(cfg.Workers))
		}
		names := map[string]bool{}
		for _, w := range cfg.Workers {
			name := w.Device.Name()
			if names[name] {
				t.Fatalf("duplicate device name %s", name)
			}
			names[name] = true
		}
	}
	if _, err := NewMultiConfig(AlgAdaptiveHogbatch, base.Net, base.Dataset, tinyPreset(), 0, 0); err == nil {
		t.Fatal("empty topology must fail")
	}
}

// TestNewMultiConfigKeepsNewConfigDefaults: a multi-device topology differs
// from NewConfig's only in its workers, so every algorithm validates on one
// CPU and one GPU with the consistency-mode defaults intact, and the
// evaluation device is the GPU worker's own. Where NewConfig itself builds
// one CPU and one GPU worker, the topology's workers are NewConfig's; and a
// comparator's device model carries over to every GPU.
func TestNewMultiConfigKeepsNewConfigDefaults(t *testing.T) {
	base := tinyConfig(t, AlgAdaptiveHogbatch)
	for _, name := range AlgorithmNames() {
		alg, err := ParseAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		want := NewConfig(alg, base.Net, base.Dataset, tinyPreset())
		got, err := NewMultiConfig(alg, base.Net, base.Dataset, tinyPreset(), 1, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.StalenessBound != want.StalenessBound || got.LocalSteps != want.LocalSteps ||
			got.DCLambda != want.DCLambda || got.BaseLR != want.BaseLR || got.EvalSubset != want.EvalSubset {
			t.Fatalf("%s: multi config %+v drifted from NewConfig's defaults %+v", name, got, want)
		}
		if got.EvalDevice == nil || got.EvalDevice != got.Workers[1].Device {
			t.Fatalf("%s: eval device %v is not the GPU worker's", name, got.EvalDevice)
		}
		if len(want.Workers) == 2 && !reflect.DeepEqual(got.Workers, want.Workers) {
			t.Fatalf("%s: multi workers %+v, NewConfig's %+v", name, got.Workers, want.Workers)
		}
	}
	tf := NewConfig(AlgTensorFlow, base.Net, base.Dataset, tinyPreset())
	twoTF, err := NewMultiConfig(AlgTensorFlow, base.Net, base.Dataset, tinyPreset(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := tf.Workers[0].Device.IterTime(base.Net.Arch, 128, 0)
	for _, w := range twoTF.Workers {
		if got := w.Device.IterTime(base.Net.Arch, 128, 0); got != want {
			t.Fatalf("tf at (0,2): %s takes %v per 128-row iteration, the comparator %v", w.Device.Name(), got, want)
		}
	}
	cpuOnly, err := NewMultiConfig(AlgHogbatchCPU, base.Net, base.Dataset, tinyPreset(), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cpuOnly.EvalDevice != nil {
		t.Fatalf("CPU-only topology has eval device %v", cpuOnly.EvalDevice)
	}
}

func TestMultiConfigSplitsCPUThreads(t *testing.T) {
	base := tinyConfig(t, AlgAdaptiveHogbatch)
	cfg, err := NewMultiConfig(AlgCPUGPUHogbatch, base.Net, base.Dataset, tinyPreset(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, w := range cfg.Workers {
		if w.Device.Kind() == device.KindCPU {
			total += w.Threads
		}
	}
	if total != tinyPreset().CPUThreads {
		t.Fatalf("threads split to %d, want %d total", total, tinyPreset().CPUThreads)
	}
}

func TestMultiGPUSimRunAllWorkersContribute(t *testing.T) {
	base := tinyConfig(t, AlgAdaptiveHogbatch)
	cfg, err := NewMultiConfig(AlgCPUGPUHogbatch, base.Net, base.Dataset, tinyPreset(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BaseLR = 0.1
	cfg.RefBatch = 4
	cfg.EvalSubset = 256
	res, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Updates
	for _, name := range []string{"cpu0", "cpu1", "gpu0", "gpu1"} {
		if snap[name] == 0 {
			t.Fatalf("worker %s never updated (counts %v)", name, snap)
		}
	}
	if res.FinalLoss >= res.Trace.Points[0].Loss*0.8 {
		t.Fatal("multi-worker run failed to learn")
	}
}

func TestMultiGPUAdaptiveBoundsHoldManyWorkers(t *testing.T) {
	base := tinyConfig(t, AlgAdaptiveHogbatch)
	cfg, err := NewMultiConfig(AlgAdaptiveHogbatch, base.Net, base.Dataset, tinyPreset(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BaseLR = 0.1
	cfg.EvalSubset = 256
	res, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range cfg.Workers {
		if res.FinalBatch[i] < w.MinBatch || res.FinalBatch[i] > w.MaxBatch {
			t.Fatalf("worker %d batch %d outside [%d,%d]", i, res.FinalBatch[i], w.MinBatch, w.MaxBatch)
		}
	}
}

func TestMoreGPUsProcessMoreExamples(t *testing.T) {
	// The future-work scaling claim: adding GPU workers increases
	// throughput in the same virtual time.
	base := tinyConfig(t, AlgHogbatchGPU)
	one, err := NewMultiConfig(AlgHogbatchGPU, base.Net, base.Dataset, tinyPreset(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	two, err := NewMultiConfig(AlgHogbatchGPU, base.Net, base.Dataset, tinyPreset(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []*Config{&one, &two} {
		cfg.BaseLR = 0.1
		cfg.EvalSubset = 256
	}
	r1, err := RunSim(context.Background(), one, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSim(context.Background(), two, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if r2.ExamplesProcessed <= r1.ExamplesProcessed {
		t.Fatalf("2 GPUs processed %d ≤ 1 GPU's %d", r2.ExamplesProcessed, r1.ExamplesProcessed)
	}
}

func TestMultiGPURealEngine(t *testing.T) {
	base := tinyConfig(t, AlgCPUGPUHogbatch)
	cfg, err := NewMultiConfig(AlgCPUGPUHogbatch, base.Net, base.Dataset, tinyPreset(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BaseLR = 0.1
	cfg.EvalSubset = 256
	cfg.UpdateMode = tensor.UpdateLocked
	res, err := RunReal(context.Background(), cfg, realBudget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates["gpu1"] == 0 {
		t.Fatal("second GPU idle in real engine")
	}
}

func TestGPUMemoryCheck(t *testing.T) {
	base := tinyConfig(t, AlgHogbatchGPU)
	w := base.Workers[0]
	if err := GPUMemoryCheck(base.Net, w); err != nil {
		t.Fatalf("tiny net must fit: %v", err)
	}
	// A monstrous batch on a wide net must exceed 16 GB.
	wide := nn.MustNetwork(nn.Arch{InputDim: 50000, Hidden: []int{8192, 8192}, OutputDim: 1000, Activation: nn.ActSigmoid})
	w.MaxBatch = 1 << 20
	if err := GPUMemoryCheck(wide, w); err == nil {
		t.Fatal("expected memory-capacity error")
	}
	// CPU workers are exempt.
	cpuW := tinyConfig(t, AlgHogbatchCPU).Workers[0]
	if err := GPUMemoryCheck(wide, cpuW); err != nil {
		t.Fatal("CPU workers have no GPU memory bound")
	}
}
