// An external test package: core builds its TensorFlow configuration from this
// package, so the tests that run one import core from outside it.
package tfbaseline_test

import (
	"context"
	"testing"
	"time"

	"heterosgd/internal/core"
	"heterosgd/internal/data"
	"heterosgd/internal/device"
	"heterosgd/internal/nn"
	"heterosgd/internal/tfbaseline"
)

func tinyProblem() (*nn.Network, *data.Dataset) {
	spec := data.SynthSpec{
		Name: "tiny", N: 512, Dim: 10, Classes: 2,
		Density: 1.0, Separation: 2.5, Noise: 0.5,
		HiddenLayers: 2, HiddenUnits: 16,
	}
	return nn.MustNetwork(spec.Arch()), data.Generate(spec, 42)
}

var tinyPreset = core.Preset{CPUThreads: 4, CPUMinPerThread: 1, CPUMaxPerThread: 8, GPUMin: 128, GPUMax: 128}

func tinyConfig(alg core.Algorithm, net *nn.Network, ds *data.Dataset) core.Config {
	cfg := core.NewConfig(alg, net, ds, tinyPreset)
	cfg.BaseLR = 0.01
	cfg.EvalSubset = 256
	return cfg
}

func paperDevice() *tfbaseline.Device {
	return tfbaseline.NewDevice(device.NewV100("gpu0"), device.NewXeon("cpu0", 56))
}

func TestBuildGraphStructure(t *testing.T) {
	arch := nn.Arch{InputDim: 10, Hidden: []int{16, 16}, OutputDim: 2, Activation: nn.ActSigmoid}
	ops := tfbaseline.BuildGraph(arch, 64)
	// 3 weight layers: fwd 3 matmul + 3 bias + 2 act; 1 loss; bwd 3 dW +
	// 3 db + 2 dX + 2 actgrad + 3 apply = 22 ops.
	if len(ops) != 22 {
		t.Fatalf("%d ops, want 22", len(ops))
	}
	for _, op := range ops {
		if op.Flops <= 0 || op.OutputBytes <= 0 {
			t.Fatalf("op %s has degenerate cost %v/%v", op.Name, op.Flops, op.OutputBytes)
		}
	}
	if ops[0].Name != "fwd_matmul_0" {
		t.Fatalf("first op %s", ops[0].Name)
	}
	last := ops[len(ops)-1]
	if last.Name != "apply_0" {
		t.Fatalf("last op %s", last.Name)
	}
}

func TestScheduleGraphAssignsEveryOp(t *testing.T) {
	net, _ := tinyProblem()
	ops := tfbaseline.BuildGraph(net.Arch, 128)
	total := paperDevice().ScheduleGraph(ops, 128)
	if total <= 0 {
		t.Fatal("zero iteration time")
	}
	var sum time.Duration
	for _, op := range ops {
		if op.Cost <= 0 {
			t.Fatalf("op %s has no cost", op.Name)
		}
		sum += op.Cost
	}
	if sum != total {
		t.Fatal("op costs do not sum to the iteration total")
	}
}

func TestLargeBatchGraphStaysOnGPU(t *testing.T) {
	// At the paper's batch 8192 on the full covtype net, every matmul must
	// land on the GPU — that is why TF ≈ Hogbatch GPU.
	arch := data.Covtype.Arch()
	ops := tfbaseline.BuildGraph(arch, 8192)
	paperDevice().ScheduleGraph(ops, 8192)
	for _, op := range ops {
		if len(op.Name) > 9 && op.Name[:9] == "fwd_matmu" && op.Placement != tfbaseline.PlaceGPU {
			t.Fatalf("op %s placed on CPU at batch 8192", op.Name)
		}
	}
}

func TestMultiLabelPenaltySlowsIterations(t *testing.T) {
	// delicious-shaped: 983 labels make TF iterations far slower than the
	// same-sized multiclass net (the paper's anomaly).
	ml := nn.Arch{InputDim: 500, Hidden: []int{512}, OutputDim: 983, Activation: nn.ActSigmoid, MultiLabel: true}
	mc := ml
	mc.MultiLabel = false
	dev := paperDevice()
	tML, tMC := dev.IterTime(ml, 8192, 0), dev.IterTime(mc, 8192, 0)
	if float64(tML) < 1.5*float64(tMC) {
		t.Fatalf("multi-label iteration %v not much slower than multiclass %v", tML, tMC)
	}
}

// TestIterTimePinned holds the device to the iteration times the comparator's
// private training loop charged before it became a device model: the paper's
// covtype and delicious networks at the GPU batch thresholds.
func TestIterTimePinned(t *testing.T) {
	dev := paperDevice()
	for _, c := range []struct {
		spec  data.SynthSpec
		batch int
		want  time.Duration
	}{
		{data.Covtype, 512, 938559},
		{data.Covtype, 8192, 5608228},
		{data.Delicious, 512, 5637713},
		{data.Delicious, 8192, 75460012},
	} {
		arch := c.spec.Arch()
		if got := dev.IterTime(arch, c.batch, int64(arch.NumParameters())*8); got != c.want {
			t.Errorf("%s at batch %d: IterTime %d ns, want %d", c.spec.Name, c.batch, got, c.want)
		}
	}
}

func TestRunConverges(t *testing.T) {
	net, ds := tinyProblem()
	res, err := core.RunSim(context.Background(), tinyConfig(core.AlgTensorFlow, net, ds), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != core.AlgTensorFlow || res.Trace.Name != "TensorFlow" {
		t.Fatalf("labels %v %q", res.Algorithm, res.Trace.Name)
	}
	first := res.Trace.Points[0].Loss
	if res.FinalLoss >= first*0.8 {
		t.Fatalf("loss %v → %v did not drop", first, res.FinalLoss)
	}
	if res.Epochs <= 0 || res.TotalUpdates() == 0 {
		t.Fatal("no work recorded")
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	net, ds := tinyProblem()
	cfg := tinyConfig(core.AlgTensorFlow, net, ds)
	cfg.BaseLR = -1
	if _, err := core.RunSim(context.Background(), cfg, time.Millisecond); err == nil {
		t.Fatal("expected error")
	}
}

// TestTFMatchesHogbatchGPUPerEpoch is the paper's Figure 6: TF and Hogbatch
// GPU have overlapping statistical-efficiency curves. They are one worker on
// two devices, so at the same seed the per-epoch losses are the same floats —
// with LR scaling on and a dataset whose last batch of each epoch is partial,
// the case two training loops would scale differently — while every TF epoch
// takes longer.
func TestTFMatchesHogbatchGPUPerEpoch(t *testing.T) {
	net, ds := tinyProblem()
	ds = ds.Subset(500) // 3 batches of 128 and a tail of 116
	run := func(alg core.Algorithm) []float64 {
		cfg := tinyConfig(alg, net, ds)
		if !cfg.LRScaling || ds.N()%cfg.Workers[0].InitialBatch == 0 {
			t.Fatal("the comparison needs LR scaling on and a partial tail batch")
		}
		res, err := core.RunSim(context.Background(), cfg, 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		var losses []float64
		for _, p := range res.Trace.Points[:len(res.Trace.Points)-1] {
			losses = append(losses, p.Loss)
		}
		return losses
	}
	tf, gpu := run(core.AlgTensorFlow), run(core.AlgHogbatchGPU)
	if len(tf) < 3 {
		t.Fatalf("too few TF epochs to compare: %d", len(tf)-1)
	}
	if len(tf) >= len(gpu) {
		t.Fatalf("TF completed %d epochs in the time Hogbatch GPU completed %d; its iterations must cost more", len(tf)-1, len(gpu)-1)
	}
	for e, loss := range tf {
		if loss != gpu[e] {
			t.Fatalf("epoch %d: tf loss %v, gpu loss %v — not bit-equal", e, loss, gpu[e])
		}
	}
}
