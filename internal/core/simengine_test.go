package core

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"heterosgd/internal/data"
	"heterosgd/internal/nn"
	"heterosgd/internal/tensor"
)

// simHorizon is long enough for several epochs of the tiny problem on every
// algorithm's virtual clock.
const simHorizon = 20 * time.Millisecond

func TestSimAllAlgorithmsReduceLoss(t *testing.T) {
	for _, alg := range []Algorithm{AlgHogbatchCPU, AlgHogbatchGPU, AlgCPUGPUHogbatch, AlgAdaptiveHogbatch, AlgMinibatchCPU, AlgSSP, AlgLocalSGD, AlgDCASGD} {
		cfg := tinyConfig(t, alg)
		res, err := RunSim(context.Background(), cfg, simHorizon)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		first := res.Trace.Points[0].Loss
		if res.FinalLoss >= first*0.8 {
			t.Fatalf("%v: loss %v → %v did not drop 20%%", alg, first, res.FinalLoss)
		}
		if res.Epochs <= 0 {
			t.Fatalf("%v: no epochs completed", alg)
		}
		if res.ExamplesProcessed == 0 || res.Updates.Total() == 0 {
			t.Fatalf("%v: no work recorded", alg)
		}
	}
}

func TestSimDeterministicPerSeed(t *testing.T) {
	cfg1 := tinyConfig(t, AlgAdaptiveHogbatch)
	cfg2 := tinyConfig(t, AlgAdaptiveHogbatch)
	r1, err1 := RunSim(context.Background(), cfg1, simHorizon)
	r2, err2 := RunSim(context.Background(), cfg2, simHorizon)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(r1.Trace.Points) != len(r2.Trace.Points) {
		t.Fatalf("trace lengths differ: %d vs %d", len(r1.Trace.Points), len(r2.Trace.Points))
	}
	for i := range r1.Trace.Points {
		if r1.Trace.Points[i] != r2.Trace.Points[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, r1.Trace.Points[i], r2.Trace.Points[i])
		}
	}
	if r1.Updates.Total() != r2.Updates.Total() {
		t.Fatal("update totals differ between identical runs")
	}

	cfg3 := tinyConfig(t, AlgAdaptiveHogbatch)
	cfg3.Seed = 999
	r3, _ := RunSim(context.Background(), cfg3, simHorizon)
	if r3.FinalLoss == r1.FinalLoss {
		t.Fatal("different seeds produced identical losses (suspicious)")
	}
}

func TestSimTraceTimestampsMonotonic(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.SampleEvery = simHorizon / 20
	res, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Points) < 5 {
		t.Fatalf("only %d trace points", len(res.Trace.Points))
	}
	prev := time.Duration(-1)
	for _, p := range res.Trace.Points {
		if p.Time < prev {
			t.Fatalf("timestamps regress: %v after %v", p.Time, prev)
		}
		prev = p.Time
		if p.Time > simHorizon {
			t.Fatalf("trace point at %v beyond horizon %v (eval time must be excluded)", p.Time, simHorizon)
		}
	}
}

func TestSimUpdateDistribution(t *testing.T) {
	// CPU+GPU Hogbatch: the tiny CPU cost model is far faster per update
	// than the kernel-launch-bound tiny GPU, so CPU updates dominate —
	// the Figure 8 left bar.
	hybrid, err := RunSim(context.Background(), tinyConfig(t, AlgCPUGPUHogbatch), simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if s := hybrid.CPUShare(); s < 0.7 {
		t.Fatalf("CPU+GPU Hogbatch CPU share %v, want dominant", s)
	}
	if hybrid.Updates.Get("gpu0") == 0 {
		t.Fatal("GPU performed no updates at all")
	}

	// Adaptive: the batch policy throttles the leader, moving the
	// distribution toward uniform — the Figure 8 right bar.
	adaptive, err := RunSim(context.Background(), tinyConfig(t, AlgAdaptiveHogbatch), simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.CPUShare() >= hybrid.CPUShare() {
		t.Fatalf("adaptive CPU share %v should be more balanced than static %v",
			adaptive.CPUShare(), hybrid.CPUShare())
	}
}

func TestSimAdaptiveResizesWithinBounds(t *testing.T) {
	cfg := tinyConfig(t, AlgAdaptiveHogbatch)
	res, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	resized := 0
	for i, w := range cfg.Workers {
		if res.FinalBatch[i] < w.MinBatch || res.FinalBatch[i] > w.MaxBatch {
			t.Fatalf("worker %d final batch %d outside [%d,%d]", i, res.FinalBatch[i], w.MinBatch, w.MaxBatch)
		}
		resized += res.Resizes[i]
	}
	if resized == 0 {
		t.Fatal("adaptive run never resized a batch")
	}

	static, _ := RunSim(context.Background(), tinyConfig(t, AlgCPUGPUHogbatch), simHorizon)
	for i, n := range static.Resizes {
		if n != 0 {
			t.Fatalf("static worker %d resized %d times", i, n)
		}
	}
}

func TestSimUtilizationRecorded(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	res, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	devs := res.Utilization.Devices()
	if len(devs) != 2 {
		t.Fatalf("devices %v", devs)
	}
	for _, d := range devs {
		if m := res.Utilization.MeanUtilization(d, simHorizon); m <= 0 {
			t.Fatalf("%s mean utilization %v", d, m)
		}
	}
}

func TestSimEvalOnGPUEvenForCPUOnlyRuns(t *testing.T) {
	// The paper always evaluates the loss on the GPU (Figure 7); a
	// CPU-only algorithm must still produce gpu0 busy intervals.
	cfg := tinyConfig(t, AlgHogbatchCPU)
	res, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range res.Utilization.Devices() {
		if d == "gpu0" {
			found = true
		}
	}
	if !found {
		t.Fatal("no GPU eval intervals recorded")
	}
}

func TestSimSampleEveryAddsPoints(t *testing.T) {
	base := tinyConfig(t, AlgHogbatchGPU)
	r1, _ := RunSim(context.Background(), base, simHorizon)
	sampled := tinyConfig(t, AlgHogbatchGPU)
	sampled.SampleEvery = simHorizon / 50
	r2, _ := RunSim(context.Background(), sampled, simHorizon)
	if len(r2.Trace.Points) <= len(r1.Trace.Points) {
		t.Fatalf("SampleEvery added no points: %d vs %d", len(r2.Trace.Points), len(r1.Trace.Points))
	}
}

func TestSimStaleDampingChangesGPUTrajectory(t *testing.T) {
	plain := tinyConfig(t, AlgCPUGPUHogbatch)
	damped := tinyConfig(t, AlgCPUGPUHogbatch)
	damped.StaleDamping = 0.5
	r1, _ := RunSim(context.Background(), plain, simHorizon)
	r2, _ := RunSim(context.Background(), damped, simHorizon)
	if r1.FinalLoss == r2.FinalLoss {
		t.Fatal("stale damping had no effect")
	}
}

func TestSimUpdateModesAgreeSingleThreaded(t *testing.T) {
	// The sim engine writes the model from one goroutine, so atomic and
	// racy updates must produce bit-identical runs.
	a := tinyConfig(t, AlgCPUGPUHogbatch)
	a.UpdateMode = tensor.UpdateAtomic
	b := tinyConfig(t, AlgCPUGPUHogbatch)
	b.UpdateMode = tensor.UpdateRacy
	ra, _ := RunSim(context.Background(), a, simHorizon)
	rb, _ := RunSim(context.Background(), b, simHorizon)
	if ra.FinalLoss != rb.FinalLoss {
		t.Fatalf("update modes diverge in sim: %v vs %v", ra.FinalLoss, rb.FinalLoss)
	}
}

func TestSimShuffleBetweenEpochs(t *testing.T) {
	cfg := tinyConfig(t, AlgHogbatchGPU)
	cfg.Shuffle = true
	res, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs < 1 {
		t.Fatal("needs at least one full epoch to exercise shuffling")
	}
	if res.FinalLoss >= res.Trace.Points[0].Loss {
		t.Fatal("shuffled run failed to learn")
	}
}

func TestSimRejectsInvalidConfig(t *testing.T) {
	cfg := tinyConfig(t, AlgHogbatchCPU)
	cfg.BaseLR = -1
	if _, err := RunSim(context.Background(), cfg, simHorizon); err == nil {
		t.Fatal("expected config error")
	}
}

func TestSimResultString(t *testing.T) {
	res, err := RunSim(context.Background(), tinyConfig(t, AlgAdaptiveHogbatch), simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.String(); len(s) < 20 {
		t.Fatalf("summary too short: %q", s)
	}
}

func TestSimMinLossLEFinal(t *testing.T) {
	res, _ := RunSim(context.Background(), tinyConfig(t, AlgCPUGPUHogbatch), simHorizon)
	if res.MinLoss > res.FinalLoss {
		return // fine: min before final
	}
	if res.MinLoss != res.FinalLoss && res.MinLoss > res.FinalLoss {
		t.Fatal("MinLoss exceeds FinalLoss")
	}
}

// TestSimGemmWidthInvariant pins that the simulated engine's results do not
// depend on how many cores its GEMMs and evaluations fork across: the same
// fixed-seed run under GOMAXPROCS 1 and 2 — Adaptive Hogbatch on dense
// covtype, and on a CSR first layer — gives the same loss-trace bits, update
// counts, final batch sizes and final-parameter bytes. The shapes are large
// enough that GPU steps, sub-batches of 64 rows or more and the loss
// evaluations cross forkJoin's threshold.
func TestSimGemmWidthInvariant(t *testing.T) {
	dense := data.Covtype.Scaled(0.002)
	sparse := data.RealSim.Scaled(0.002)
	for _, tc := range []struct {
		name string
		ds   func(data.SynthSpec) *data.Dataset
		spec data.SynthSpec
	}{
		{"dense covtype", func(s data.SynthSpec) *data.Dataset { return data.Generate(s, 3) }, dense},
		{"CSR real-sim", func(s data.SynthSpec) *data.Dataset { return data.GenerateCSR(s, 3) }, sparse},
	} {
		tc.spec.HiddenLayers, tc.spec.HiddenUnits = 2, 64
		run := func(procs int) (*Result, []byte) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			// A fresh dataset per run: shuffling reorders it in place.
			cfg := NewConfig(AlgAdaptiveHogbatch, nn.MustNetwork(tc.spec.Arch()), tc.ds(tc.spec),
				Preset{CPUThreads: 4, CPUMinPerThread: 1, CPUMaxPerThread: 64, GPUMin: 128, GPUMax: 1024})
			cfg.Seed, cfg.Shuffle, cfg.BaseLR = 5, true, 0.01
			cfg.SampleEvery = 200 * time.Microsecond
			res, err := RunSim(context.Background(), cfg, 2*time.Millisecond)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			var params bytes.Buffer
			if err := nn.WriteParams(&params, res.Params); err != nil {
				t.Fatal(err)
			}
			return res, params.Bytes()
		}
		one, oneParams := run(1)
		two, twoParams := run(2)
		if len(one.Trace.Points) != len(two.Trace.Points) {
			t.Fatalf("%s: %d loss points on one core, %d on two", tc.name, len(one.Trace.Points), len(two.Trace.Points))
		}
		for i, p := range one.Trace.Points {
			if q := two.Trace.Points[i]; math.Float64bits(p.Loss) != math.Float64bits(q.Loss) || p.Time != q.Time {
				t.Fatalf("%s: point %d is %v at %v on one core, %v at %v on two", tc.name, i, p.Loss, p.Time, q.Loss, q.Time)
			}
		}
		if !reflect.DeepEqual(one.Updates.Snapshot(), two.Updates.Snapshot()) || !reflect.DeepEqual(one.FinalBatch, two.FinalBatch) {
			t.Fatalf("%s: updates %v / batches %v on one core, %v / %v on two", tc.name,
				one.Updates.Snapshot(), one.FinalBatch, two.Updates.Snapshot(), two.FinalBatch)
		}
		if !bytes.Equal(oneParams, twoParams) {
			t.Fatalf("%s: the final parameters differ between one core and two", tc.name)
		}
	}
}
