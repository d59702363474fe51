package device

import (
	"strings"
	"testing"
	"time"

	"heterosgd/internal/data"
	"heterosgd/internal/nn"
)

func covtypeArch() nn.Arch { return data.Covtype.Arch() }

func modelBytes(arch nn.Arch) int64 { return int64(arch.NumParameters()) * 8 }

func TestKindString(t *testing.T) {
	if KindCPU.String() != "cpu" || KindGPU.String() != "gpu" {
		t.Fatal("kind names wrong")
	}
}

func TestDeviceIdentity(t *testing.T) {
	cpu := NewXeon("cpu0", 56)
	gpu := NewV100("gpu0")
	if cpu.Name() != "cpu0" || cpu.Kind() != KindCPU {
		t.Fatal("cpu identity")
	}
	if gpu.Name() != "gpu0" || gpu.Kind() != KindGPU {
		t.Fatal("gpu identity")
	}
	if cpu.Spec().MemoryGB != 488 || gpu.Spec().MemoryGB != 16 {
		t.Fatal("Table I memory sizes wrong")
	}
	def := NewXeon("c", 0)
	if def.WorkerThreads != 56 {
		t.Fatalf("default worker threads = %d", def.WorkerThreads)
	}
}

func TestIterTimeMonotonicInBatchSize(t *testing.T) {
	arch := covtypeArch()
	mb := modelBytes(arch)
	for _, d := range []Device{NewXeon("c", 56), NewV100("g")} {
		prev := time.Duration(0)
		for _, b := range []int{56, 128, 512, 2048, 8192} {
			it := d.IterTime(arch, b, mb)
			if it <= prev {
				t.Fatalf("%s: IterTime(%d) = %v not increasing (prev %v)", d.Name(), b, it, prev)
			}
			prev = it
		}
		if d.IterTime(arch, 0, mb) != 0 {
			t.Fatalf("%s: zero batch should cost 0", d.Name())
		}
	}
}

func TestGPUThroughputImprovesWithBatch(t *testing.T) {
	arch := covtypeArch()
	mb := modelBytes(arch)
	g := NewV100("g")
	perExampleSmall := g.IterTime(arch, 64, mb).Seconds() / 64
	perExampleLarge := g.IterTime(arch, 8192, mb).Seconds() / 8192
	if perExampleLarge >= perExampleSmall/4 {
		t.Fatalf("large batches should amortize: %.3g vs %.3g s/example", perExampleLarge, perExampleSmall)
	}
}

// The headline calibration: a Hogwild CPU epoch must be hundreds of times
// slower than a batch-8192 GPU epoch (§VII-B reports 236–317×).
func TestEpochSpeedRatioCalibration(t *testing.T) {
	cpu := NewXeon("c", 56)
	gpu := NewV100("g")
	ratioFor := func(spec data.SynthSpec) float64 {
		arch := spec.Arch()
		mb := modelBytes(arch)
		cpuIters := (spec.N + cpu.WorkerThreads - 1) / cpu.WorkerThreads
		cpuEpoch := time.Duration(cpuIters) * cpu.IterTime(arch, cpu.WorkerThreads, mb)
		gpuIters := (spec.N + 8191) / 8192
		gpuEpoch := time.Duration(gpuIters) * gpu.IterTime(arch, 8192, mb)
		return cpuEpoch.Seconds() / gpuEpoch.Seconds()
	}
	for _, spec := range []data.SynthSpec{data.Covtype, data.W8a, data.Delicious} {
		r := ratioFor(spec)
		if r < 200 || r > 360 {
			t.Fatalf("%s: epoch ratio %.0f× outside the paper's 236–317× band (±tolerance)", spec.Name, r)
		}
	}
	// real-sim now runs the sparse path: the density-scaled first-layer
	// terms benefit the CPU far more than the GPU (whose per-iteration
	// cost is dominated by the dense model-replica PCIe transfer), so the
	// gap narrows well below the dense band — but stays large.
	if r := ratioFor(data.RealSim); r < 30 || r > 200 {
		t.Fatalf("real-sim sparse ratio %.0f× outside the plausible band", r)
	}
}

func TestGPUUtilizationCurveMatchesPaper(t *testing.T) {
	g := NewV100("g")
	arch := covtypeArch()
	// Paper: lower batch threshold ⇒ ~50%, batch 8192 ⇒ above 80%.
	if u := g.Utilization(arch, 512); u < 0.45 || u > 0.55 {
		t.Fatalf("util(512) = %v, want ≈0.5", u)
	}
	if u := g.Utilization(arch, 8192); u < 0.85 {
		t.Fatalf("util(8192) = %v, want >0.85", u)
	}
	if g.Utilization(arch, 64) >= g.Utilization(arch, 8192) {
		t.Fatal("utilization must grow with batch size")
	}
}

func TestCPUUtilizationNearEightyPercent(t *testing.T) {
	c := NewXeon("c", 56)
	arch := covtypeArch()
	if u := c.Utilization(arch, 56); u < 0.75 || u > 0.9 {
		t.Fatalf("Hogwild CPU utilization %v, want ≈0.8", u)
	}
	// Larger batches decrease utilization slightly (paper, Fig 7 Adaptive).
	if c.Utilization(arch, 56*64) >= c.Utilization(arch, 56) {
		t.Fatal("larger batches should slightly decrease CPU utilization")
	}
	// Fewer examples than threads → proportional utilization.
	if u := c.Utilization(arch, 28); u > 0.5 {
		t.Fatalf("half-empty batch utilization %v too high", u)
	}
	if c.Utilization(arch, 0) != 0 {
		t.Fatal("zero batch must have zero utilization")
	}
}

func TestEvalTimeScalesWithN(t *testing.T) {
	arch := covtypeArch()
	for _, d := range []Device{NewXeon("c", 56), NewV100("g")} {
		small := d.EvalTime(arch, 1000)
		large := d.EvalTime(arch, 100000)
		if large <= small {
			t.Fatalf("%s: EvalTime not increasing", d.Name())
		}
	}
}

func TestGPUEvalFasterThanCPU(t *testing.T) {
	arch := covtypeArch()
	cpu, gpu := NewXeon("c", 56), NewV100("g")
	if gpu.EvalTime(arch, 50000) >= cpu.EvalTime(arch, 50000) {
		t.Fatal("the paper evaluates loss on the GPU because it is faster there")
	}
}

func TestTableIRendering(t *testing.T) {
	out := TableI(NewXeon("c", 56), NewV100("g"))
	for _, want := range []string{"cores", "threads", "L1 cache", "45 MB", "96 KB", "488 GB", "16 GB", "2048 per MP"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestCPUSmallBatchUsesFewerThreads(t *testing.T) {
	c := NewXeon("c", 56)
	arch := covtypeArch()
	mb := modelBytes(arch)
	// 1 example cannot be faster than a full 56-wide Hogwild sweep per
	// example, but must cost less than a 56-example batch in total.
	one := c.IterTime(arch, 1, mb)
	full := c.IterTime(arch, 56, mb)
	if one >= full {
		t.Fatalf("IterTime(1)=%v should be below IterTime(56)=%v", one, full)
	}
}

func TestThrottledEngagesAfterN(t *testing.T) {
	arch := covtypeArch()
	mb := modelBytes(arch)
	base := NewV100("g")
	th := NewThrottled(NewV100("g"), 3, 2)
	if th.Name() != "g" || th.Kind() != KindGPU || th.Spec().MemoryGB != 16 {
		t.Fatal("wrapper must forward identity")
	}
	want := base.IterTime(arch, 512, mb)
	if got := th.IterTime(arch, 512, mb); got != want {
		t.Fatalf("call 1 throttled early: %v vs %v", got, want)
	}
	if got := th.IterTime(arch, 512, mb); got != want {
		t.Fatalf("call 2 throttled early: %v", got)
	}
	if got := th.IterTime(arch, 512, mb); got != 3*want {
		t.Fatalf("call 3 not throttled: %v, want %v", got, 3*want)
	}
	if th.Calls() != 3 {
		t.Fatalf("calls = %d", th.Calls())
	}
	if th.EvalTime(arch, 100) != base.EvalTime(arch, 100) {
		t.Fatal("eval must not be throttled")
	}
	if th.Utilization(arch, 512) != base.Utilization(arch, 512) {
		t.Fatal("utilization must pass through")
	}
}

func TestThrottledZeroFactorPassesThrough(t *testing.T) {
	arch := covtypeArch()
	mb := modelBytes(arch)
	base := NewXeon("c", 56)
	th := NewThrottled(NewXeon("c", 56), 0, 0)
	if th.IterTime(arch, 56, mb) != base.IterTime(arch, 56, mb) {
		t.Fatal("factor 0 must pass through")
	}
}

func TestPlanProportionalToSpeed(t *testing.T) {
	arch := nn.Arch{InputDim: 10, Hidden: []int{16, 16}, OutputDim: 2, Activation: nn.ActSigmoid}
	cpu, gpu := NewXeon("cpu0", 56), NewV100("gpu0")
	const round = 128
	cb, gb := SpeedSplit(arch, round, cpu, gpu, 1)
	if cb+gb != round || cb < 1 || gb < 1 {
		t.Fatalf("plan %d+%d must partition %d", cb, gb, round)
	}
	// Believing the GPU is 100× faster shifts work to the GPU.
	if fcb, _ := SpeedSplit(arch, round, cpu, gpu, 100); fcb >= cb {
		t.Fatalf("GPU-optimistic plan should give CPU less: %d vs %d", fcb, cb)
	}
	// Believing the GPU is 100× slower shifts work to the CPU.
	if scb, _ := SpeedSplit(arch, round, cpu, gpu, 0.01); scb <= cb {
		t.Fatalf("GPU-pessimistic plan should give CPU more: %d vs %d", scb, cb)
	}
}
