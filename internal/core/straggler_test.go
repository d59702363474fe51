package core

import (
	"context"
	"testing"

	"heterosgd/internal/device"
)

// TestAdaptiveReactsToRuntimeSlowdown exercises the paper's central
// argument against static proportional splitting (§II): when a device's
// actual speed changes at runtime, Algorithm 2 rebalances. The GPU is
// throttled 20× partway through the run; the adaptive policy must shrink
// its batch (speeding its update cadence back up) relative to a run where
// the GPU stays fast.
func TestAdaptiveReactsToRuntimeSlowdown(t *testing.T) {
	run := func(throttle bool) *Result {
		cfg := tinyConfig(t, AlgAdaptiveHogbatch)
		if throttle {
			gpu := cfg.Workers[1].Device
			cfg.Workers[1].Device = device.NewThrottled(gpu, 20, 10)
		}
		res, err := RunSim(context.Background(), cfg, simHorizon)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast := run(false)
	slow := run(true)

	// The throttled GPU performs fewer updates…
	if slow.Updates["gpu0"] >= fast.Updates["gpu0"] {
		t.Fatalf("throttled GPU should update less: %d vs %d",
			slow.Updates["gpu0"], fast.Updates["gpu0"])
	}
	// …and the policy pushes its batch toward the minimum threshold to
	// compensate (smaller batches = faster iterations = more updates).
	if slow.FinalBatch[1] > fast.FinalBatch[1] {
		t.Fatalf("policy should not grow a straggler's batch: %d vs %d",
			slow.FinalBatch[1], fast.FinalBatch[1])
	}
	if slow.FinalBatch[1] != cfg0MinBatch(t) {
		t.Logf("note: throttled GPU batch settled at %d (min %d)", slow.FinalBatch[1], cfg0MinBatch(t))
	}
}

func cfg0MinBatch(t *testing.T) int {
	return tinyConfig(t, AlgAdaptiveHogbatch).Workers[1].MinBatch
}

// TestStaticAlgorithmIgnoresSlowdown is the contrast: CPU+GPU Hogbatch keeps
// its static batch regardless, so the straggling GPU simply contributes
// less — the inefficiency Adaptive Hogbatch exists to fix.
func TestStaticAlgorithmIgnoresSlowdown(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.Workers[1].Device = device.NewThrottled(cfg.Workers[1].Device, 20, 10)
	res, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resizes[1] != 0 {
		t.Fatal("static algorithm must never resize")
	}
	if res.FinalBatch[1] != cfg.Workers[1].InitialBatch {
		t.Fatal("static batch drifted")
	}
}
