package core

import (
	"context"
	"math"
	"testing"
	"time"

	"heterosgd/internal/opt"
	"heterosgd/internal/tensor"
)

func scheduleConfig(t *testing.T, s LRSchedule) Config {
	cfg := tinyConfig(t, AlgHogbatchGPU)
	cfg.BaseLR = 0.1
	cfg.LRScaling = false
	cfg.Schedule = s
	return cfg
}

func TestLRScheduleNamesAndParsing(t *testing.T) {
	for _, s := range []LRSchedule{ScheduleConstant, ScheduleStep, ScheduleInvT, ScheduleWarmup} {
		name := s.String()
		if name == "" || name == "unknown" {
			t.Fatalf("bad name for schedule %d", int(s))
		}
		got, err := ParseLRSchedule(name)
		if err != nil || got != s {
			t.Fatalf("round trip %q", name)
		}
	}
	if got, err := ParseLRSchedule(""); err != nil || got != ScheduleConstant {
		t.Fatal("empty name should default to constant")
	}
	if _, err := ParseLRSchedule("bogus"); err == nil {
		t.Fatal("expected error")
	}
	if LRSchedule(42).String() != "unknown" {
		t.Fatal("unknown schedule name")
	}
}

func TestScheduleConstant(t *testing.T) {
	cfg := scheduleConfig(t, ScheduleConstant)
	for _, epoch := range []float64{0, 1, 50} {
		if lr := cfg.ScheduledLR(128, epoch); lr != 0.1 {
			t.Fatalf("constant LR at epoch %v = %v", epoch, lr)
		}
	}
}

func TestScheduleStepHalves(t *testing.T) {
	cfg := scheduleConfig(t, ScheduleStep)
	cfg.StepEvery = 2
	if lr := cfg.ScheduledLR(128, 1.9); lr != 0.1 {
		t.Fatalf("before first step: %v", lr)
	}
	if lr := cfg.ScheduledLR(128, 2); math.Abs(lr-0.05) > 1e-12 {
		t.Fatalf("after one step: %v", lr)
	}
	if lr := cfg.ScheduledLR(128, 6.5); math.Abs(lr-0.0125) > 1e-12 {
		t.Fatalf("after three steps: %v", lr)
	}
	// Default StepEvery kicks in when unset.
	cfg.StepEvery = 0
	if lr := cfg.ScheduledLR(128, 5); math.Abs(lr-0.05) > 1e-12 {
		t.Fatalf("default StepEvery: %v", lr)
	}
}

func TestScheduleInvT(t *testing.T) {
	cfg := scheduleConfig(t, ScheduleInvT)
	cfg.DecayRate = 1
	if lr := cfg.ScheduledLR(128, 0); lr != 0.1 {
		t.Fatalf("epoch 0: %v", lr)
	}
	if lr := cfg.ScheduledLR(128, 9); math.Abs(lr-0.01) > 1e-12 {
		t.Fatalf("epoch 9: %v", lr)
	}
	prev := math.Inf(1)
	for e := 0.0; e < 10; e++ {
		lr := cfg.ScheduledLR(128, e)
		if lr >= prev {
			t.Fatal("inv-t must decrease monotonically")
		}
		prev = lr
	}
}

func TestScheduleWarmup(t *testing.T) {
	cfg := scheduleConfig(t, ScheduleWarmup)
	cfg.WarmupEpochs = 4
	early := cfg.ScheduledLR(128, 0)
	if early <= 0 || early >= 0.1 {
		t.Fatalf("warmup start LR %v must be small but nonzero", early)
	}
	mid := cfg.ScheduledLR(128, 2)
	if math.Abs(mid-0.05) > 1e-12 {
		t.Fatalf("half warmup: %v", mid)
	}
	if lr := cfg.ScheduledLR(128, 4); lr != 0.1 {
		t.Fatalf("post warmup: %v", lr)
	}
}

func TestSimWithSchedulesAndOptimizers(t *testing.T) {
	// Every schedule × optimizer combination must train without error and
	// reduce the loss on the tiny problem.
	for _, sched := range []LRSchedule{ScheduleConstant, ScheduleStep, ScheduleInvT, ScheduleWarmup} {
		for _, kind := range []opt.Kind{opt.KindSGD, opt.KindMomentum, opt.KindAdaGrad, opt.KindAdam} {
			cfg := tinyConfig(t, AlgCPUGPUHogbatch)
			cfg.Schedule = sched
			cfg.Optimizer = kind
			if kind == opt.KindAdam || kind == opt.KindAdaGrad {
				cfg.BaseLR = 0.01
				cfg.LRScaling = false
			}
			res, err := RunSim(context.Background(), cfg, simHorizon)
			if err != nil {
				t.Fatalf("%v/%v: %v", sched, kind, err)
			}
			if res.FinalLoss >= res.Trace.Points[0].Loss {
				t.Fatalf("%v/%v: loss did not decrease (%v → %v)",
					sched, kind, res.Trace.Points[0].Loss, res.FinalLoss)
			}
		}
	}
}

func TestRealWithMomentum(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.Optimizer = opt.KindMomentum
	cfg.UpdateMode = tensor.UpdateLocked
	res, err := RunReal(context.Background(), cfg, realBudget)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss >= res.Trace.Points[0].Loss*0.9 {
		t.Fatal("momentum real run failed to learn")
	}
}

func TestAdaptiveLRAlgorithm(t *testing.T) {
	cfg := tinyConfig(t, AlgAdaptiveLR)
	res, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss >= res.Trace.Points[0].Loss*0.8 {
		t.Fatal("AdaptiveLR failed to learn")
	}
	// Batch sizes stay static — the adaptation is on rates.
	for i, w := range cfg.Workers {
		if res.FinalBatch[i] != w.InitialBatch {
			t.Fatalf("AdaptiveLR must not resize batches (worker %d: %d)", i, res.FinalBatch[i])
		}
	}
}

func TestAdaptiveLRCoordinatorPolicy(t *testing.T) {
	cfg := tinyConfig(t, AlgAdaptiveLR)
	for i := range cfg.Workers {
		// Room to resize, so a policy that moved batches would show.
		cfg.Workers[i].MinBatch, cfg.Workers[i].MaxBatch = 1, 1024
	}
	c := newCoordinator(&cfg)
	if c.lrScale(0) != 1 || c.lrScale(1) != 1 {
		t.Fatal("multipliers must start at 1")
	}
	// Worker 0 leads → its LR shrinks; worker 1 lags → its LR grows.
	c.reportUpdates(0, 1000)
	c.reportUpdates(1, 1)
	c.scheduleWork(0)
	c.scheduleWork(1)
	if c.lrScale(0) >= 1 {
		t.Fatalf("leader multiplier %v should shrink", c.lrScale(0))
	}
	if c.lrScale(1) <= 1 {
		t.Fatalf("laggard multiplier %v should grow", c.lrScale(1))
	}
	// Clamps at 16× for the laggard and 1/16× for the leader, and never
	// touches batch sizes: AdaptiveLR moves rates in place of batches.
	for i := 0; i < 30; i++ {
		for id := range 2 {
			if _, ok := c.scheduleWork(id); !ok {
				c.refill()
			}
		}
	}
	if c.lrScale(1) != 16 || c.lrScale(0) != 1.0/16 {
		t.Fatalf("multipliers %v, %v; want the clamps 1/16 and 16", c.lrScale(0), c.lrScale(1))
	}
	for i, w := range cfg.Workers {
		if c.batch[i] != w.InitialBatch || c.resizes[i] != 0 {
			t.Fatalf("worker %d: batch %d after %d resizes; AdaptiveLR must keep %d", i, c.batch[i], c.resizes[i], w.InitialBatch)
		}
	}
	// Non-AdaptiveLR configs never move multipliers.
	cfg2 := tinyConfig(t, AlgAdaptiveHogbatch)
	c2 := newCoordinator(&cfg2)
	c2.reportUpdates(0, 1000)
	c2.scheduleWork(0)
	if c2.lrScale(0) != 1 {
		t.Fatal("adaptive-batch algorithm must not touch LR multipliers")
	}
}

func TestWarmStartFromCheckpoint(t *testing.T) {
	// Train briefly, checkpoint, resume: the second run must start near
	// the first run's final loss, not from the fresh-init loss.
	cfg := tinyConfig(t, AlgHogbatchGPU)
	first, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	resume := tinyConfig(t, AlgHogbatchGPU)
	resume.InitialParams = first.Params
	second, err := RunSim(context.Background(), resume, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	freshStart := first.Trace.Points[0].Loss
	resumedStart := second.Trace.Points[0].Loss
	if resumedStart > freshStart*0.5 {
		t.Fatalf("warm start ineffective: resumed at %v vs fresh %v", resumedStart, freshStart)
	}
	// The caller's params must not be mutated by the resumed run.
	if first.Params.MaxAbsDiff(second.Params) == 0 {
		t.Fatal("resumed run made no progress")
	}
}

func TestWeightDecayShrinksModelNorm(t *testing.T) {
	plain := tinyConfig(t, AlgHogbatchGPU)
	decayed := tinyConfig(t, AlgHogbatchGPU)
	decayed.WeightDecay = 0.1
	r1, err := RunSim(context.Background(), plain, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSim(context.Background(), decayed, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Params.GradNorm() >= r1.Params.GradNorm() {
		t.Fatalf("weight decay should shrink the model: %v vs %v",
			r2.Params.GradNorm(), r1.Params.GradNorm())
	}
	if r2.FinalLoss >= r2.Trace.Points[0].Loss {
		t.Fatal("decayed run failed to learn at all")
	}
}

func TestTargetLossStopsEarlySim(t *testing.T) {
	cfg := tinyConfig(t, AlgAdaptiveHogbatch)
	cfg.TargetLoss = 0.3 // reachable well before the horizon
	res, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("run never converged to %v (final %v)", cfg.TargetLoss, res.FinalLoss)
	}
	full, _ := RunSim(context.Background(), tinyConfig(t, AlgAdaptiveHogbatch), simHorizon)
	if res.ExamplesProcessed >= full.ExamplesProcessed {
		t.Fatal("early stop should process fewer examples than the full run")
	}
	// An unreachable target never converges.
	cfg2 := tinyConfig(t, AlgAdaptiveHogbatch)
	cfg2.TargetLoss = 1e-12
	res2, _ := RunSim(context.Background(), cfg2, simHorizon)
	if res2.Converged {
		t.Fatal("impossible target reported converged")
	}
}

func TestTargetLossStopsEarlyReal(t *testing.T) {
	cfg := tinyConfig(t, AlgHogbatchGPU)
	cfg.UpdateMode = tensor.UpdateLocked
	cfg.TargetLoss = 0.3
	res, err := RunReal(context.Background(), cfg, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("real run never converged (final %v)", res.FinalLoss)
	}
	if res.Duration >= 5*time.Second {
		t.Fatal("early stop did not shorten the run")
	}
}
