package core

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"heterosgd/internal/data"
	"heterosgd/internal/elastic"
	"heterosgd/internal/faults"
	"heterosgd/internal/nn"
	"heterosgd/internal/tensor"
	"heterosgd/internal/transport"
)

// realBudget keeps wall-clock tests short.
const realBudget = 300 * time.Millisecond

func TestRealAllAlgorithmsReduceLoss(t *testing.T) {
	for _, alg := range []Algorithm{AlgHogbatchCPU, AlgHogbatchGPU, AlgCPUGPUHogbatch, AlgAdaptiveHogbatch, AlgMinibatchCPU, AlgSSP, AlgLocalSGD, AlgDCASGD} {
		cfg := tinyConfig(t, alg)
		cfg.UpdateMode = tensor.UpdateLocked // race-detector-clean
		res, err := RunReal(context.Background(), cfg, realBudget)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		first := res.Trace.Points[0].Loss
		if res.FinalLoss >= first*0.9 {
			t.Fatalf("%v: loss %v → %v did not drop", alg, first, res.FinalLoss)
		}
		if res.TotalUpdates() == 0 {
			t.Fatalf("%v: no updates recorded", alg)
		}
	}
}

func TestRealAtomicModeConverges(t *testing.T) {
	if raceEnabled {
		t.Skip("UpdateAtomic reads the model unsynchronized by design (Hogwild); locked-mode coverage runs under -race instead")
	}
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.UpdateMode = tensor.UpdateAtomic
	res, err := RunReal(context.Background(), cfg, realBudget)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss >= res.Trace.Points[0].Loss*0.9 {
		t.Fatalf("atomic hybrid run failed to learn: %v → %v", res.Trace.Points[0].Loss, res.FinalLoss)
	}
}

func TestRealRespectsBudgetOrder(t *testing.T) {
	cfg := tinyConfig(t, AlgHogbatchGPU)
	cfg.UpdateMode = tensor.UpdateLocked
	start := time.Now()
	res, err := RunReal(context.Background(), cfg, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	// The run may overshoot by in-flight iterations, but not wildly.
	if wall > 5*time.Second {
		t.Fatalf("run took %v for a 150ms budget", wall)
	}
	if res.Duration <= 0 {
		t.Fatal("no duration recorded")
	}
}

func TestRealEpochAccounting(t *testing.T) {
	cfg := tinyConfig(t, AlgHogbatchGPU)
	cfg.UpdateMode = tensor.UpdateLocked
	res, err := RunReal(context.Background(), cfg, realBudget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs < 1 {
		t.Fatalf("only %.2f epochs in %v — tiny problem should complete many", res.Epochs, realBudget)
	}
	if res.ExamplesProcessed < int64(cfg.Dataset.N()) {
		t.Fatal("examples processed below one epoch")
	}
	// Trace has the initial point, ≥1 epoch barrier, and the final point.
	if len(res.Trace.Points) < 3 {
		t.Fatalf("only %d trace points", len(res.Trace.Points))
	}
}

func TestRealUtilizationAndUpdateShares(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.UpdateMode = tensor.UpdateLocked
	res, err := RunReal(context.Background(), cfg, realBudget)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Utilization) == 0 {
		t.Fatal("no utilization recorded")
	}
	share := res.CPUShare()
	if share <= 0 || share >= 1 {
		t.Fatalf("CPU share %v — both workers should contribute", share)
	}
}

func TestRealAdaptiveStaysInBounds(t *testing.T) {
	cfg := tinyConfig(t, AlgAdaptiveHogbatch)
	cfg.UpdateMode = tensor.UpdateLocked
	res, err := RunReal(context.Background(), cfg, realBudget)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range cfg.Workers {
		if res.FinalBatch[i] < w.MinBatch || res.FinalBatch[i] > w.MaxBatch {
			t.Fatalf("worker %d final batch %d outside [%d,%d]", i, res.FinalBatch[i], w.MinBatch, w.MaxBatch)
		}
	}
}

func TestRealRejectsInvalidConfig(t *testing.T) {
	cfg := tinyConfig(t, AlgHogbatchCPU)
	cfg.Alpha = 0.5
	if _, err := RunReal(context.Background(), cfg, realBudget); err == nil {
		t.Fatal("expected config error")
	}
}

func TestRealAndSimAgreeOnUpdateAccounting(t *testing.T) {
	// Same problem, both engines: per processed batch, the CPU worker must
	// report Threads updates and the GPU worker one — so the ratio
	// updates/examples must match between engines for a GPU-only run.
	sim, err := RunSim(context.Background(), tinyConfig(t, AlgHogbatchGPU), simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	cfgR := tinyConfig(t, AlgHogbatchGPU)
	cfgR.UpdateMode = tensor.UpdateLocked
	real, err := RunReal(context.Background(), cfgR, realBudget)
	if err != nil {
		t.Fatal(err)
	}
	simRatio := float64(sim.TotalUpdates()) / float64(sim.ExamplesProcessed)
	realRatio := float64(real.TotalUpdates()) / float64(real.ExamplesProcessed)
	if simRatio <= 0 || realRatio <= 0 {
		t.Fatal("degenerate ratios")
	}
	if diff := simRatio/realRatio - 1; diff > 0.05 || diff < -0.05 {
		t.Fatalf("engines disagree on updates/example: sim %v vs real %v", simRatio, realRatio)
	}
}

// TestRealLanesEndWithTheirWorker: a CPU worker's lane goroutines live
// exactly as long as the worker's own. However a run ends or a worker goes —
// budget, injected crash, graceful leave, evict, cancelled context — the
// process is back at its starting goroutine count once RunReal has returned
// and the stragglers it does not wait for have drained.
func TestRealLanesEndWithTheirWorker(t *testing.T) {
	scenarios := map[string]func(cfg *Config) context.Context{
		"clean": func(*Config) context.Context { return context.Background() },
		"crash": func(cfg *Config) context.Context {
			cfg.Faults = faults.NewPlan(7, faults.CrashAfter(0, 3)) // the CPU worker, lanes idle
			return context.Background()
		},
		"leave-evict": func(cfg *Config) context.Context {
			cfg.Shuffle = true
			cfg.Elastic = elastic.NewPlan(1, elastic.JoinAt(2), elastic.JoinAt(4), elastic.LeaveAt(0, 8), elastic.EvictAt(2, 12))
			return context.Background()
		},
		"cancel": func(*Config) context.Context {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(40*time.Millisecond, cancel)
			return ctx
		},
	}
	for name, prepare := range scenarios {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(t, AlgCPUGPUHogbatch)
			cfg.UpdateMode = tensor.UpdateLocked // race-detector-clean
			ctx := prepare(&cfg)
			before := runtime.NumGoroutine()
			res, err := RunReal(ctx, cfg, 150*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalUpdates() == 0 {
				t.Fatal("no updates recorded")
			}
			if name == "leave-evict" && (res.Elastic.Leaves != 1 || res.Elastic.Evictions != 1) {
				t.Fatalf("churn accounting: %+v", res.Elastic)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines before the run, %d after:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestRealLanePanicIsWorkerFailure: a genuine panic on a lane goroutine other
// than the first — not the injected crash, which fires before any lane runs —
// comes back as that worker's failure with the panic's text; the batch goes
// to a survivor and every scheduled example is still applied exactly once.
func TestRealLanePanicIsWorkerFailure(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.UpdateMode = tensor.UpdateLocked
	x, err := newLocalExec(context.Background(), &cfg, realBudget)
	if err != nil {
		t.Fatal(err)
	}
	// Lane 1 of the CPU worker has no gradient buffer to write: a nil
	// dereference inside GradientX, on that lane's goroutine.
	x.l.workers[0].lanes[1].grad = nil
	res, err := x.l.loop()
	if err != nil {
		t.Fatal(err)
	}
	if h := res.Health.Workers[0]; h.State != WorkerCrashed || h.Crashes != 1 {
		t.Fatalf("panicking worker health: %+v", h)
	}
	if h := res.Health.Workers[1]; h.State != WorkerHealthy {
		t.Fatalf("survivor health: %+v", h)
	}
	log := res.Events.String()
	if res.Events.Count("crash") != 1 || !strings.Contains(log, "panicked") || !strings.Contains(log, "nil pointer dereference") {
		t.Fatalf("the crash event does not carry the lane's panic:\n%s", log)
	}
	if res.Health.Redispatches == 0 {
		t.Fatal("the panicking worker's batch was not re-dispatched")
	}
	if x.l.tr.AppliedExamples != res.ExamplesProcessed {
		t.Fatalf("applied %d examples, scheduled %d", x.l.tr.AppliedExamples, res.ExamplesProcessed)
	}
	if res.FinalLoss >= res.Trace.Points[0].Loss*0.9 {
		t.Fatalf("survivor failed to learn: %v → %v", res.Trace.Points[0].Loss, res.FinalLoss)
	}
}

// TestRealCPUDispatchAllocation guards the live engine's Hogwild steady
// state: a two-example dispatch to a two-lane CPU worker — inbox, view, a job
// per lane, two gradients on an eight-hidden-layer network, two shared-model
// writes, completion, accounting — allocates hand-off bookkeeping only (the
// Done, its queue slot, the utilisation interval). Before the lanes kept
// their goroutines and view headers the same cycle allocated about 3.8 KB.
func TestRealCPUDispatchAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting under the race detector measures the detector")
	}
	spec := data.W8a.Scaled(0.01)
	spec.HiddenLayers, spec.HiddenUnits = 8, 16
	ds := data.Generate(spec, 7)
	cfg := NewConfig(AlgHogbatchCPU, nn.MustNetwork(spec.Arch()), ds, Preset{CPUThreads: 2, CPUMinPerThread: 1, CPUMaxPerThread: 1, GPUMin: 64, GPUMax: 64})
	cfg.BaseLR = 0.01
	cfg.EvalSubset = 64
	x, err := newLocalExec(context.Background(), &cfg, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	x.attach(context.Background())
	defer x.shutdown()
	cycle := func(seq uint64) {
		lo := int(seq) * 2 % (ds.N() - 1)
		if err := x.trans.Send(0, transport.Work{Seq: seq, Lo: lo, Hi: lo + 2, LR: 0.01}); err != nil {
			t.Fatal(err)
		}
		m, st := x.trans.Recv(30 * time.Second)
		if st != transport.RecvOK || m.Done == nil || m.Done.Seq != seq || m.Done.Failed || m.Done.Updates != 2 {
			t.Fatalf("seq %d: Recv = %v, %+v", seq, st, m.Done)
		}
		x.accept(m.Done, nil)
	}
	const warm, measured = 20, 200
	seq := uint64(0)
	for ; seq < warm; seq++ {
		cycle(seq)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for ; seq < warm+measured; seq++ {
		cycle(seq)
	}
	runtime.ReadMemStats(&after)
	perCycle := (after.TotalAlloc - before.TotalAlloc) / measured
	t.Logf("%d B allocated per two-lane dispatch cycle", perCycle)
	const limit = 512
	if perCycle > limit {
		t.Fatalf("a dispatch cycle allocates %d B, limit %d", perCycle, limit)
	}
}
