package core

import (
	"context"
	"testing"
	"time"

	"heterosgd/internal/data"
	"heterosgd/internal/faults"
	"heterosgd/internal/nn"
	"heterosgd/internal/tensor"
)

// TestSSPStalenessBoundUnderStraggler is the SSP safety invariant: with a
// straggling worker, no applied update's dispatch-time staleness may exceed
// the configured bound — the fast worker must be parked at the gate instead.
// A contrast run with an effectively-infinite bound shows the straggler
// really would have driven staleness past the bound, so the assertion is
// the gate's doing, not the workload's.
func TestSSPStalenessBoundUnderStraggler(t *testing.T) {
	run := func(bound int) *Result {
		cfg := tinyConfig(t, AlgSSP)
		cfg.StalenessBound = bound
		// Stall the CPU worker once, long enough for the other worker to
		// run far ahead on the virtual clock.
		cfg.Faults = faults.NewPlan(7, faults.HangAfter(0, 1, 5*time.Millisecond))
		res, err := RunSim(context.Background(), cfg, simHorizon)
		if err != nil {
			t.Fatalf("bound %d: %v", bound, err)
		}
		if res.Staleness == nil || res.Staleness.Count == 0 {
			t.Fatalf("bound %d: no staleness observations recorded", bound)
		}
		return res
	}

	const bound = 2
	res := run(bound)
	if res.Staleness.Max > bound {
		t.Fatalf("SSP applied an update with staleness %d > bound %d\n%s",
			res.Staleness.Max, bound, res.Staleness)
	}
	if res.Staleness.Blocked == 0 {
		t.Fatalf("straggler run never blocked a dispatch — the gate was not exercised\n%s", res.Staleness)
	}
	if res.Epochs <= 0 || res.TotalUpdates() == 0 {
		t.Fatal("gated run did no work")
	}

	loose := run(1000)
	if loose.Staleness.Max <= bound {
		t.Fatalf("ungated straggler run stayed at staleness %d ≤ %d — the strict run's bound was vacuous",
			loose.Staleness.Max, bound)
	}
}

// TestSSPBoundZeroLockstep drives the strictest setting: bound 0 means no
// worker may ever be a full step ahead of the slowest at dispatch time.
func TestSSPBoundZeroLockstep(t *testing.T) {
	cfg := tinyConfig(t, AlgSSP)
	cfg.StalenessBound = 0
	res, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if res.Staleness.Max != 0 {
		t.Fatalf("bound 0 run observed staleness %d", res.Staleness.Max)
	}
	if res.TotalUpdates() == 0 || res.Epochs <= 0 {
		t.Fatal("lockstep run made no progress (gate deadlock?)")
	}
}

// TestLocalSGDSyncBaselineEquivalence is the LocalSGD degeneracy invariant:
// with one worker and K=1, "copy the model, take one step, adopt the
// replica" is the synchronous minibatch baseline, and the deterministic sim
// engine must produce the identical trajectory point for point. Sampling is
// left at epoch barriers only: mid-flight the engines differ by design (the
// minibatch path writes the global model eagerly at dispatch, a LocalSGD
// round becomes visible at its barrier), but every consistency point and the
// final parameters must agree bit for bit.
func TestLocalSGDSyncBaselineEquivalence(t *testing.T) {
	mb := tinyConfig(t, AlgMinibatchCPU)
	mb.Workers = mb.Workers[:1]
	mb.Workers[0].Threads = 1

	ls := tinyConfig(t, AlgLocalSGD)
	ls.Workers = append([]WorkerConfig(nil), mb.Workers...)
	ls.LocalSteps = 1

	rmb, err := RunSim(context.Background(), mb, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	rls, err := RunSim(context.Background(), ls, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(rmb.Trace.Points) != len(rls.Trace.Points) {
		t.Fatalf("trace lengths differ: minibatch %d vs LocalSGD %d",
			len(rmb.Trace.Points), len(rls.Trace.Points))
	}
	for i := range rmb.Trace.Points {
		if rmb.Trace.Points[i] != rls.Trace.Points[i] {
			t.Fatalf("point %d differs: minibatch %+v vs LocalSGD %+v",
				i, rmb.Trace.Points[i], rls.Trace.Points[i])
		}
	}
	if rmb.TotalUpdates() != rls.TotalUpdates() {
		t.Fatalf("update totals differ: %d vs %d", rmb.TotalUpdates(), rls.TotalUpdates())
	}
	if d := rmb.Params.MaxAbsDiff(rls.Params); d != 0 {
		t.Fatalf("final parameters differ by %v — K=1 LocalSGD must be the sync baseline bit for bit", d)
	}
	if rls.Staleness.Blocked != 0 {
		t.Fatalf("LocalSGD blocked %d dispatches — the SSP gate must stay disarmed", rls.Staleness.Blocked)
	}
}

// TestLocalSGDAveragesAcrossWorkers sanity-checks the multi-worker round
// barrier: the heterogeneous two-worker default must still learn, run full
// rounds, and attribute updates to both participants.
func TestLocalSGDAveragesAcrossWorkers(t *testing.T) {
	cfg := tinyConfig(t, AlgLocalSGD)
	res, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Trace.Points[0].Loss
	if res.FinalLoss >= first*0.8 {
		t.Fatalf("LocalSGD did not learn: %v → %v", first, res.FinalLoss)
	}
	snap := res.Updates
	if len(snap) < 2 {
		t.Fatalf("expected both workers to contribute local steps, got %v", snap)
	}
}

// TestLocalSGDRejectsUnsupportedConfigs pins the validation contract: no
// non-SGD optimizers (replica averaging has no optimizer-state semantics)
// and no fault injection (synchronous rounds have no re-dispatch path).
func TestLocalSGDRejectsUnsupportedConfigs(t *testing.T) {
	cfg := tinyConfig(t, AlgLocalSGD)
	cfg.LocalSteps = 0
	if _, err := RunSim(context.Background(), cfg, simHorizon); err == nil {
		t.Fatal("LocalSteps 0 accepted")
	}
	cfg = tinyConfig(t, AlgLocalSGD)
	cfg.Faults = faults.NewPlan(1, faults.CrashAfter(0, 3))
	if _, err := RunSim(context.Background(), cfg, simHorizon); err == nil {
		t.Fatal("fault plan accepted for LocalSGD")
	}
}

// TestOmnivoreRoundReference holds the Omnivore comparator to its definition
// (§II): every round both devices take their static shares from the same
// model w, and the round is one synchronous step w − LR·Σ(bᵢ/B)·gᵢ of the
// share-weighted mean gradient, lasting as long as its slower device. Two
// rounds are recomputed by hand from the seed — at LR = BaseLR·min(B/RefBatch,
// cap), what Hogbatch GPU uses for a batch of B — and compared at the epoch
// barrier that follows them.
func TestOmnivoreRoundReference(t *testing.T) {
	spec, p := tinySpec(), tinyPreset()
	spec.N = 2 * p.GPUMax // one epoch is exactly two rounds
	net, ds := nn.MustNetwork(spec.Arch()), data.Generate(spec, 42)
	cfg := NewConfig(AlgOmnivore, net, ds, p)
	cfg.BaseLR = 0.01
	sink := &memSink{}
	cfg.CheckpointSink = sink

	total := p.GPUMax
	cb, gb := cfg.Workers[0].InitialBatch, cfg.Workers[1].InitialBatch
	if cb < 1 || gb < 1 || cb+gb != total {
		t.Fatalf("static plan %d+%d must partition a round of %d", cb, gb, total)
	}
	w := net.NewParams(nn.InitXavier, RunRNG(cfg.Seed))
	modelBytes := w.SizeBytes()
	round := max(cfg.Workers[0].Device.IterTime(net.Arch, cb, modelBytes), cfg.Workers[1].Device.IterTime(net.Arch, gb, modelBytes))

	res, err := RunSim(context.Background(), cfg, 3*round)
	if err != nil {
		t.Fatal(err)
	}
	if at := res.Trace.Points[1].Time; at != 2*round {
		t.Fatalf("two rounds took %v, want 2·max(device times) = %v", at, 2*round)
	}

	hog := NewConfig(AlgHogbatchGPU, net, ds, p)
	hog.BaseLR = cfg.BaseLR
	lr := hog.LRFor(total)
	start := w.Clone()
	grad, ws := net.NewParams(nn.InitZero, nil), net.NewWorkspace(total)
	for r := 0; r < 2; r++ {
		step := net.NewParams(nn.InitZero, nil)
		for _, v := range []data.Batch{ds.View(r*total, r*total+cb), ds.View(r*total+cb, (r+1)*total)} {
			net.GradientX(w, ws, v.Input(), v.Y, grad, 1)
			step.AddScaled(float64(v.Size())/float64(total), grad)
		}
		w.AddScaled(-lr, step)
	}
	got := sink.states[0].Params
	moved := w.Clone()
	moved.AddScaled(-1, start)
	if rel := w.MaxAbsDiff(got) / moved.GradNorm(); rel > 1e-12 {
		t.Fatalf("two rounds differ from w − LR·Σ(bᵢ/B)·gᵢ by %g of the distance moved", rel)
	}
	if res.Updates["cpu0"] != res.Updates["gpu0"] {
		t.Fatalf("lockstep violated: %d vs %d steps", res.Updates["cpu0"], res.Updates["gpu0"])
	}
}

// TestDCASGDZeroLambdaMatchesAsync is the DC-ASGD degeneracy invariant:
// λ = 0 disables compensation and the run must be bit-for-bit the plain
// async CPU+GPU Hogbatch trajectory, while any λ > 0 must actually change
// the GPU applies (so the equivalence is not vacuous).
func TestDCASGDZeroLambdaMatchesAsync(t *testing.T) {
	async := tinyConfig(t, AlgCPUGPUHogbatch)
	async.SampleEvery = simHorizon / 10
	dc := tinyConfig(t, AlgDCASGD)
	dc.DCLambda = 0
	dc.SampleEvery = simHorizon / 10

	ra, err := RunSim(context.Background(), async, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := RunSim(context.Background(), dc, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Trace.Points) != len(rd.Trace.Points) {
		t.Fatalf("trace lengths differ: async %d vs DC-ASGD(0) %d",
			len(ra.Trace.Points), len(rd.Trace.Points))
	}
	for i := range ra.Trace.Points {
		if ra.Trace.Points[i] != rd.Trace.Points[i] {
			t.Fatalf("point %d differs: async %+v vs DC-ASGD(0) %+v",
				i, ra.Trace.Points[i], rd.Trace.Points[i])
		}
	}
	if ra.TotalUpdates() != rd.TotalUpdates() {
		t.Fatalf("update totals differ: %d vs %d", ra.TotalUpdates(), rd.TotalUpdates())
	}

	comp := tinyConfig(t, AlgDCASGD)
	comp.DCLambda = 0.04
	comp.SampleEvery = simHorizon / 10
	rc, err := RunSim(context.Background(), comp, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	same := len(rc.Trace.Points) == len(ra.Trace.Points)
	if same {
		for i := range rc.Trace.Points {
			if rc.Trace.Points[i] != ra.Trace.Points[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("λ > 0 produced the identical trajectory — compensation is a no-op")
	}
}

// TestSSPRealEngineGates exercises the staleness gate on the wall-clock
// engine: an injected straggler hang must block dispatches without ever
// letting an applied update exceed the bound.
func TestSSPRealEngineGates(t *testing.T) {
	cfg := tinyConfig(t, AlgSSP)
	cfg.UpdateMode = tensor.UpdateLocked // race-detector-clean
	cfg.StalenessBound = 1
	cfg.Faults = faults.NewPlan(7, faults.HangAfter(0, 2, 40*time.Millisecond))
	res, err := RunReal(context.Background(), cfg, realBudget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Staleness == nil || res.Staleness.Count == 0 {
		t.Fatal("no staleness observations recorded")
	}
	if res.Staleness.Max > 1 {
		t.Fatalf("real engine applied an update with staleness %d > bound 1\n%s",
			res.Staleness.Max, res.Staleness)
	}
	if res.TotalUpdates() == 0 {
		t.Fatal("gated run did no work")
	}
}
