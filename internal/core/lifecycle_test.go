package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"heterosgd/internal/elastic"
	"heterosgd/internal/faults"
	"heterosgd/internal/tensor"
)

// memSink records every checkpoint a run emits.
type memSink struct {
	states []*RunState
	// onWrite, when set, runs after each capture (used to cancel a run at a
	// deterministic point).
	onWrite func(st *RunState)
}

func (m *memSink) WriteState(st *RunState) error {
	m.states = append(m.states, st)
	if m.onWrite != nil {
		m.onWrite(st)
	}
	return nil
}

func (m *memSink) last(t *testing.T) *RunState {
	t.Helper()
	if len(m.states) == 0 {
		t.Fatal("no checkpoints captured")
	}
	return m.states[len(m.states)-1]
}

// errSink always fails, standing in for a full disk.
type errSink struct{}

func (errSink) WriteState(*RunState) error { return errors.New("disk full") }

// TestSimResumeEquivalence is the resume-equivalence golden test: with
// between-epoch shuffling on, a run resumed from a mid-run checkpoint must
// continue the exact trajectory of the uninterrupted run — bit-identical
// model parameters, scheduler counters, and RNG stream at every subsequent
// epoch barrier (and therefore bit-identical epoch losses) — and carry the
// checkpoint's event history, so its churn counts are the uninterrupted
// run's. The churn row resumes mid-churn, from a capture whose worker set
// outgrew the config's seed set: the joiner's slot is grown on resume the
// way a live join grows it.
func TestSimResumeEquivalence(t *testing.T) {
	rows := []struct {
		name  string
		cfg   func(t *testing.T) Config
		slots []int
	}{
		{AlgAdaptiveHogbatch.String(), func(t *testing.T) Config { return shuffled(tinyConfig(t, AlgAdaptiveHogbatch)) }, nil},
		{AlgTensorFlow.String(), func(t *testing.T) Config { return shuffled(tinyConfig(t, AlgTensorFlow)) }, nil},
		{"churn", func(t *testing.T) Config { return churnConfig(t, AlgCPUGPUHogbatch) }, []int{0, 2, 0}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { simResumeEquivalence(t, row.cfg, row.slots) })
	}
}

func shuffled(cfg Config) Config {
	cfg.Shuffle = true
	return cfg
}

func simResumeEquivalence(t *testing.T, build func(t *testing.T) Config, slots []int) {
	golden := &memSink{}
	cfg := build(t)
	cfg.CheckpointSink = golden
	full, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	// Barrier captures (cursor == N) at epochs 0,1,2,...; the final drain
	// capture may duplicate the last barrier.
	if len(golden.states) < 4 {
		t.Fatalf("need ≥4 epoch captures to test resume, got %d", len(golden.states))
	}
	mid := golden.states[1]
	if slots != nil && !slices.Equal(mid.Membership.States, slots) {
		t.Fatalf("resume point has slots %v, want %v", mid.Membership.States, slots)
	}

	resumed := &memSink{}
	cfg2 := build(t) // fresh dataset in original order
	cfg2.CheckpointSink = resumed
	cfg2.Resume = mid
	res, err := RunSim(context.Background(), cfg2, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if evs := res.Events; len(evs) < len(mid.Events) || !slices.Equal(evs[:len(mid.Events)], mid.Events) {
		t.Fatalf("resumed run's events do not begin with the checkpoint's %d: %v", len(mid.Events), evs)
	}
	if got, want := churnCounts(res.Elastic), churnCounts(full.Elastic); got != want {
		t.Fatalf("resumed run reports joins, leaves, evictions, rebalances %v; the uninterrupted run %v\n%s", got, want, res.Events)
	}

	byEpoch := func(states []*RunState, epoch int) *RunState {
		for _, st := range states {
			if st.Epoch == epoch && st.Cursor == cfg.Dataset.N() {
				return st
			}
		}
		return nil
	}
	compared := 0
	for epoch := mid.Epoch + 1; ; epoch++ {
		want, got := byEpoch(golden.states, epoch), byEpoch(resumed.states, epoch)
		if want == nil || got == nil {
			break
		}
		if diff := want.Params.MaxAbsDiff(got.Params); diff != 0 {
			t.Fatalf("epoch %d: resumed model diverged (max |Δ| = %g)", epoch, diff)
		}
		if want.ExamplesDone != got.ExamplesDone {
			t.Fatalf("epoch %d: examplesDone %d vs %d", epoch, want.ExamplesDone, got.ExamplesDone)
		}
		for i := range want.Batch {
			if want.Batch[i] != got.Batch[i] || want.Updates[i] != got.Updates[i] {
				t.Fatalf("epoch %d: scheduler state diverged: batch %v vs %v, updates %v vs %v",
					epoch, want.Batch, got.Batch, want.Updates, got.Updates)
			}
		}
		if string(want.RNG) != string(got.RNG) {
			t.Fatalf("epoch %d: RNG streams diverged", epoch)
		}
		compared++
	}
	if compared < 2 {
		t.Fatalf("only %d common epochs compared; want ≥2", compared)
	}
	t.Logf("resumed from epoch %d with %d events; %d later barriers compared", mid.Epoch, len(mid.Events), compared)
}

// churnCounts returns an elastic report's Joins, Leaves, Evictions and
// Rebalances (zeros for a fixed-membership run's nil report).
func churnCounts(r *elastic.Report) [4]int {
	if r == nil {
		return [4]int{}
	}
	return [4]int{r.Joins, r.Leaves, r.Evictions, r.Rebalances}
}

// TestSimCancelMidRun cancels the context from inside the first epoch-barrier
// checkpoint — a deterministic mid-run point — and expects a drained partial
// result plus a final drain capture flagged Interrupted.
func TestSimCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &memSink{onWrite: func(*RunState) { cancel() }}
	cfg := tinyConfig(t, AlgAdaptiveHogbatch)
	cfg.CheckpointSink = sink
	res, err := RunSim(ctx, cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("cancelled run must report Interrupted")
	}
	if !math.IsInf(res.FinalLoss, 0) && math.IsNaN(res.FinalLoss) {
		t.Fatalf("partial result has bad loss %v", res.FinalLoss)
	}
	if res.TotalUpdates() == 0 {
		t.Fatal("partial result lost its work counters")
	}
	last := sink.last(t)
	if !last.Interrupted {
		t.Fatal("drain capture must be flagged Interrupted")
	}
	found := false
	for _, e := range res.Events {
		if e.Kind == "interrupt" {
			found = true
		}
	}
	if !found {
		t.Fatal("no interrupt event logged")
	}
}

func TestSimPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunSim(ctx, tinyConfig(t, AlgCPUGPUHogbatch), simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("pre-cancelled run must report Interrupted")
	}
}

// TestRealCancelDrains interrupts a live-goroutine run long before its
// budget: the coordinator must stop scheduling, drain in-flight work, and
// return the partial result promptly with queue telemetry intact.
func TestRealCancelDrains(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.UpdateMode = tensor.UpdateLocked
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := RunReal(ctx, cfg, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 10*time.Second {
		t.Fatalf("drain took %v for a 100ms cancellation", wall)
	}
	if !res.Interrupted {
		t.Fatal("cancelled run must report Interrupted")
	}
	if res.TotalUpdates() == 0 {
		t.Fatal("no work recorded before cancellation")
	}
	q := res.Health.Queue
	if q.Pushed == 0 || q.Popped == 0 {
		t.Fatalf("queue telemetry missing: %+v", q)
	}
	if q.Popped > q.Pushed {
		t.Fatalf("queue telemetry inconsistent: popped %d > pushed %d", q.Popped, q.Pushed)
	}
}

// TestRealCancelCheckpointResume is the crash/resume path end to end on the
// live engine: cancel mid-run, pick up the drain checkpoint, resume a fresh
// run from it, and finish with a sane model.
func TestRealCancelCheckpointResume(t *testing.T) {
	sink := &memSink{}
	cfg := tinyConfig(t, AlgAdaptiveHogbatch)
	cfg.UpdateMode = tensor.UpdateLocked
	cfg.CheckpointSink = sink
	cfg.CheckpointEvery = 20 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel()
	res, err := RunReal(ctx, cfg, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("expected an interrupted first leg")
	}
	st := sink.last(t)
	if !st.Interrupted {
		t.Fatal("drain capture must be flagged Interrupted")
	}

	cfg2 := tinyConfig(t, AlgAdaptiveHogbatch)
	cfg2.UpdateMode = tensor.UpdateLocked
	cfg2.Resume = st
	res2, err := RunReal(context.Background(), cfg2, realBudget)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Interrupted {
		t.Fatal("resumed leg was not cancelled")
	}
	if math.IsNaN(res2.FinalLoss) || math.IsInf(res2.FinalLoss, 0) {
		t.Fatalf("resumed run produced loss %v", res2.FinalLoss)
	}
	if res2.TotalUpdates() == 0 {
		t.Fatal("resumed run did no work")
	}
}

// TestRealPeriodicCheckpoints checks the wall-clock checkpoint period: a run
// far longer than CheckpointEvery must emit multiple captures, not just the
// barrier/drain ones.
func TestRealPeriodicCheckpoints(t *testing.T) {
	sink := &memSink{}
	cfg := tinyConfig(t, AlgHogbatchCPU)
	cfg.UpdateMode = tensor.UpdateLocked
	cfg.CheckpointSink = sink
	cfg.CheckpointEvery = 20 * time.Millisecond
	if _, err := RunReal(context.Background(), cfg, 200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(sink.states) < 2 {
		t.Fatalf("periodic checkpointing produced only %d captures", len(sink.states))
	}
}

// TestSimCrashCheckpointResume kills a worker mid-epoch via fault injection,
// interrupts the degraded run at the next barrier, and resumes from its drain
// checkpoint: the resumed run must accept the restored state (including the
// crashed worker's frozen counters) and keep training on the survivors.
func TestSimCrashCheckpointResume(t *testing.T) {
	st := crashedCheckpoint(t)
	cfg2 := tinyConfig(t, AlgAdaptiveHogbatch)
	cfg2.Resume = st
	res2, err := RunSim(context.Background(), cfg2, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Interrupted || res2.TotalUpdates() == 0 {
		t.Fatal("resume after a crashed-worker run failed to train")
	}
	if math.IsNaN(res2.FinalLoss) || math.IsInf(res2.FinalLoss, 0) {
		t.Fatalf("resumed run produced loss %v", res2.FinalLoss)
	}
}

// crashedCheckpoint runs the degraded first leg: worker 1 crashes at its
// third dispatch, the guards checkpoint every barrier, and the run is
// interrupted a few barriers later. It returns the drain capture.
func crashedCheckpoint(t *testing.T) *RunState {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sink *memSink
	sink = &memSink{onWrite: func(*RunState) {
		if len(sink.states) >= 5 {
			cancel() // interrupt a few barriers in, after the crash fired
		}
	}}
	cfg := tinyConfig(t, AlgAdaptiveHogbatch)
	cfg.Faults = faults.NewPlan(7, faults.CrashAfter(1, 3))
	cfg.Watchdog = DefaultWatchdog()
	cfg.Guards = true
	cfg.CheckpointSink = sink
	res, err := RunSim(ctx, cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("expected an interrupted first leg")
	}
	if !res.Health.Faulty() {
		t.Fatal("fault injection did not fire before the interrupt")
	}
	return sink.last(t)
}

// TestSimResumedReportFoldsEveryIncarnation pins what a resumed run reports:
// its Events carry the checkpoint's history, and every count that restates
// an incident equals the number of those incidents in them. The first leg's
// crash re-dispatched a batch and its guards checkpointed every barrier; the
// resumed leg, guards on too, must count both.
func TestSimResumedReportFoldsEveryIncarnation(t *testing.T) {
	st := crashedCheckpoint(t)
	cfg := tinyConfig(t, AlgAdaptiveHogbatch)
	cfg.Guards = true
	cfg.Resume = st
	res, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	ev, h := res.Events, res.Health
	if ev.Count("crash") == 0 || ev.Count("redispatch") == 0 {
		t.Fatalf("the first leg's crash and re-dispatch are missing from the resumed history:\n%s", ev)
	}
	for _, c := range []struct {
		kind string
		got  int
	}{{"redispatch", h.Redispatches}, {"rollback", h.Rollbacks}} {
		if want := ev.Count(c.kind); c.got != want {
			t.Errorf("resumed report counts %d %s incidents, its Events hold %d", c.got, c.kind, want)
		}
	}
	if h.Diverged != (ev.Count("diverged") > 0) {
		t.Errorf("Diverged %v with %d diverged incidents", h.Diverged, ev.Count("diverged"))
	}
	if !h.Faulty() {
		t.Errorf("a run whose history holds a re-dispatch must report faults: %s", h)
	}
}

// TestSimResumeCarriesFaultCounts: the counts kept beside the incidents
// rather than folded from them continue across a resume too. After the
// crashed first leg, each per-worker count sums to its incidents and the
// crashed worker is named in the fault report; after a corrupting first
// leg, a resumed run without faults still reports the updates it dropped.
func TestSimResumeCarriesFaultCounts(t *testing.T) {
	cfg := tinyConfig(t, AlgAdaptiveHogbatch)
	cfg.Guards = true
	cfg.Resume = crashedCheckpoint(t)
	res, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	var crashes, timeouts, readmits int
	for _, w := range res.Health.Workers {
		crashes, timeouts, readmits = crashes+w.Crashes, timeouts+w.Timeouts, readmits+w.Readmissions
	}
	ev := res.Events
	if crashes != ev.Count("crash") || timeouts != ev.Count("timeout")+ev.Count("partition") || readmits != ev.Count("readmit") {
		t.Fatalf("workers count %d crashes, %d timeouts and %d readmits; the history holds:\n%s", crashes, timeouts, readmits, ev)
	}
	if w := res.Health.Workers[1]; w.Crashes != 1 || !strings.Contains(res.Health.String(), w.Worker+" ") {
		t.Fatalf("the crashed worker %s (crashes %d) is missing from the report: %s", w.Worker, w.Crashes, res.Health)
	}

	sink := &memSink{}
	cfg = tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.Faults = faults.NewPlan(7, faults.CorruptGradient(0, 0.5), faults.CorruptGradient(1, 0.5))
	cfg.Guards = true
	cfg.CheckpointSink = sink
	if _, err := RunSim(context.Background(), cfg, simHorizon/2); err != nil {
		t.Fatal(err)
	}
	st := sink.last(t)
	cfg.Faults, cfg.CheckpointSink, cfg.Resume = nil, nil, st
	res, err = RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if res.Health.DroppedUpdates == 0 || res.Health.DroppedUpdates != st.DroppedUpdates {
		t.Fatalf("the resumed run reports %d dropped updates, its checkpoint %d", res.Health.DroppedUpdates, st.DroppedUpdates)
	}
}

func TestCheckpointSinkErrorDoesNotStopRun(t *testing.T) {
	cfg := tinyConfig(t, AlgAdaptiveHogbatch)
	cfg.CheckpointSink = errSink{}
	res, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted || res.Epochs <= 0 {
		t.Fatal("a failing sink must not stop training")
	}
	found := false
	for _, e := range res.Events {
		if e.Kind == "ckpt-error" {
			found = true
		}
	}
	if !found {
		t.Fatal("sink failure was not logged as a ckpt-error event")
	}
}

func TestResumeValidation(t *testing.T) {
	sink := &memSink{}
	cfg := tinyConfig(t, AlgAdaptiveHogbatch)
	cfg.CheckpointSink = sink
	if _, err := RunSim(context.Background(), cfg, simHorizon); err != nil {
		t.Fatal(err)
	}
	good := sink.last(t)

	run := func(mutate func(c *Config, st *RunState)) error {
		c := tinyConfig(t, AlgAdaptiveHogbatch)
		st := *good
		mutate(&c, &st)
		c.Resume = &st
		_, err := RunSim(context.Background(), c, simHorizon)
		return err
	}

	cases := map[string]func(c *Config, st *RunState){
		"wrong algorithm": func(c *Config, st *RunState) { st.Algorithm = AlgHogbatchCPU },
		"wrong seed":      func(c *Config, st *RunState) { c.Seed = 999 },
		"worker mismatch": func(c *Config, st *RunState) {
			st.Batch = st.Batch[:1]
			st.Updates = st.Updates[:1]
			st.LRMult = st.LRMult[:1]
		},
		"no params":        func(c *Config, st *RunState) { st.Params = nil },
		"no rng":           func(c *Config, st *RunState) { st.RNG = nil },
		"negative counter": func(c *Config, st *RunState) { st.Epoch = -1 },
		"with InitialParams": func(c *Config, st *RunState) {
			c.InitialParams = st.Params
		},
	}
	for name, mutate := range cases {
		if err := run(mutate); err == nil {
			t.Errorf("%s: expected a validation error", name)
		}
	}

	// Sanity: the unmutated state resumes fine.
	if err := run(func(*Config, *RunState) {}); err != nil {
		t.Fatalf("valid resume rejected: %v", err)
	}

	// SVRG has un-checkpointed anchor state; resuming it must be refused.
	svrg := tinyConfig(t, AlgSVRG)
	st := *good
	st.Algorithm = AlgSVRG
	svrg.Resume = &st
	if _, err := RunSim(context.Background(), svrg, simHorizon); err == nil {
		t.Error("SVRG resume must be rejected")
	}

	// Negative checkpoint period is a config error.
	bad := tinyConfig(t, AlgAdaptiveHogbatch)
	bad.CheckpointEvery = -time.Second
	if _, err := RunSim(context.Background(), bad, simHorizon); err == nil {
		t.Error("negative CheckpointEvery must be rejected")
	}
}
