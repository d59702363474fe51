package core

import (
	"context"
	"maps"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"heterosgd/internal/device"
	"heterosgd/internal/elastic"
	"heterosgd/internal/faults"
	"heterosgd/internal/metrics"
	"heterosgd/internal/nn"
	"heterosgd/internal/tensor"
)

// --- unit tests for the shared fault-tolerance machinery ---

func TestHealthTrackerTransitions(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	rec := &record{}
	h := newHealthTracker(&cfg, rec)
	if h.count(WorkerState.dispatchable) != 2 || h.count(WorkerState.alive) != 2 {
		t.Fatalf("fresh tracker: healthy %d alive %d", h.count(WorkerState.dispatchable), h.count(WorkerState.alive))
	}
	if !h.quarantine(0, 0, "timeout", "test") {
		t.Fatal("quarantine of healthy worker refused")
	}
	if h.quarantine(0, 0, "timeout", "again") {
		t.Fatal("double quarantine accepted")
	}
	if h.ok(0) || !h.ok(1) || h.count(WorkerState.dispatchable) != 1 || h.count(WorkerState.alive) != 2 {
		t.Fatal("quarantine bookkeeping wrong")
	}
	if !h.readmit(0, 0, "probe") || !h.ok(0) {
		t.Fatal("readmit failed")
	}
	if h.report.Workers[0].Timeouts != 1 || h.report.Workers[0].Readmissions != 1 {
		t.Fatalf("counts: %+v", h.report.Workers[0])
	}
	h.markCrashed(1, 0, "boom")
	if h.ok(1) || h.count(WorkerState.alive) != 1 {
		t.Fatal("crash bookkeeping wrong")
	}
	if h.readmit(1, 0, "probe") {
		t.Fatal("crashed worker must not be readmittable")
	}
	if got := h.pickHealthy(1); got != 0 {
		t.Fatalf("pickHealthy = %d, want 0", got)
	}
	// Excluding the only healthy worker still returns it as last resort.
	if got := h.pickHealthy(0); got != 0 {
		t.Fatalf("pickHealthy(0) = %d, want 0 (sole survivor)", got)
	}
	h.markCrashed(0, 0, "boom")
	if got := h.pickHealthy(-1); got != -1 {
		t.Fatalf("pickHealthy with no survivors = %d, want -1", got)
	}
	if !h.report.Faulty() {
		t.Fatal("report should be faulty")
	}
	if log := rec.events; log.Count("crash") != 2 || log.Count("timeout") != 1 || log.Count("readmit") != 1 {
		t.Fatalf("event log counts wrong:\n%s", log)
	}
}

// lifeStep is one transition request on the worker table; ok is whether it
// must be accepted.
type lifeStep struct {
	op string // join, leave, retire, evict, crash, quarantine, readmit
	id int
	ok bool
}

func (s lifeStep) apply(h *healthTracker) bool {
	switch s.op {
	case "join":
		if !h.join(0, "test", len(h.report.Workers)) {
			return false
		}
		h.rec.log(0, "joiner", "join", "test") // as coordLoop.addSlot logs it
		h.addWorker("joiner")
		return true
	case "leave":
		return h.leave(s.id, 0)
	case "retire":
		return h.retire(s.id, 0)
	case "evict":
		return h.evict(s.id, 0)
	case "crash":
		h.markCrashed(s.id, 0, "test")
		return true
	case "quarantine":
		return h.quarantine(s.id, 0, "timeout", "test")
	case "readmit":
		return h.readmit(s.id, 0, "test")
	}
	panic("unknown op " + s.op)
}

// TestWorkerLifecycle drives the one worker table through join, leave,
// retire and evict against its bounds, and through their interactions with
// the health states: a crashed worker holds no slot, a quarantined one does,
// and a draining one is active no more, is never dispatchable, and departs
// when benched.
func TestWorkerLifecycle(t *testing.T) {
	H, Q, C, D, Dr := WorkerHealthy, WorkerQuarantined, WorkerCrashed, WorkerDeparted, WorkerDraining
	for _, tc := range []struct {
		name     string
		min, max int // elastic bounds over the two seed workers
		steps    []lifeStep
		states   []WorkerState
		rep      elastic.Report // Rebalances is the loop's fold, not the table's
		timeouts []int
	}{
		{name: "join leave retire evict", min: 1, max: 4,
			steps: []lifeStep{{"join", 0, true}, {"leave", 0, true}, {"retire", 0, true}, {"retire", 0, false},
				{"leave", 0, false}, {"evict", 1, true}, {"evict", 1, false}, {"leave", 7, false}, {"evict", 7, false}},
			states: []WorkerState{D, D, H},
			rep:    elastic.Report{Joins: 1, Leaves: 1, Evictions: 1, Peak: 3, Final: 1}},
		{name: "bounds refuse, evict ignores min", min: 2, max: 2,
			steps:  []lifeStep{{"join", 0, false}, {"leave", 0, false}, {"evict", 0, true}},
			states: []WorkerState{D, H},
			rep:    elastic.Report{Evictions: 1, Peak: 2, Final: 1}},
		{name: "crashed worker frees its slot", min: 1, max: 2,
			steps:  []lifeStep{{"crash", 1, true}, {"join", 0, true}, {"leave", 1, false}, {"evict", 1, false}},
			states: []WorkerState{H, C, H},
			rep:    elastic.Report{Joins: 1, Peak: 2, Final: 2}},
		{name: "quarantined worker holds its slot", min: 1, max: 2,
			steps:    []lifeStep{{"quarantine", 1, true}, {"join", 0, false}},
			states:   []WorkerState{H, Q},
			rep:      elastic.Report{Peak: 2, Final: 2},
			timeouts: []int{0, 1}},
		{name: "quarantined worker may leave", min: 1, max: 2,
			steps:    []lifeStep{{"quarantine", 1, true}, {"leave", 1, true}, {"readmit", 1, false}, {"retire", 1, true}},
			states:   []WorkerState{H, D},
			rep:      elastic.Report{Leaves: 1, Peak: 2, Final: 1},
			timeouts: []int{0, 1}},
		{name: "draining worker frees its slot", min: 1, max: 2,
			steps:  []lifeStep{{"leave", 1, true}, {"join", 0, true}, {"leave", 1, false}, {"readmit", 1, false}},
			states: []WorkerState{H, Dr, H},
			rep:    elastic.Report{Joins: 1, Leaves: 1, Peak: 2, Final: 2}},
		{name: "benched leaver departs at once", min: 1, max: 2,
			steps:    []lifeStep{{"leave", 1, true}, {"quarantine", 1, true}, {"readmit", 1, false}, {"retire", 1, false}, {"quarantine", 1, false}},
			states:   []WorkerState{H, D},
			rep:      elastic.Report{Leaves: 1, Peak: 2, Final: 1},
			timeouts: []int{0, 1}},
		{name: "evicting a leaver", min: 1, max: 2,
			steps:  []lifeStep{{"leave", 0, true}, {"evict", 0, true}, {"retire", 0, false}},
			states: []WorkerState{D, H},
			rep:    elastic.Report{Leaves: 1, Evictions: 1, Peak: 2, Final: 1}},
		{name: "readmitted worker", min: 1, max: 2,
			steps:    []lifeStep{{"quarantine", 0, true}, {"quarantine", 0, false}, {"readmit", 0, true}, {"leave", 0, true}},
			states:   []WorkerState{Dr, H},
			rep:      elastic.Report{Leaves: 1, Peak: 2, Final: 1},
			timeouts: []int{1, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig(t, AlgCPUGPUHogbatch)
			cfg.ElasticPolicy = &stubPolicy{}
			cfg.MinWorkers, cfg.MaxWorkers = tc.min, tc.max
			h := newHealthTracker(&cfg, &record{})
			for i, s := range tc.steps {
				if got := s.apply(h); got != s.ok {
					t.Fatalf("step %d %s %d: accepted %v, want %v", i, s.op, s.id, got, s.ok)
				}
			}
			for id, want := range tc.states {
				if got := h.state(id); got != want {
					t.Fatalf("worker %d is %v, want %v", id, got, want)
				}
				if h.ok(id) != (want == WorkerHealthy) {
					t.Fatalf("worker %d (%v) dispatchable %v", id, want, h.ok(id))
				}
				if tc.timeouts != nil && h.report.Workers[id].Timeouts != tc.timeouts[id] {
					t.Fatalf("worker %d: %+v, want %d timeouts", id, h.report.Workers[id], tc.timeouts[id])
				}
			}
			if len(h.report.Workers) != len(tc.states) {
				t.Fatalf("%d slots, want %d", len(h.report.Workers), len(tc.states))
			}
			if id := h.pickHealthy(-1); id >= 0 && h.state(id) != WorkerHealthy {
				t.Fatalf("pickHealthy chose %v worker %d", h.state(id), id)
			}
			// The transition counts are folds over the incidents the table logs.
			ev := h.rec.events
			got := elastic.Report{Joins: ev.Count("join"), Leaves: ev.Count("leave"), Evictions: ev.Count("evict"), Peak: h.churn.Peak, Final: h.churn.Final}
			if got != tc.rep {
				t.Fatalf("report %+v, want %+v\n%s", got, tc.rep, ev)
			}
			if got.Churned() != (tc.rep.Joins+tc.rep.Leaves+tc.rep.Evictions > 0) {
				t.Fatal("Churned disagrees with the counts")
			}
		})
	}
	// The bounds must admit the seed set; Config.Validate is the one check.
	for _, b := range [][2]int{{3, 4}, {1, 1}} {
		cfg := tinyConfig(t, AlgCPUGPUHogbatch)
		cfg.ElasticPolicy = &stubPolicy{}
		cfg.MinWorkers, cfg.MaxWorkers = b[0], b[1]
		if cfg.Validate() == nil {
			t.Fatalf("bounds [%d, %d] around 2 seed workers accepted", b[0], b[1])
		}
	}
}

func TestGuardStateRollbackAndDivergence(t *testing.T) {
	cfg := tinyConfig(t, AlgHogbatchCPU)
	global := cfg.Net.NewParams(nn.InitXavier, RunRNG(cfg.Seed))
	g := newGuardState(true, global)
	rec := &record{}

	// A finite loss checkpoints and keeps the scale at 1.
	if rb, dv := g.onEval(0.5, global, rec, 0); rb || dv {
		t.Fatal("finite loss must not roll back")
	}
	want := global.Clone()
	global.Weights[0].Data[0] = math.NaN()

	// First NaN: rollback, halved LR, not yet diverged.
	rb, dv := g.onEval(math.NaN(), global, rec, 0)
	if !rb || dv {
		t.Fatalf("rollback=%v diverged=%v after first NaN", rb, dv)
	}
	if !global.AllFinite() || global.Weights[0].Data[0] != want.Weights[0].Data[0] {
		t.Fatal("model not restored from checkpoint")
	}
	if g.scale() != guardLRBackoff {
		t.Fatalf("lr scale %v, want %v", g.scale(), guardLRBackoff)
	}
	// A finite loss resets the retry budget.
	g.onEval(0.4, global, rec, 0)
	if g.retries != 0 {
		t.Fatal("retries not reset by finite loss")
	}
	// Two full budgets of guardMaxRetries rollbacks, a finite loss between
	// them, walk the scale down to its floor, where it holds; one rollback
	// more than the budget declares divergence.
	for round := 0; round < 2; round++ {
		for i := 0; i < guardMaxRetries; i++ {
			if _, dv := g.onEval(math.Inf(1), global, rec, 0); dv {
				t.Fatalf("diverged too early at retry %d", i+1)
			}
		}
		if round == 0 {
			g.onEval(0.3, global, rec, 0)
		}
	}
	if g.scale() != guardMinLRScale {
		t.Fatalf("lr scale %v, want floor %v", g.scale(), guardMinLRScale)
	}
	if _, dv := g.onEval(math.Inf(1), global, rec, 0); !dv {
		t.Fatal("retry budget exhausted but not diverged")
	}
	if g.scale() != guardMinLRScale {
		t.Fatalf("lr scale %v, want floor %v", g.scale(), guardMinLRScale)
	}
	if want, log := 2+2*guardMaxRetries, rec.events; log.Count("diverged") != 1 || log.Count("rollback") != want {
		t.Fatalf("incidents:\n%s\nwant %d rollbacks and one divergence", log, want)
	}

	// Nil guard is inert.
	var nilG *guardState
	if nilG.scale() != 1 || nilG.snapshot() != nil {
		t.Fatal("nil guard not inert")
	}
	if rb, dv := nilG.onEval(math.NaN(), global, rec, 0); rb || dv {
		t.Fatal("nil guard must not act")
	}
}

func TestSplitBatch(t *testing.T) {
	cfg := tinyConfig(t, AlgHogbatchCPU)
	batch := cfg.Dataset.View(0, 100)
	chunks := splitBatch(batch, 32)
	if len(chunks) != 4 {
		t.Fatalf("got %d chunks", len(chunks))
	}
	total := 0
	for i, c := range chunks {
		if c.Size() > 32 {
			t.Fatalf("chunk %d oversized: %d", i, c.Size())
		}
		total += c.Size()
	}
	if total != 100 {
		t.Fatalf("chunks cover %d of 100 rows", total)
	}
	if got := splitBatch(batch, 200); len(got) != 1 || got[0].Size() != 100 {
		t.Fatal("under-limit batch must pass through")
	}
	if got := splitBatch(batch, 0); len(got) != 1 {
		t.Fatal("non-positive limit must pass through")
	}
}

func TestWatchdogDeadlineFloor(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	wd := &WatchdogConfig{Slack: 2, Floor: time.Second}
	d := watchdogDeadline(wd, &cfg.Workers[0], cfg.Net.Arch, 8, 1<<20)
	if d != time.Second {
		t.Fatalf("floor not applied: %v", d)
	}
	wd.Floor = 0
	d = watchdogDeadline(wd, &cfg.Workers[0], cfg.Net.Arch, 8, 1<<20)
	want := 2 * cfg.Workers[0].Device.IterTime(cfg.Net.Arch, 8, 1<<20)
	if d != want {
		t.Fatalf("deadline %v, want %v", d, want)
	}
}

// --- simulated-engine fault tests (fully deterministic) ---

func TestSimCrashedWorkerSurvived(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.Faults = faults.NewPlan(7, faults.CrashAfter(1, 3))
	res, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if res.Health.Workers[1].State != WorkerCrashed || res.Health.Workers[1].Crashes != 1 {
		t.Fatalf("worker 1 health: %+v", res.Health.Workers[1])
	}
	if res.Health.Workers[0].State != WorkerHealthy {
		t.Fatalf("survivor health: %+v", res.Health.Workers[0])
	}
	if res.Health.Redispatches < 1 {
		t.Fatal("crashed worker's batch was not re-dispatched")
	}
	if res.Events.Count("crash") != 1 {
		t.Fatalf("event log:\n%s", res.Events)
	}
	if res.FinalLoss >= res.Trace.Points[0].Loss*0.8 {
		t.Fatalf("training did not continue on survivor: %v → %v",
			res.Trace.Points[0].Loss, res.FinalLoss)
	}
	if !res.Health.Faulty() {
		t.Fatal("report must be faulty")
	}
}

func TestSimAllWorkersCrashedErrors(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.Faults = faults.NewPlan(7, faults.CrashAfter(0, 2), faults.CrashAfter(1, 2))
	_, err := RunSim(context.Background(), cfg, simHorizon)
	if err == nil {
		t.Fatal("expected an error when every worker crashes")
	}
	if !strings.Contains(err.Error(), "all 2 workers failed") {
		t.Fatalf("undescriptive error: %v", err)
	}
}

func TestSimHangQuarantineAndReadmission(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	// The hang (1ms virtual) dwarfs the modeled iteration times (µs scale),
	// so the deadline fires mid-hang and the completion readmits.
	cfg.Faults = faults.NewPlan(7, faults.HangAfter(1, 4, time.Millisecond))
	cfg.Watchdog = &WatchdogConfig{Slack: 2, Floor: 10 * time.Microsecond}
	res, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	w1 := res.Health.Workers[1]
	if w1.Timeouts < 1 {
		t.Fatalf("watchdog never fired: %+v\n%s", w1, res.Events)
	}
	if w1.Readmissions < 1 {
		t.Fatalf("hung worker never readmitted: %+v\n%s", w1, res.Events)
	}
	if w1.State != WorkerHealthy {
		t.Fatalf("worker 1 should finish healthy: %+v", w1)
	}
	if res.Health.Redispatches < 1 {
		t.Fatal("overdue batch was not re-dispatched")
	}
	if res.Events.Count("timeout") < 1 || res.Events.Count("readmit") < 1 {
		t.Fatalf("event log:\n%s", res.Events)
	}
}

func TestSimCorruptGradientGuarded(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.Faults = faults.NewPlan(7,
		faults.CorruptGradient(0, 0.5), faults.CorruptGradient(1, 0.5))
	cfg.Guards = true
	res, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if res.Health.DroppedUpdates == 0 {
		t.Fatal("corruption at 50% rate never dropped an update")
	}
	if !res.Params.AllFinite() {
		t.Fatal("non-finite parameters leaked past the guard")
	}
	if !isFinite(res.FinalLoss) {
		t.Fatalf("final loss %v", res.FinalLoss)
	}
	if res.Checkpoint == nil || !res.Checkpoint.AllFinite() {
		t.Fatal("guarded run must carry a finite checkpoint")
	}
}

func TestSimThrottledStragglerNotQuarantined(t *testing.T) {
	// A throttled worker is legitimately slow, not hung: its watchdog
	// deadline derives from its own (throttled) cost model, so straggler
	// injection composes with fault tolerance without tripping quarantine —
	// and a crash elsewhere still fails over onto the slow survivor.
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.Workers[1].Device = device.NewThrottled(cfg.Workers[1].Device, 50, 2)
	cfg.Watchdog = &WatchdogConfig{Slack: 2, Floor: 10 * time.Microsecond}
	cfg.Faults = faults.NewPlan(7, faults.CrashAfter(0, 2))
	res, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	w1 := res.Health.Workers[1]
	if w1.Timeouts != 0 || w1.State != WorkerHealthy {
		t.Fatalf("throttled worker was treated as hung: %+v\n%s", w1, res.Events)
	}
	if res.Health.Workers[0].State != WorkerCrashed {
		t.Fatalf("worker 0 health: %+v", res.Health.Workers[0])
	}
	if res.FinalLoss >= res.Trace.Points[0].Loss {
		t.Fatalf("training did not continue on throttled survivor: %v → %v",
			res.Trace.Points[0].Loss, res.FinalLoss)
	}
}

func TestSimFaultRunsAreDeterministic(t *testing.T) {
	mk := func() Config {
		cfg := tinyConfig(t, AlgAdaptiveHogbatch)
		cfg.Faults = faults.NewPlan(11,
			faults.CorruptGradient(0, 0.3),
			faults.HangAfter(1, 6, time.Millisecond))
		cfg.Watchdog = &WatchdogConfig{Slack: 2, Floor: 10 * time.Microsecond}
		cfg.Guards = true
		return cfg
	}
	r1, err1 := RunSim(context.Background(), mk(), simHorizon)
	r2, err2 := RunSim(context.Background(), mk(), simHorizon)
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
	e1, e2 := r1.Events, r2.Events
	if len(e1) != len(e2) {
		t.Fatalf("event counts differ: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, e1[i], e2[i])
		}
	}
	if r1.Health.DroppedUpdates != r2.Health.DroppedUpdates ||
		r1.Health.Redispatches != r2.Health.Redispatches {
		t.Fatal("fault reports differ between identical runs")
	}
}

// --- real-engine fault tests ---

func TestRealCrashedWorkerSurvivorConverges(t *testing.T) {
	// Healthy single-CPU baseline establishes a reachable target.
	healthy := tinyConfig(t, AlgHogbatchCPU)
	healthy.UpdateMode = tensor.UpdateLocked
	base, err := RunReal(context.Background(), healthy, realBudget)
	if err != nil {
		t.Fatal(err)
	}
	target := base.FinalLoss * 1.2

	// Hybrid run whose GPU worker dies on its first dispatch: the CPU
	// survivor must still reach the same target. A later trigger could lose
	// the race against TargetLoss — a slow GPU (say, under -race) may not
	// reach its fourth dispatch before the survivor converges.
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.UpdateMode = tensor.UpdateLocked
	cfg.Faults = faults.NewPlan(7, faults.CrashAfter(1, 0))
	cfg.TargetLoss = target
	res, err := RunReal(context.Background(), cfg, 4*realBudget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Health.Workers[1].State != WorkerCrashed {
		t.Fatalf("worker 1 health: %+v", res.Health.Workers[1])
	}
	if res.Health.Workers[0].State != WorkerHealthy {
		t.Fatalf("survivor health: %+v", res.Health.Workers[0])
	}
	if !res.Converged {
		t.Fatalf("survivor did not reach target %.4f (final %.4f)\n%s",
			target, res.FinalLoss, res.Events)
	}
	if res.Events.Count("crash") != 1 {
		t.Fatalf("event log:\n%s", res.Events)
	}
	if !res.Health.Faulty() {
		t.Fatal("report must be faulty")
	}
}

func TestRealAllWorkersCrashedErrors(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.UpdateMode = tensor.UpdateLocked
	cfg.Faults = faults.NewPlan(7, faults.CrashAfter(0, 1), faults.CrashAfter(1, 1))
	_, err := RunReal(context.Background(), cfg, realBudget)
	if err == nil {
		t.Fatal("expected an error when every worker crashes")
	}
	if !strings.Contains(err.Error(), "all 2 workers failed") {
		t.Fatalf("undescriptive error: %v", err)
	}
}

func TestRealHangTriggersWatchdogRedispatch(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.UpdateMode = tensor.UpdateLocked
	// The hang outlives the whole budget; only the watchdog can recover.
	cfg.Faults = faults.NewPlan(7, faults.HangAfter(1, 3, 30*time.Second))
	cfg.Watchdog = &WatchdogConfig{Slack: 4, Floor: 30 * time.Millisecond}
	start := time.Now()
	res, err := RunReal(context.Background(), cfg, realBudget)
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 10*time.Second {
		t.Fatalf("hung worker stalled the run for %v", wall)
	}
	w1 := res.Health.Workers[1]
	if w1.Timeouts < 1 || w1.State != WorkerQuarantined {
		t.Fatalf("worker 1 not quarantined: %+v\n%s", w1, res.Events)
	}
	if res.Health.Redispatches < 1 {
		t.Fatal("overdue batch was not re-dispatched")
	}
	if res.Health.Workers[0].State != WorkerHealthy {
		t.Fatalf("survivor health: %+v", res.Health.Workers[0])
	}
	if res.FinalLoss >= res.Trace.Points[0].Loss*0.9 {
		t.Fatalf("training stalled: %v → %v", res.Trace.Points[0].Loss, res.FinalLoss)
	}
}

// TestRealResultFinalAtReturn: the run report belongs to the coordinator, so
// a quarantined straggler that wakes after RunReal has returned — past
// shutdown's bounded wait — changes neither the update counts nor the
// utilization trace the caller already holds.
func TestRealResultFinalAtReturn(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.UpdateMode = tensor.UpdateLocked
	const hang = time.Second
	cfg.Faults = faults.NewPlan(7, faults.HangAfter(1, 3, hang))
	cfg.Watchdog = &WatchdogConfig{Slack: 4, Floor: 30 * time.Millisecond}
	before := runtime.NumGoroutine()
	res, err := RunReal(context.Background(), cfg, realBudget)
	if err != nil {
		t.Fatal(err)
	}
	if w1 := res.Health.Workers[1]; w1.State != WorkerQuarantined {
		t.Fatalf("worker 1 not quarantined: %+v\n%s", w1, res.Events)
	}
	report := func() (map[string]int64, map[string][]float64) {
		util := map[string][]float64{}
		for d, busy := range res.Utilization {
			util[d] = metrics.Series(busy, 2*hang, 4*time.Millisecond)
		}
		return maps.Clone(res.Updates), util
	}
	updates, util := report()
	// The straggler's goroutine ends once its iteration is done.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the run, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
	lateUpdates, lateUtil := report()
	if !reflect.DeepEqual(updates, lateUpdates) {
		t.Errorf("updates changed after return: %v → %v", updates, lateUpdates)
	}
	if !reflect.DeepEqual(util, lateUtil) {
		t.Error("utilization changed after return")
	}
}

func TestRealCorruptGradientGuarded(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.UpdateMode = tensor.UpdateLocked
	cfg.Faults = faults.NewPlan(7,
		faults.CorruptGradient(0, 0.5), faults.CorruptGradient(1, 0.5))
	cfg.Guards = true
	res, err := RunReal(context.Background(), cfg, realBudget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Health.DroppedUpdates == 0 {
		t.Fatal("corruption at 50% rate never dropped an update")
	}
	if !res.Params.AllFinite() {
		t.Fatal("non-finite parameters leaked past the guard")
	}
	if !isFinite(res.FinalLoss) {
		t.Fatalf("final loss %v", res.FinalLoss)
	}
}

func TestRealOvershootRecordedAndTraceClamped(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.UpdateMode = tensor.UpdateLocked
	budget := 100 * time.Millisecond
	res, err := RunReal(context.Background(), cfg, budget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration < budget {
		t.Fatalf("duration %v below budget %v without convergence", res.Duration, budget)
	}
	if got, want := res.Overshoot, res.Duration-budget; got != want {
		t.Fatalf("overshoot %v, want %v", got, want)
	}
	last := res.Trace.Points[len(res.Trace.Points)-1]
	// The final point is clamped to the budget boundary (modulo an earlier
	// barrier sample that itself crossed it by its eval time).
	limit := budget
	for _, p := range res.Trace.Points[:len(res.Trace.Points)-1] {
		if p.Time > limit {
			limit = p.Time
		}
	}
	if last.Time > limit {
		t.Fatalf("final trace point %v beyond clamp %v (overshoot %v)", last.Time, limit, res.Overshoot)
	}
}
