package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"heterosgd/internal/data"
	"heterosgd/internal/elastic"
	"heterosgd/internal/faults"
	"heterosgd/internal/nn"
	"heterosgd/internal/tensor"
	"heterosgd/internal/transport"
)

// elasticHorizon is long enough for the tiny problem to pass several epoch
// barriers so every scripted membership event fires.
const elasticHorizon = 40 * time.Millisecond

func churnConfig(t *testing.T, alg Algorithm) Config {
	t.Helper()
	cfg := tinyConfig(t, alg)
	cfg.Shuffle = true
	cfg.Elastic = elastic.NewPlan(1,
		elastic.JoinAt(3),      // fresh worker (id 2) after 3 completed dispatches
		elastic.LeaveAt(1, 12), // the GPU drains gracefully after 12
	)
	return cfg
}

// TestSimElasticChurnDeterminism is the tentpole invariant: a seeded
// membership plan (join at dispatch A, leave at dispatch B) replayed twice
// through the deterministic engine must produce byte-identical trajectories —
// same trace, same example accounting, same final parameters bit for bit.
func TestSimElasticChurnDeterminism(t *testing.T) {
	run := func() *Result {
		cfg := churnConfig(t, AlgCPUGPUHogbatch)
		res, err := RunSim(context.Background(), cfg, elasticHorizon)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()

	if a.Elastic == nil || !a.Elastic.Churned() {
		t.Fatalf("expected churn, got %v", a.Elastic)
	}
	if a.Elastic.Joins != 1 || a.Elastic.Leaves != 1 {
		t.Fatalf("churn accounting: %+v", a.Elastic)
	}
	if *a.Elastic != *b.Elastic {
		t.Fatalf("elastic reports diverge: %+v vs %+v", a.Elastic, b.Elastic)
	}
	if a.ExamplesProcessed != b.ExamplesProcessed || a.Epochs != b.Epochs {
		t.Fatalf("trajectory diverged: %d/%v vs %d/%v examples/epochs",
			a.ExamplesProcessed, a.Epochs, b.ExamplesProcessed, b.Epochs)
	}
	if d := a.Params.MaxAbsDiff(b.Params); d != 0 {
		t.Fatalf("final params differ by %g between identical churn runs", d)
	}
	if len(a.Trace.Points) != len(b.Trace.Points) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a.Trace.Points), len(b.Trace.Points))
	}
	for i := range a.Trace.Points {
		if a.Trace.Points[i] != b.Trace.Points[i] {
			t.Fatalf("trace point %d differs: %+v vs %+v", i, a.Trace.Points[i], b.Trace.Points[i])
		}
	}

	// Churn is membership, not failure: the health report must stay clean,
	// with the leaver recorded as departed rather than crashed.
	if a.Health.Faulty() {
		t.Fatalf("clean churn flagged faulty: %s", a.Health)
	}
	if len(a.Health.Workers) != 3 {
		t.Fatalf("expected 3 worker slots after join, got %d", len(a.Health.Workers))
	}
	if st := a.Health.Workers[1].State; st != WorkerDeparted {
		t.Fatalf("leaver state = %v, want departed", st)
	}
	if st := a.Health.Workers[2].State; st != WorkerHealthy {
		t.Fatalf("joiner state = %v, want healthy", st)
	}
}

// TestSimElasticSSPChurn drives join, leave, and evict through the SSP gate:
// the staleness bound must hold across every membership change (joiners
// enter at the min clock, departures advance it), and the run must finish.
func TestSimElasticSSPChurn(t *testing.T) {
	cfg := tinyConfig(t, AlgSSP)
	cfg.StalenessBound = 2
	cfg.Elastic = elastic.NewPlan(7,
		elastic.JoinAt(4),
		elastic.JoinAt(8),
		elastic.LeaveAt(0, 14),
		elastic.EvictAt(2, 20),
	)
	res, err := RunSim(context.Background(), cfg, elasticHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elastic.Joins != 2 || res.Elastic.Leaves != 1 || res.Elastic.Evictions != 1 {
		t.Fatalf("churn accounting: %+v", res.Elastic)
	}
	if res.Staleness.Max > 2 {
		t.Fatalf("SSP bound violated under churn: max staleness %d > 2", res.Staleness.Max)
	}
	if res.Elastic.Rebalances < 4 {
		t.Fatalf("expected a rebalance per membership change, got %d", res.Elastic.Rebalances)
	}
	if res.Epochs <= 0 {
		t.Fatal("run made no progress under churn")
	}
}

// stubPolicy drives a fixed decision sequence, independent of load — the
// policy engine's wiring (barrier consult, join/leave execution, bounds) is
// what this exercises; LoadPolicy's signal logic has its own unit tests.
type stubPolicy struct{ decisions []elastic.Decision }

func (p *stubPolicy) Decide(elastic.Sample) elastic.Decision {
	if len(p.decisions) == 0 {
		return elastic.Hold
	}
	d := p.decisions[0]
	p.decisions = p.decisions[1:]
	return d
}

func (p *stubPolicy) String() string { return "stub" }

// TestSimElasticPolicyAutoscale checks the epoch-barrier policy hook: a
// Grow decision admits a worker (within MaxWorkers), a Shrink decision
// drains one (down to MinWorkers), and the run stays healthy throughout.
func TestSimElasticPolicyAutoscale(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.ElasticPolicy = &stubPolicy{decisions: []elastic.Decision{elastic.Grow, elastic.Shrink}}
	cfg.MinWorkers = 1
	cfg.MaxWorkers = 3
	res, err := RunSim(context.Background(), cfg, elasticHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elastic == nil {
		t.Fatal("policy run produced no elastic report")
	}
	if res.Elastic.Joins != 1 {
		t.Fatalf("policy grow did not admit a worker: %+v", res.Elastic)
	}
	if res.Elastic.Leaves != 1 {
		t.Fatalf("policy shrink did not drain a worker: %+v", res.Elastic)
	}
	if res.Elastic.Peak != 3 || res.Elastic.Final != 2 {
		t.Fatalf("peak/final = %d/%d, want 3/2", res.Elastic.Peak, res.Elastic.Final)
	}
	if res.Health.Faulty() {
		t.Fatalf("autoscale flagged faulty: %s", res.Health)
	}
}

// TestRealElasticChurn drives a scripted join and a graceful leave through
// the live-goroutine engine: the joiner's goroutine spawns mid-run and does
// real work, the leaver drains cleanly (departed, not faulty), and the run
// keeps learning across both membership changes.
func TestRealElasticChurn(t *testing.T) {
	cfg := churnConfig(t, AlgCPUGPUHogbatch)
	cfg.UpdateMode = tensor.UpdateLocked // race-detector-clean
	res, err := RunReal(context.Background(), cfg, realBudget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elastic == nil || res.Elastic.Joins != 1 || res.Elastic.Leaves != 1 {
		t.Fatalf("churn accounting: %+v", res.Elastic)
	}
	if res.Health.Faulty() {
		t.Fatalf("clean churn flagged faulty: %s", res.Health)
	}
	if len(res.Health.Workers) != 3 {
		t.Fatalf("expected 3 worker slots after join, got %d", len(res.Health.Workers))
	}
	if st := res.Health.Workers[1].State; st != WorkerDeparted {
		t.Fatalf("leaver state = %v, want departed", st)
	}
	if st := res.Health.Workers[2].State; st != WorkerHealthy {
		t.Fatalf("joiner state = %v, want healthy", st)
	}
	// The joiner must have done real work on its live goroutine.
	snap := res.Updates
	joiner := res.Health.Workers[2].Worker
	if snap[joiner] == 0 {
		t.Fatalf("joiner %q recorded no updates: %v", joiner, snap)
	}
	if res.FinalLoss >= res.Trace.Points[0].Loss*0.9 {
		t.Fatalf("churn run failed to learn: %v → %v", res.Trace.Points[0].Loss, res.FinalLoss)
	}
}

// TestRealElasticPolicyAutoscale exercises the barrier-time policy hook on
// the live engine with a stubbed decision sequence.
func TestRealElasticPolicyAutoscale(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.UpdateMode = tensor.UpdateLocked
	cfg.ElasticPolicy = &stubPolicy{decisions: []elastic.Decision{elastic.Grow, elastic.Shrink}}
	cfg.MinWorkers = 1
	cfg.MaxWorkers = 3
	res, err := RunReal(context.Background(), cfg, realBudget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elastic == nil || res.Elastic.Joins != 1 || res.Elastic.Leaves != 1 {
		t.Fatalf("autoscale accounting: %+v", res.Elastic)
	}
	if res.Elastic.Peak != 3 || res.Elastic.Final != 2 {
		t.Fatalf("peak/final = %d/%d, want 3/2", res.Elastic.Peak, res.Elastic.Final)
	}
	if res.Health.Faulty() {
		t.Fatalf("autoscale flagged faulty: %s", res.Health)
	}
}

// TestClusterElasticChurn is the networked churn scenario from the issue: a
// two-worker SSP cluster over loopback TCP suffers a severed-and-healed link
// on worker 0, admits a fresh third worker mid-run through the Join
// handshake, and gracefully drains worker 1 after it announces departure.
// Exactly-once accounting (applied == scheduled) and the SSP staleness bound
// must survive all three membership perturbations at once.
func TestClusterElasticChurn(t *testing.T) {
	spec := tinySpec()
	ds := data.Generate(spec, 42)
	nw := nn.MustNetwork(spec.Arch())
	cfg := NewConfig(AlgSSP, nw, ds, tinyPreset())
	cfg.BaseLR = 0.1
	cfg.RefBatch = 4
	cfg.EvalSubset = 256
	cfg.Shuffle = true
	cfg.Guards = true
	cfg.StalenessBound = 2
	cfg.MaxWorkers = 3 // headroom for one live joiner

	trans, err := transport.ListenTCP("127.0.0.1:0", len(cfg.Workers), ClusterTCPOptions(&cfg, 50*time.Millisecond, 0))
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.NewLinkPlan(7, faults.SeverLink(0, 2, 1))
	proxy, err := transport.NewProxy("127.0.0.1:0", trans.Addr(), plan)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clientOpts := transport.ClientOptions{
		Seed:        1,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	}
	runWorker := func(id int, addr string, leaveAfter int) error {
		wspec := tinySpec()
		wds := data.Generate(wspec, 42)
		wnet := nn.MustNetwork(wspec.Arch())
		return RunClusterWorker(ctx, addr, id, wnet, wds, ClusterWorkerOptions{
			Client:     clientOpts,
			Threads:    2,
			LeaveAfter: leaveAfter,
		})
	}
	var wg sync.WaitGroup
	// Worker 0 dials through the severing proxy; worker 1 leaves gracefully
	// after a few dispatches.
	for id, leaveAfter := range map[int]int{0: 0, 1: 6} {
		wg.Add(1)
		go func(id, leaveAfter int) {
			defer wg.Done()
			if err := runWorker(id, proxy.Addr(), leaveAfter); err != nil && ctx.Err() == nil {
				t.Errorf("worker %d: %v", id, err)
			}
		}(id, leaveAfter)
	}
	// The elastic joiner attaches mid-run (direct, bypassing the proxy) with
	// no pre-assigned ID: the Join handshake gets it slot 2.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(250 * time.Millisecond)
		if err := runWorker(-1, trans.Addr(), 0); err != nil && ctx.Err() == nil {
			t.Errorf("joiner: %v", err)
		}
	}()

	res, err := RunCluster(ctx, cfg, 1200*time.Millisecond, trans, ClusterOptions{AttachTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	wg.Wait()

	if res.Elastic == nil || res.Elastic.Joins != 1 || res.Elastic.Leaves != 1 {
		t.Fatalf("churn accounting: %+v", res.Elastic)
	}
	tr := res.Health.Transport
	if tr == nil {
		t.Fatal("no transport report")
	}
	if tr.AppliedExamples != res.ExamplesProcessed {
		t.Fatalf("exactly-once violated under churn: applied %d examples, scheduled %d (duplicates %d, abandoned %d)",
			tr.AppliedExamples, res.ExamplesProcessed, tr.Duplicates, tr.Abandoned)
	}
	if tr.Partitions == 0 {
		t.Fatal("sever plan produced no partition")
	}
	if res.Staleness.Max > 2 {
		t.Fatalf("SSP bound violated under churn: max staleness %d > 2\n%s", res.Staleness.Max, res.Staleness)
	}
	if len(res.Health.Workers) != 3 {
		t.Fatalf("expected 3 worker slots after join, got %d", len(res.Health.Workers))
	}
	if st := res.Health.Workers[1].State; st != WorkerDeparted {
		t.Fatalf("leaver state = %v, want departed", st)
	}
	if st := res.Health.Workers[2].State; st != WorkerHealthy {
		t.Fatalf("joiner state = %v, want healthy", st)
	}
	joiner := res.Health.Workers[2].Worker
	if res.Updates[joiner] == 0 {
		t.Fatalf("joiner %q recorded no updates: %v", joiner, res.Updates)
	}
	if res.FinalLoss >= res.Trace.Points[0].Loss {
		t.Fatalf("churn cluster run did not learn: %v → %v", res.Trace.Points[0].Loss, res.FinalLoss)
	}
}

// TestClusterRejectsScriptedElastic pins that cluster membership is
// transport-driven: scripted plans and autoscale policies are refused.
func TestClusterRejectsScriptedElastic(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.Elastic = elastic.NewPlan(1, elastic.JoinAt(1))
	if _, err := RunCluster(context.Background(), cfg, time.Second, transport.NewLocal(2), ClusterOptions{}); err == nil {
		t.Fatal("scripted plan accepted by RunCluster")
	}
	cfg = tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.ElasticPolicy = elastic.NewLoadPolicy()
	if _, err := RunCluster(context.Background(), cfg, time.Second, transport.NewLocal(2), ClusterOptions{}); err == nil {
		t.Fatal("autoscale policy accepted by RunCluster")
	}
}

// TestElasticConfigValidation pins the config-level rejections.
func TestElasticConfigValidation(t *testing.T) {
	cfg := tinyConfig(t, AlgLocalSGD)
	cfg.Elastic = elastic.NewPlan(1, elastic.JoinAt(1))
	if err := cfg.Validate(); err == nil {
		t.Fatal("LocalSGD accepted an elastic plan")
	}
	cfg = tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.Elastic = elastic.NewPlan(1, elastic.LeaveAt(5, 1))
	if err := cfg.Validate(); err == nil {
		t.Fatal("plan targeting a worker that never exists was accepted")
	}
	cfg = tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.Elastic = elastic.NewPlan(1, elastic.JoinAt(1))
	cfg.MaxWorkers = 1
	if err := cfg.Validate(); err == nil {
		t.Fatal("MaxWorkers below the initial count was accepted")
	}
	// Capacity: initial + scripted joins, or MaxWorkers if larger.
	cfg = tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.Elastic = elastic.NewPlan(1, elastic.JoinAt(1), elastic.JoinAt(2))
	if got := cfg.Capacity(); got != 4 {
		t.Fatalf("Capacity = %d, want 4", got)
	}
	cfg.MaxWorkers = 6
	if got := cfg.Capacity(); got != 6 {
		t.Fatalf("Capacity = %d, want 6", got)
	}
}

// eventsOf returns the log's events of kind for worker.
func eventsOf(res *Result, worker, kind string) []time.Duration {
	var at []time.Duration
	for _, e := range res.Events {
		if e.Worker == worker && e.Kind == kind {
			at = append(at, e.At)
		}
	}
	return at
}

// TestSimCrashedWorkerFreesElasticSlot: a crashed worker is not active, so
// it holds no slot under MaxWorkers — the policy's grow admits its
// replacement, and the final count leaves the dead worker out.
func TestSimCrashedWorkerFreesElasticSlot(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.Faults = faults.NewPlan(7, faults.CrashAfter(1, 2))
	// The first barrier comes before the crash, at max; the second after.
	cfg.ElasticPolicy = &stubPolicy{decisions: []elastic.Decision{elastic.Grow, elastic.Grow}}
	cfg.MaxWorkers = 2
	res, err := RunSim(context.Background(), cfg, elasticHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elastic.Joins != 1 {
		t.Fatalf("replacement for the crashed worker not admitted: %+v\n%s", res.Elastic, res.Events)
	}
	if res.Health.Workers[1].State != WorkerCrashed {
		t.Fatalf("worker 1: %+v", res.Health.Workers[1])
	}
	if res.Elastic.Final != 2 || res.Elastic.Peak != 2 {
		t.Fatalf("final/peak = %d/%d, want 2/2 (the crashed worker is not active)", res.Elastic.Final, res.Elastic.Peak)
	}
}

// TestSimRecoveryBatchSkipsLeaver: a draining worker is not dispatchable, so
// a crashed worker's batch goes to a healthy survivor at once instead of
// waiting on the leaver and being re-routed again when it departs.
func TestSimRecoveryBatchSkipsLeaver(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.Elastic = elastic.NewPlan(1, elastic.JoinAt(1), elastic.LeaveAt(1, 4))
	cfg.Faults = faults.NewPlan(7, faults.CrashAfter(0, 3))
	res, err := RunSim(context.Background(), cfg, elasticHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if res.Health.Workers[0].State != WorkerCrashed || res.Health.Workers[1].State != WorkerDeparted {
		t.Fatalf("scenario did not play out: %+v\n%s", res.Health.Workers, res.Events)
	}
	if res.Health.Redispatches != 1 {
		t.Fatalf("redispatches = %d for one lost batch, want 1\n%s", res.Health.Redispatches, res.Events)
	}
	if at := eventsOf(res, "gpu0", "redispatch"); len(at) != 0 {
		t.Fatalf("recovery batch parked on the draining gpu0 at %v\n%s", at, res.Events)
	}
}

// TestSimLeaverTimeoutDepartsAtOnce: a leaver that misses its deadline
// departs on the spot — one timeout, no readmission — and exactly-once
// accounting still balances.
func TestSimLeaverTimeoutDepartsAtOnce(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	cfg.Elastic = elastic.NewPlan(1, elastic.LeaveAt(1, 6))
	cfg.Faults = faults.NewPlan(7, faults.HangAfter(1, 0, time.Millisecond))
	cfg.Watchdog = &WatchdogConfig{Slack: 2, Floor: 10 * time.Microsecond}
	x, err := newSimExec(context.Background(), &cfg, elasticHorizon)
	if err != nil {
		t.Fatal(err)
	}
	res, err := x.l.loop()
	if err != nil {
		t.Fatal(err)
	}
	w1 := res.Health.Workers[1]
	if w1.State != WorkerDeparted || w1.Timeouts != 1 || w1.Readmissions != 0 {
		t.Fatalf("leaver: %+v, want departed with 1 timeout and 0 readmissions\n%s", w1, res.Events)
	}
	timeout, depart := eventsOf(res, "gpu0", "timeout"), eventsOf(res, "gpu0", "depart")
	if len(timeout) != 1 || len(depart) != 1 || depart[0] != timeout[0] {
		t.Fatalf("timeout at %v, depart at %v: the leaver must depart at its timeout\n%s", timeout, depart, res.Events)
	}
	if got := x.l.tr.AppliedExamples; got != res.ExamplesProcessed {
		t.Fatalf("applied %d examples, scheduled %d", got, res.ExamplesProcessed)
	}
}
