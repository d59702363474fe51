package core

import (
	"context"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"heterosgd/internal/data"
	"heterosgd/internal/faults"
	"heterosgd/internal/nn"
	"heterosgd/internal/tensor"
	"heterosgd/internal/transport"
)

// clusterHarness runs a full coordinator + N in-process cluster workers over
// loopback TCP, every worker dialing through a partition-injection proxy
// driven by plan. Each participant builds its own copy of the dataset (as
// separate processes would), exercising the shuffle-replay contract.
func clusterHarness(t *testing.T, alg Algorithm, plan *faults.LinkPlan, budget time.Duration, tweak ...func(id int, o *ClusterWorkerOptions)) *Result {
	t.Helper()
	return clusterRun(t, clusterConfig(alg), plan, budget, tweak...)
}

// clusterConfig is the configuration clusterHarness trains: the tiny
// problem, reshuffled, with guards.
func clusterConfig(alg Algorithm) Config {
	spec := tinySpec()
	cfg := NewConfig(alg, nn.MustNetwork(spec.Arch()), data.Generate(spec, 42), tinyPreset())
	cfg.BaseLR = 0.1
	cfg.RefBatch = 4
	cfg.EvalSubset = 256
	cfg.Shuffle = true
	cfg.Guards = true
	if alg == AlgSSP {
		cfg.StalenessBound = 2
	}
	return cfg
}

// clusterRun is clusterHarness on a clusterConfig the caller has adjusted.
func clusterRun(t *testing.T, cfg Config, plan *faults.LinkPlan, budget time.Duration, tweak ...func(id int, o *ClusterWorkerOptions)) *Result {
	t.Helper()
	trans, err := transport.ListenTCP("127.0.0.1:0", len(cfg.Workers), ClusterTCPOptions(&cfg, 100*time.Millisecond, 0))
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := transport.NewProxy("127.0.0.1:0", trans.Addr(), plan)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := range cfg.Workers {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			wspec := tinySpec()
			wds := data.Generate(wspec, 42)
			wnet := nn.MustNetwork(wspec.Arch())
			opts := ClusterWorkerOptions{
				Client: transport.ClientOptions{
					Seed:        1,
					BackoffBase: 5 * time.Millisecond,
					BackoffMax:  50 * time.Millisecond,
				},
				Threads: 2,
			}
			for _, f := range tweak {
				f(id, &opts)
			}
			err := RunClusterWorker(ctx, proxy.Addr(), id, wnet, wds, opts)
			if err != nil && ctx.Err() == nil {
				t.Errorf("worker %d: %v", id, err)
			}
		}(i)
	}

	res, err := RunCluster(ctx, cfg, budget, trans, ClusterOptions{AttachTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	wg.Wait()
	return res
}

// TestClusterExactlyOnceInvariant drives a two-worker cluster through a
// severed-then-healed link on worker 1 and permanently duplicated completion
// frames on worker 0, then checks the exactly-once invariant: every
// scheduled example's update landed in the global model exactly once —
// duplicates and abandoned stragglers were discarded, the severed worker's
// stranded batch was re-dispatched and applied by the survivor, and nothing
// was lost or double-applied.
func TestClusterExactlyOnceInvariant(t *testing.T) {
	plan := faults.NewLinkPlan(7,
		faults.DupFrames(0, 1.0),
		faults.SeverLink(1, 2, 1),
	)
	res := clusterHarness(t, AlgCPUGPUHogbatch, plan, 1200*time.Millisecond)

	tr := res.Health.Transport
	if tr == nil {
		t.Fatal("no transport report")
	}
	if tr.AppliedExamples != res.ExamplesProcessed {
		t.Fatalf("exactly-once violated: applied %d examples, scheduled %d (duplicates %d, abandoned %d)",
			tr.AppliedExamples, res.ExamplesProcessed, tr.Duplicates, tr.Abandoned)
	}
	if tr.Duplicates == 0 {
		t.Fatal("dup-injecting proxy produced no duplicate completions — dedupe path untested")
	}
	if tr.Partitions == 0 {
		t.Fatal("sever plan produced no partition")
	}
	if tr.Abandoned == 0 {
		t.Fatalf("severed dispatch was never abandoned — the stranded completion should have been discarded\n%s", res.Events)
	}
	w1 := res.Health.Workers[1]
	if w1.Timeouts == 0 || w1.Readmissions == 0 {
		t.Fatalf("worker 1 should have been quarantined and readmitted, got %+v", w1)
	}
	if w1.State != WorkerHealthy {
		t.Fatalf("healed worker 1 ended %v, want healthy", w1.State)
	}
	if res.Health.Redispatches == 0 {
		t.Fatal("abandoned batch was never re-dispatched")
	}
	first := res.Trace.Points[0].Loss
	if res.FinalLoss >= first {
		t.Fatalf("cluster run did not learn: loss %v → %v", first, res.FinalLoss)
	}
	if res.TotalUpdates() == 0 {
		t.Fatal("no updates recorded")
	}
}

// TestClusterDuplicatedFailureCrashesOnce: worker 1 fails its third dispatch
// on a link that duplicates every completion frame, so the coordinator
// receives the failure report twice. Duplicates are settled before failure
// handling: one crash, one "crash" event, one re-route of the failed batch —
// the retransmitted report is just another discarded duplicate.
func TestClusterDuplicatedFailureCrashesOnce(t *testing.T) {
	plan := faults.NewLinkPlan(7, faults.DupFrames(1, 1.0))
	res := clusterHarness(t, AlgCPUGPUHogbatch, plan, 800*time.Millisecond, func(id int, o *ClusterWorkerOptions) {
		if id == 1 {
			o.OnDispatch = func(n int) {
				if n == 3 {
					panic("injected dispatch failure")
				}
			}
		}
	})
	w1 := res.Health.Workers[1]
	if w1.State != WorkerCrashed || w1.Crashes != 1 {
		t.Fatalf("worker 1 must crash exactly once, got %+v\n%s", w1, res.Events)
	}
	if n := res.Events.Count("crash"); n != 1 {
		t.Fatalf("%d crash events, want 1\n%s", n, res.Events)
	}
	tr := res.Health.Transport
	if tr.Duplicates == 0 {
		t.Fatal("dup-injecting proxy produced no duplicate completions")
	}
	if tr.AppliedExamples != res.ExamplesProcessed {
		t.Fatalf("exactly-once violated: applied %d examples, scheduled %d", tr.AppliedExamples, res.ExamplesProcessed)
	}
}

// faultEvents filters a run's health log down to the deterministic fault
// sequence: which worker partitioned, was quarantined, and was readmitted,
// in order. Wall-clock timestamps and human-readable details are excluded —
// they legitimately vary run to run.
func faultEvents(res *Result) []string {
	var out []string
	for _, e := range res.Events {
		switch e.Kind {
		case "partition", "readmit", "crash":
			out = append(out, e.Worker+"/"+e.Kind)
		}
	}
	return out
}

// TestClusterSSPExactlyOnceInvariant runs the same adversarial link plan
// with the SSP gate armed: exactly-once must still hold, and on top of it
// no applied update's dispatch-time staleness may exceed the bound — not
// even across duplicated frames, a severed link, quarantine, and
// readmission, where the set of healthy clocks shifts under the gate.
func TestClusterSSPExactlyOnceInvariant(t *testing.T) {
	plan := faults.NewLinkPlan(7,
		faults.DupFrames(0, 1.0),
		faults.SeverLink(1, 2, 1),
	)
	res := clusterHarness(t, AlgSSP, plan, 1200*time.Millisecond)

	tr := res.Health.Transport
	if tr == nil {
		t.Fatal("no transport report")
	}
	if tr.AppliedExamples != res.ExamplesProcessed {
		t.Fatalf("exactly-once violated under SSP: applied %d examples, scheduled %d (duplicates %d, abandoned %d)",
			tr.AppliedExamples, res.ExamplesProcessed, tr.Duplicates, tr.Abandoned)
	}
	if tr.Duplicates == 0 {
		t.Fatal("dup-injecting proxy produced no duplicate completions")
	}
	if tr.Partitions == 0 {
		t.Fatal("sever plan produced no partition")
	}
	if res.Staleness == nil || res.Staleness.Count == 0 {
		t.Fatal("no staleness observations recorded")
	}
	if res.Staleness.Max > 2 {
		t.Fatalf("SSP over TCP applied an update with staleness %d > bound 2\n%s",
			res.Staleness.Max, res.Staleness)
	}
	first := res.Trace.Points[0].Loss
	if res.FinalLoss >= first {
		t.Fatalf("SSP cluster run did not learn: loss %v → %v", first, res.FinalLoss)
	}
}

// TestClusterSeededPartitionDeterminism replays the same seeded link plan
// twice and requires the identical fault-event sequence both times: the
// partition machinery is frame-count-triggered and PCG-seeded, never
// wall-clock-triggered, so a failure scenario found once can be replayed.
// The SSP variant confirms the gate does not add wall-clock-dependent
// fault events of its own.
func TestClusterSeededPartitionDeterminism(t *testing.T) {
	for _, alg := range []Algorithm{AlgCPUGPUHogbatch, AlgSSP} {
		t.Run(alg.String(), func(t *testing.T) {
			plan := func() *faults.LinkPlan {
				return faults.NewLinkPlan(7, faults.SeverLink(1, 2, 1))
			}
			a := clusterHarness(t, alg, plan(), 900*time.Millisecond)
			b := clusterHarness(t, alg, plan(), 900*time.Millisecond)

			ea, eb := faultEvents(a), faultEvents(b)
			if len(ea) == 0 {
				t.Fatal("no fault events recorded")
			}
			if len(ea) != len(eb) {
				t.Fatalf("fault sequences differ in length:\nrun A: %v\nrun B: %v", ea, eb)
			}
			for i := range ea {
				if ea[i] != eb[i] {
					t.Fatalf("fault sequences diverge at %d:\nrun A: %v\nrun B: %v", i, ea, eb)
				}
			}
			for name, res := range map[string]*Result{"A": a, "B": b} {
				if tr := res.Health.Transport; tr.AppliedExamples != res.ExamplesProcessed {
					t.Fatalf("run %s: applied %d != scheduled %d", name, tr.AppliedExamples, res.ExamplesProcessed)
				}
			}
		})
	}
}

// TestClusterAttachTimeout: a coordinator whose workers never show up must
// fail fast with a descriptive error instead of hanging.
func TestClusterAttachTimeout(t *testing.T) {
	spec := tinySpec()
	ds := data.Generate(spec, 42)
	net := nn.MustNetwork(spec.Arch())
	cfg := NewConfig(AlgHogbatchCPU, net, ds, tinyPreset())
	cfg.BaseLR = 0.1
	cfg.RefBatch = 4
	trans, err := transport.ListenTCP("127.0.0.1:0", len(cfg.Workers), ClusterTCPOptions(&cfg, 50*time.Millisecond, 0))
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunCluster(context.Background(), cfg, time.Second, trans, ClusterOptions{AttachTimeout: 100 * time.Millisecond})
	if err == nil {
		t.Fatal("expected attach-timeout error")
	}
	trans.Close()
}

// TestClusterResumeEquivalence is the cluster crash-durability golden test:
// a two-worker cluster churns (worker 1 leaves gracefully mid-run), the
// coordinator's barrier checkpoint captures the mid-churn membership, and a
// completely fresh coordinator process-equivalent — new TCP listener, new
// worker handshake, state only from the checkpoint — must continue the
// exact trajectory of the uninterrupted run: bit-identical parameters,
// scheduler counters, and RNG at every subsequent epoch barrier, with
// exactly-once accounting spanning the restart. The churn phase races two
// workers (float addition is not associative), so equivalence is asserted
// from the first post-departure capture onward, where a single active
// worker makes the continuation deterministic.
func TestClusterResumeEquivalence(t *testing.T) {
	mkCfg := func(sink *memSink) Config {
		spec := tinySpec()
		ds := data.Generate(spec, 42)
		nw := nn.MustNetwork(spec.Arch())
		cfg := NewConfig(AlgHogbatchCPU, nw, ds, tinyPreset())
		cfg.Workers = append(cfg.Workers, cfg.Workers[0]) // two static-batch CPU slots
		cfg.BaseLR = 0.1
		cfg.RefBatch = 4
		cfg.EvalSubset = 256
		cfg.Shuffle = true
		cfg.Guards = true
		cfg.MaxWorkers = 3 // membership may change (arms the elastic manager)
		cfg.CheckpointSink = sink
		return cfg
	}
	clientOpts := transport.ClientOptions{
		Seed:        1,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	}
	runWorker := func(ctx context.Context, addr string, id, leaveAfter int) error {
		wspec := tinySpec()
		wds := data.Generate(wspec, 42)
		wnet := nn.MustNetwork(wspec.Arch())
		return RunClusterWorker(ctx, addr, id, wnet, wds, ClusterWorkerOptions{
			Client:     clientOpts,
			Threads:    2,
			LeaveAfter: leaveAfter,
		})
	}

	// The uninterrupted golden run: worker 1 departs after 6 dispatches,
	// every epoch barrier is captured.
	golden := &memSink{}
	cfg := mkCfg(golden)
	trans, err := transport.ListenTCP("127.0.0.1:0", ClusterListenSlots(&cfg), ClusterTCPOptions(&cfg, 100*time.Millisecond, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for id, leaveAfter := range map[int]int{0: 0, 1: 6} {
		wg.Add(1)
		go func(id, leaveAfter int) {
			defer wg.Done()
			if err := runWorker(ctx, trans.Addr(), id, leaveAfter); err != nil && ctx.Err() == nil {
				t.Errorf("golden worker %d: %v", id, err)
			}
		}(id, leaveAfter)
	}
	res1, err := RunCluster(ctx, cfg, 1500*time.Millisecond, trans, ClusterOptions{AttachTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	wg.Wait()
	if res1.Elastic == nil || res1.Elastic.Leaves != 1 {
		t.Fatalf("golden run churn accounting: %+v", res1.Elastic)
	}

	// mid is the first barrier capture with worker 1 already departed — the
	// coordinator state an operator would find on disk after a SIGKILL.
	n := cfg.Dataset.N()
	var mid *RunState
	for _, st := range golden.states {
		if st.Cursor == n && st.Membership != nil && len(st.Membership.States) == 2 &&
			st.Membership.States[1] == slotDeparted {
			mid = st
			break
		}
	}
	if mid == nil {
		t.Fatal("no post-departure barrier capture; raise the golden budget")
	}
	if mid.Membership.SeqFloor == 0 || mid.Membership.Dispatches == 0 {
		t.Fatalf("membership capture missing dispatch accounting: %+v", mid.Membership)
	}

	// The restarted incarnation: fresh transport, fresh worker process state;
	// only slot 0 re-handshakes (slot 1 is restored departed and must not be
	// waited for).
	resumed := &memSink{}
	cfg2 := mkCfg(resumed)
	cfg2.Resume = mid
	trans2, err := transport.ListenTCP("127.0.0.1:0", ClusterListenSlots(&cfg2), ClusterTCPOptions(&cfg2, 100*time.Millisecond, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var wg2 sync.WaitGroup
	wg2.Add(1)
	go func() {
		defer wg2.Done()
		if err := runWorker(ctx2, trans2.Addr(), 0, 0); err != nil && ctx2.Err() == nil {
			t.Errorf("resumed worker 0: %v", err)
		}
	}()
	res2, err := RunCluster(ctx2, cfg2, 1200*time.Millisecond, trans2, ClusterOptions{AttachTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	cancel2()
	wg2.Wait()

	// Exactly-once accounting spans the restart: the resumed transport
	// report starts from the checkpoint's counters, the scheduler from its
	// example totals.
	tr := res2.Health.Transport
	if tr == nil {
		t.Fatal("no transport report from resumed run")
	}
	if tr.AppliedExamples != res2.ExamplesProcessed {
		t.Fatalf("exactly-once violated across restart: applied %d, scheduled %d",
			tr.AppliedExamples, res2.ExamplesProcessed)
	}
	if res2.Elastic == nil || res2.Elastic.Leaves != 1 {
		t.Fatalf("restored churn accounting lost the leave: %+v", res2.Elastic)
	}
	if got, want := churnCounts(res2.Elastic), churnCounts(res1.Elastic); got != want {
		t.Fatalf("resumed run reports joins, leaves, evictions, rebalances %v; the uninterrupted run %v", got, want)
	}

	// Trajectory equivalence from the capture onward.
	byEpoch := func(states []*RunState, epoch int) *RunState {
		for _, st := range states {
			if st.Epoch == epoch && st.Cursor == n {
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
			t.Fatalf("epoch %d: resumed cluster model diverged (max |Δ| = %g)", epoch, diff)
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
		t.Fatalf("only %d common post-departure epochs compared; want ≥2", compared)
	}
}

// TestClusterRejectsUnsupportedConfigs pins the documented restrictions.
func TestClusterRejectsUnsupportedConfigs(t *testing.T) {
	cfg := tinyConfig(t, AlgHogbatchCPU)
	cfg.Resume = &RunState{}
	if _, err := RunCluster(context.Background(), cfg, time.Second, transport.NewLocal(1), ClusterOptions{}); err == nil {
		t.Fatal("resume accepted")
	}
	cfg = tinyConfig(t, AlgHogbatchCPU)
	if _, err := RunCluster(context.Background(), cfg, time.Second, nil, ClusterOptions{}); err == nil {
		t.Fatal("nil transport accepted")
	}

	// A model too large for one frame is refused up front, by name, at both
	// ends — not discovered as a "partition" of every worker in turn. The
	// check comes before anything is allocated, listened on or dialled: the
	// worker's address below answers nobody.
	cfg = tinyConfig(t, AlgHogbatchCPU)
	arch := cfg.Net.Arch
	arch.Hidden = []int{3000, 3000} // 9.0 M parameters, 72 MB serialized
	cfg.Net = nn.MustNetwork(arch)
	_, err := RunCluster(context.Background(), cfg, time.Second, transport.NewLocal(1), ClusterOptions{})
	if err == nil || !strings.Contains(err.Error(), "cluster frame") {
		t.Fatalf("oversize model on the coordinator: want the frame-limit error, got: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = RunClusterWorker(ctx, "127.0.0.1:1", 0, cfg.Net, cfg.Dataset, ClusterWorkerOptions{})
	if err == nil || !strings.Contains(err.Error(), "cluster frame") {
		t.Fatalf("oversize model on the worker: want the frame-limit error, got: %v", err)
	}
}

// wireCycler drives the cluster wire by hand: a coordinator built as
// RunCluster builds it and one RunClusterWorker over loopback TCP, on the
// benchmark's 54-256x6-2 network (2.7 MB serialized, each way), so that
// exactly the Work → Done → accept cycles are measured.
type wireCycler struct {
	l     *coordLoop
	x     *clusterExec
	trans *transport.TCP
	seq   uint64
}

func newWireCycler(tb testing.TB) *wireCycler {
	spec := data.Covtype.Scaled(0.001)
	spec.HiddenLayers, spec.HiddenUnits = 6, 256
	ds := data.Generate(spec, 7)
	net := nn.MustNetwork(spec.Arch())
	cfg := NewConfig(AlgHogbatchCPU, net, ds, Preset{CPUThreads: 1, CPUMinPerThread: 64, CPUMaxPerThread: 64, GPUMin: 64, GPUMax: 64})
	cfg.BaseLR = 0.01
	cfg.EvalSubset = 64

	trans, err := transport.ListenTCP("127.0.0.1:0", 1, ClusterTCPOptions(&cfg, time.Second, 0))
	if err != nil {
		tb.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	tb.Cleanup(func() {
		cancel()
		trans.Close()
		<-workerDone
	})
	go func() {
		defer close(workerDone)
		RunClusterWorker(ctx, trans.Addr(), 0, nn.MustNetwork(spec.Arch()), data.Generate(spec, 7), ClusterWorkerOptions{Threads: 1})
	}()
	if err := trans.WaitForWorkers(10 * time.Second); err != nil {
		tb.Fatal(err)
	}
	l, err := newCoordLoop(ctx, &cfg, trans, time.Minute)
	if err != nil {
		tb.Fatal(err)
	}
	x := &clusterExec{wallClock: wallClock{time.Now()}, l: l}
	l.exec = x
	return &wireCycler{l: l, x: x, trans: trans}
}

// cycle sends the next dispatch, waits for its completion and accepts it.
func (c *wireCycler) cycle(tb testing.TB) {
	c.seq++
	seq := c.seq
	if err := c.trans.Send(0, c.x.decorate(0, transport.Work{Seq: seq, Lo: 0, Hi: 64, LR: 0.01})); err != nil {
		tb.Fatal(err)
	}
	for {
		m, st := c.trans.Recv(30 * time.Second)
		if st != transport.RecvOK {
			tb.Fatalf("seq %d: Recv = %v", seq, st)
		}
		if m.Done == nil {
			continue // the attach's LinkUp
		}
		if m.Done.Seq != seq || m.Done.Failed || m.Done.Updates == 0 {
			tb.Fatalf("seq %d: completion %+v", seq, m.Done)
		}
		c.x.accept(m.Done, &inflightDispatch{seq: seq})
		c.trans.Recycle(m)
		return
	}
}

// TestClusterWireCycleAllocation guards the cluster wire's steady state: once
// both ends hold their buffers, a full Work → Done → accept cycle over
// loopback TCP with the benchmark's 54-256x6-2 network (2.7 MB serialized,
// each way) allocates bookkeeping only. Before the in-place codec and the
// owned buffers the same cycle allocated about 56 MB.
func TestClusterWireCycleAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting under the race detector measures the detector")
	}
	c := newWireCycler(t)
	start := c.l.global.Clone()
	const warm, measured = 2, 20
	for range warm {
		c.cycle(t)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range measured {
		c.cycle(t)
	}
	runtime.ReadMemStats(&after)
	if c.l.global.MaxAbsDiff(start) == 0 || c.l.health.report.DroppedUpdates != 0 {
		t.Fatalf("the cycles did not train: model unchanged or %d updates dropped", c.l.health.report.DroppedUpdates)
	}
	perCycle := (after.TotalAlloc - before.TotalAlloc) / measured
	t.Logf("%d B allocated per cycle", perCycle)
	if perCycle >= 64<<10 {
		t.Fatalf("one Work→Done→accept cycle allocates %d B; the wire is meant to reuse its buffers (limit 64 KB)", perCycle)
	}
}

// BenchmarkClusterWireCycle times one Work → Done → accept cycle of
// TestClusterWireCycleAllocation's loopback cluster and reports the model
// bytes it moves, both ways, as MB/s. The worker's 64-example gradient step
// is part of every cycle.
func BenchmarkClusterWireCycle(b *testing.B) {
	c := newWireCycler(b)
	c.cycle(b) // both ends size their buffers
	b.SetBytes(2 * int64(nn.ParamsWireSize(c.l.net)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		c.cycle(b)
	}
}

// TestClusterWatchdogQuarantinesHungWorker: RunCluster applies cfg.Watchdog
// as RunSim and RunReal do. With Slack 0 the deadline is exactly Floor, so a
// worker that stalls one dispatch well past it is quarantined with a
// "timeout" event, its batch re-dispatched, and its overdue completion
// discarded — exactly-once accounting still holds.
func TestClusterWatchdogQuarantinesHungWorker(t *testing.T) {
	cfg := clusterConfig(AlgCPUGPUHogbatch)
	cfg.Watchdog = &WatchdogConfig{Floor: 50 * time.Millisecond}
	res := clusterRun(t, cfg, faults.NewLinkPlan(7), 900*time.Millisecond, func(id int, o *ClusterWorkerOptions) {
		if id == 1 {
			o.OnDispatch = func(n int) {
				if n == 3 {
					time.Sleep(300 * time.Millisecond)
				}
			}
		}
	})
	if w1 := res.Health.Workers[1]; w1.Timeouts == 0 {
		t.Fatalf("worker 1 stalled past the watchdog floor but was never quarantined: %+v\n%s", w1, res.Events)
	}
	if res.Events.Count("timeout") == 0 {
		t.Fatalf("no timeout event\n%s", res.Events)
	}
	if res.Health.Redispatches == 0 {
		t.Fatal("the overdue batch was never re-dispatched")
	}
	if tr := res.Health.Transport; tr.AppliedExamples != res.ExamplesProcessed {
		t.Fatalf("exactly-once violated: applied %d examples, scheduled %d (abandoned %d)",
			tr.AppliedExamples, res.ExamplesProcessed, tr.Abandoned)
	}
}

// TestClusterWorkerTakesStepFromWelcome: a worker started with zero options
// trains with the coordinator's weight decay and guards, which reach it in
// the handshake. Its first delta equals, bit for bit, a reference laneStep
// with that decay; a dispatch of non-finite parameters then comes back with
// every lane's gradient dropped, as the coordinator's guards would.
func TestClusterWorkerTakesStepFromWelcome(t *testing.T) {
	cfg := clusterConfig(AlgCPUGPUHogbatch)
	cfg.Shuffle = false
	cfg.WeightDecay = 0.05
	trans, err := transport.ListenTCP("127.0.0.1:0", 1, ClusterTCPOptions(&cfg, time.Second, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer trans.Close()
	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	defer func() {
		cancel()
		<-workerDone
	}()
	go func() {
		defer close(workerDone)
		spec := tinySpec()
		RunClusterWorker(ctx, trans.Addr(), 0, nn.MustNetwork(spec.Arch()), data.Generate(spec, 42), ClusterWorkerOptions{})
	}()
	if err := trans.WaitForWorkers(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	roundTrip := func(seq uint64, params *nn.Params, lanes int) *transport.Done {
		t.Helper()
		w := transport.Work{Seq: seq, Lo: 0, Hi: 32, LR: 0.1, Lanes: lanes, Params: nn.AppendParams(nil, params)}
		if err := trans.Send(0, w); err != nil {
			t.Fatal(err)
		}
		for {
			m, st := trans.Recv(30 * time.Second)
			if st != transport.RecvOK {
				t.Fatalf("seq %d: Recv = %v", seq, st)
			}
			if m.Done != nil {
				return m.Done
			}
		}
	}

	const lanes = 4
	global := cfg.Net.NewParams(nn.InitXavier, RunRNG(cfg.Seed))
	done := roundTrip(1, global, lanes)
	if done.Failed || done.Updates != lanes {
		t.Fatalf("first completion %+v, want %d updates", done, lanes)
	}
	got := cfg.Net.NewParams(nn.InitZero, nil)
	if err := nn.ReadParamsInto(got, done.Delta); err != nil {
		t.Fatal(err)
	}
	ref := laneStep{net: cfg.Net, decay: cfg.WeightDecay, guard: true, mode: tensor.UpdateRacy, gemm: runtime.GOMAXPROCS(0)}
	w := newWorker(&Config{Net: cfg.Net}, 0, "ref", WorkerConfig{}, 1, 32)
	w.threads = lanes
	want := global.Clone()
	ref.iterate(w, want, cfg.Dataset.View(0, 32), 0.1, false)
	want.AddScaled(-1, global)
	for i, v := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			t.Fatalf("delta[%d] = %v, the reference step with decay %v gives %v", i, got.Data[i], cfg.WeightDecay, v)
		}
	}

	poisoned := global.Clone()
	poisoned.Data[0] = math.NaN()
	if done := roundTrip(2, poisoned, lanes); done.Updates != 0 || done.Dropped != lanes {
		t.Fatalf("non-finite dispatch: %d updates, %d dropped; the guards should drop all %d lanes", done.Updates, done.Dropped, lanes)
	}
}
