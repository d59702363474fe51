package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"heterosgd/internal/core"
	"heterosgd/internal/data"
	"heterosgd/internal/device"
	"heterosgd/internal/nn"
	"heterosgd/internal/telemetry"
	"heterosgd/internal/transport"
)

// tracerRingCap holds every span of a traced window without wrapping: the
// busiest ring (hogwild-cpu's worker) writes ~3 spans per dispatch at a few
// thousand dispatches a second. Dropped spans would bias every share.
const tracerRingCap = 1 << 17

// cpuPreset is the sizing rule for every live-engine workload on the
// 2-core reference box: two CPU update threads, 1..64 examples per thread.
func cpuPreset(gpuMin, gpuMax int) core.Preset {
	return core.Preset{CPUThreads: 2, CPUMinPerThread: 1, CPUMaxPerThread: 64, GPUMin: gpuMin, GPUMax: gpuMax}
}

// withHidden overrides the paper's MLP depth/width for a dataset spec. The
// smoke test's short runs get a token network: they check the plumbing, and
// one 1024-row batch through the real one outlasts their whole window.
func withHidden(rc *runCtx, s data.SynthSpec, layers, units int) data.SynthSpec {
	if rc.short() {
		layers, units = 2, 16
	}
	s.HiddenLayers, s.HiddenUnits = layers, units
	return s
}

// trainEnv is everything a training workload's setup produces.
type trainEnv struct {
	cfg core.Config
	// engine runs cfg for a wall budget (or a virtual horizon on the
	// simulated engine) and names the span it is recorded under.
	engine     func(cfg core.Config, budget time.Duration, parent int) (*core.Result, error)
	engineName string
	// virtual marks the simulated engine: Result.Duration is virtual, so
	// throughput uses the measured wall time of the call instead.
	virtual bool
	// cpuRows and gpuRows are the replay shapes: rows per CPU update thread
	// and per GPU batch (0 = the workload has no such worker).
	cpuRows, gpuRows int
	// verify adds engine-specific correctness checks on one window's result.
	verify func(rc *runCtx, res *core.Result)
	// link accumulates the cluster transport's counters across windows.
	link *linkTotals
	// initialLoss is the loss the first window (the warm-up) started from.
	initialLoss float64
}

// trainPlan is what distinguishes one training workload for the shared
// window runner.
type trainPlan struct {
	build func(rc *runCtx) (*trainEnv, error)
	// lossGuard requires final loss ≤ 0.5 × initial over the whole run.
	lossGuard bool
	// fixedWork > 0 makes every window one complete run of that virtual
	// horizon on a freshly built environment (the simulated engine shuffles
	// its dataset in place, so determinism needs a fresh one each run).
	fixedWork time.Duration
	// targetLoss is the fixed-work run's time-to-target threshold.
	targetLoss float64
	// checkpoint installs the timing CheckpointSink on traced windows.
	checkpoint bool
}

// window is one measured engine call.
type window struct {
	res    *core.Result
	secs   float64 // wall seconds the engine ran (Result.Duration unless virtual)
	mem    memDelta
	traced bool
	tracer *telemetry.Tracer
	ckpt   *timingCheckpointSink
	spanID int
	begin  time.Duration // recorder clock when the engine was called
}

func (w window) exPerSec() float64 { return float64(w.res.ExamplesProcessed) / w.secs }

// runWindow calls the engine once and applies the per-window checks.
func (e *trainEnv) runWindow(rc *runCtx, plan trainPlan, budget time.Duration, traced bool) (window, error) {
	cfg := e.cfg
	w := window{traced: traced}
	if traced {
		w.tracer = core.NewRunTracer(&cfg, tracerRingCap)
		cfg.Tracer = w.tracer
		if plan.checkpoint {
			w.ckpt = &timingCheckpointSink{rec: rc.rec}
			cfg.CheckpointSink = w.ckpt
		}
	}
	runtime.GC()
	w.begin = rc.rec.now()
	w.spanID = rc.rec.begin(e.engineName, rc.root)
	if w.ckpt != nil {
		w.ckpt.parent = w.spanID
	}
	var err error
	var wall time.Duration
	w.mem = measureMem(func() {
		t0 := time.Now()
		w.res, err = e.engine(cfg, budget, w.spanID)
		wall = time.Since(t0)
	})
	rc.rec.end(w.spanID)
	if err != nil {
		return w, err
	}
	w.secs = w.res.Duration.Seconds()
	if e.virtual {
		w.secs = wall.Seconds()
	}
	if w.res.ExamplesProcessed == 0 || w.secs <= 0 {
		return w, fmt.Errorf("window of %v trained no examples", budget)
	}
	rc.check(w.res.Params.AllFinite(), "final parameters are not all finite")
	if e.verify != nil {
		e.verify(rc, w.res)
	}
	dispatches := w.res.Staleness.Count + int64(w.res.Health.Redispatches)
	rc.ops(dispatches, int64(w.res.Health.Redispatches)+w.res.Health.DroppedUpdates+unapplied(w.res))
	if !e.virtual {
		// Training continues across windows: the next one starts from this
		// one's model, as a longer run would.
		if e.cfg.InitialParams == nil {
			e.initialLoss = firstLoss(w.res)
		}
		e.cfg.InitialParams = w.res.Params
	}
	rc.logf("  window %-8v traced=%-5v %8d ex in %.3fs = %.1f ex/s, loss %.5f -> %.5f, %d dispatches, %d B allocated",
		budget, traced, w.res.ExamplesProcessed, w.secs, w.exPerSec(), firstLoss(w.res), w.res.FinalLoss, dispatches, w.mem.allocBytes)
	return w, nil
}

// idleBudget is an engine budget too short to train within: the live
// engines charge their opening loss evaluation to it and dispatch nothing,
// the simulated one hands each worker its first batch and stops.
const idleBudget = time.Nanosecond

// idleCall runs the engine once on idleBudget. What that call allocates is
// the fixed cost of every window — workspaces, replicas, the two loss
// evaluations, on the cluster the workers' own datasets — which repeats to a
// few KB and does not grow with the examples trained. It does not advance
// the training the windows continue.
func (e *trainEnv) idleCall(rc *runCtx) (window, error) {
	var w window
	var err error
	runtime.GC()
	w.spanID = rc.rec.begin(e.engineName+" (idle)", rc.root)
	w.mem = measureMem(func() { w.res, err = e.engine(e.cfg, idleBudget, w.spanID) })
	rc.rec.end(w.spanID)
	if err != nil {
		return w, fmt.Errorf("idle call: %w", err)
	}
	rc.logf("  idle call: %d ex, %d B and %d mallocs allocated", w.res.ExamplesProcessed, w.mem.allocBytes, w.mem.mallocs)
	return w, nil
}

// perExample divides what the windows allocated beyond the idle call's fixed
// cost by what they trained beyond it: the steady-state cost of one more
// example. Dividing a window's whole allocation by its examples instead
// would mostly restate its throughput, since the fixed cost is the larger
// part on every in-process workload (67.3 MB of 67.5 MB on dense-adaptive).
func perExample(wins []window, idle window, of func(memDelta) uint64) float64 {
	var cost, examples float64
	for _, w := range wins {
		cost += float64(of(w.mem)) - float64(of(idle.mem))
		examples += float64(w.res.ExamplesProcessed - idle.res.ExamplesProcessed)
	}
	return cost / examples
}

func allocBytes(m memDelta) uint64 { return m.allocBytes }
func mallocs(m memDelta) uint64    { return m.mallocs }

// unapplied is |scheduled − applied| examples where the engine reports both
// (the cluster transport's exactly-once accounting); 0 elsewhere.
func unapplied(res *core.Result) int64 {
	if t := res.Health.Transport; t != nil {
		d := res.ExamplesProcessed - t.AppliedExamples
		if d < 0 {
			d = -d
		}
		return d
	}
	return 0
}

func firstLoss(res *core.Result) float64 {
	if res.Trace == nil || len(res.Trace.Points) == 0 {
		return math.NaN()
	}
	return res.Trace.Points[0].Loss
}

// timedBuild runs the plan's setup once and returns how long it took.
func timedBuild(rc *runCtx, plan trainPlan) (*trainEnv, float64, error) {
	id := rc.rec.begin("bench:setup", rc.root)
	t0 := time.Now()
	env, err := plan.build(rc)
	secs := time.Since(t0).Seconds()
	rc.rec.end(id)
	return env, secs, err
}

// repeatSetup sets up until it has done so five times and spent a thirtieth
// of the run (half a second of the standard fifteen), at most 25 times, and
// returns the last environment and every setup's seconds: setup_s is the
// fastest, because one setup of tens of milliseconds on a shared box is too
// noisy to bound (see measuredWindows for why fastest, not median).
func repeatSetup[E any](rc *runCtx, build func() (E, error), discard func(E)) (env E, secs []float64, err error) {
	begin := time.Now()
	for len(secs) < 5 || (time.Since(begin) < rc.seconds/30 && len(secs) < 25) {
		if len(secs) > 0 {
			discard(env)
		}
		t0 := time.Now()
		if env, err = build(); err != nil {
			return env, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return env, secs, nil
}

// runTraining is the shared flow of the five training workloads.
func runTraining(rc *runCtx, plan trainPlan) error {
	if rc.traced {
		return traceTraining(rc, plan)
	}
	env, setups, err := repeatSetup(rc, func() (*trainEnv, error) { return plan.build(rc) }, func(*trainEnv) {})
	if err != nil {
		return err
	}

	var wins []window
	var idle window
	if plan.fixedWork > 0 {
		// Fixed work, not fixed time: repeat the run while another fits,
		// at least twice (the determinism check needs a pair).
		begin := time.Now()
		for len(wins) < 2 || time.Since(begin)+time.Duration(wins[len(wins)-1].secs*float64(time.Second)) <= rc.seconds {
			w, err := env.runWindow(rc, plan, plan.fixedWork, false)
			if err != nil {
				return err
			}
			wins = append(wins, w)
			e, secs, err := timedBuild(rc, plan)
			if err != nil {
				return err
			}
			env, setups = e, append(setups, secs)
		}
		// The environment built after the last run is still fresh.
		if idle, err = env.idleCall(rc); err != nil {
			return err
		}
	} else {
		// One discarded warm-up window (the first window of a process reads
		// low), then nine measured windows.
		warm := rc.seconds / 10
		if _, err := env.runWindow(rc, plan, warm, false); err != nil {
			return err
		}
		if idle, err = env.idleCall(rc); err != nil {
			return err
		}
		for i := 0; i < measuredWindows; i++ {
			w, err := env.runWindow(rc, plan, (rc.seconds-warm)/measuredWindows, false)
			if err != nil {
				return err
			}
			wins = append(wins, w)
			// One more setup after each window: a neighbour's burst can
			// cover all of the opening ones, and setups spread over the
			// run catch the same quiet spell the best window does.
			_, secs, err := timedBuild(rc, plan)
			if err != nil {
				return err
			}
			setups = append(setups, secs)
		}
	}

	best := bestWindow(wins)
	rc.set("setup_s", slices.Min(setups))
	rc.set("train_ex_per_s", best.exPerSec())
	rc.set("train_alloc_bytes_per_ex", perExample(wins, idle, allocBytes))
	var rates []float64
	for _, w := range wins {
		rates = append(rates, w.exPerSec())
	}
	rc.logf("  setup_s fastest of %d (median %.4f), train_ex_per_s best of %d windows (median %.1f)",
		len(setups), median(setups), len(rates), median(rates))
	checkLearning(rc, plan, env, wins)
	return nil
}

// measuredWindows is how many windows a live-engine run measures. The
// reference box is shared: a neighbour's load slows any given second by up
// to a third and never speeds one up, so a run reports its least-disturbed
// window — the fastest — and needs several short ones to catch a quiet
// spell. Over ten runs the best of nine 1.5 s windows repeated to 4..8 %
// (11 % on cluster-ssp) where the median of three 4.5 s windows repeated to
// 6..14 %, and to 10..25 % in a noisier hour.
const measuredWindows = 9

// bestWindow returns the window with the highest throughput.
func bestWindow(wins []window) window {
	best := wins[0]
	for _, w := range wins[1:] {
		if w.exPerSec() > best.exPerSec() {
			best = w
		}
	}
	return best
}

// checkLearning applies the learning-quality guards over a run's windows.
func checkLearning(rc *runCtx, plan trainPlan, env *trainEnv, wins []window) {
	if rc.short() || len(wins) == 0 {
		return
	}
	if plan.lossGuard {
		last := wins[len(wins)-1].res.FinalLoss
		rc.check(last <= 0.5*env.initialLoss, "loss guard: final %.5f > 0.5 × initial %.5f", last, env.initialLoss)
	}
	if plan.fixedWork > 0 {
		want := trajectoryHash(wins[0].res)
		for i, w := range wins[1:] {
			rc.check(trajectoryHash(w.res) == want, "sim run %d diverged from run 0 (sha256 over loss trajectory + final params)", i+1)
		}
		_, ok := wins[0].res.Trace.TimeToReach(plan.targetLoss)
		rc.check(ok, "sim run never reached loss %.4g within %v", plan.targetLoss, plan.fixedWork)
	}
}

// trajectoryHash is a sha256 over the loss trajectory and the final
// parameter bits: equal hashes mean bit-identical runs.
func trajectoryHash(res *core.Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, p := range res.Trace.Points {
		put(uint64(p.Time))
		put(math.Float64bits(p.Epoch))
		put(math.Float64bits(p.Loss))
	}
	if err := nn.WriteParams(h, res.Params); err != nil {
		return "unhashable: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// traceTraining is the traced pass: windows alternate untraced/traced so
// their difference is the tracing overhead, the traced windows' spans give
// the core shares, and replays time each layer at the workload's shapes.
func traceTraining(rc *runCtx, plan trainPlan) error {
	env, _, err := timedBuild(rc, plan)
	if err != nil {
		return err
	}
	var wins []window
	var idle window
	pair := func(budget time.Duration) error {
		for _, tr := range []bool{false, true} {
			w, err := env.runWindow(rc, plan, budget, tr)
			if err != nil {
				return err
			}
			wins = append(wins, w)
			if plan.fixedWork > 0 {
				if env, _, err = timedBuild(rc, plan); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// A fifth of the run is kept for the replays.
	if plan.fixedWork > 0 {
		begin := time.Now()
		if err := pair(plan.fixedWork); err != nil {
			return err
		}
		if once := time.Since(begin); 2*once <= rc.seconds*4/5 {
			if err := pair(plan.fixedWork); err != nil {
				return err
			}
		}
		if idle, err = env.idleCall(rc); err != nil {
			return err
		}
	} else {
		if _, err := env.runWindow(rc, plan, rc.seconds/10, false); err != nil {
			return err
		}
		if idle, err = env.idleCall(rc); err != nil {
			return err
		}
		for i := 0; i < 4; i++ {
			if err := pair(rc.seconds * 7 / 80); err != nil {
				return err
			}
		}
	}
	checkLearning(rc, plan, env, wins)
	if env.cfg.Algorithm == core.AlgAdaptiveHogbatch && !env.virtual {
		// Replay at the batch sizes Algorithm 2 settled on, not the ones it
		// started from.
		last := wins[len(wins)-1].res
		for i, wc := range env.cfg.Workers {
			if wc.Device.Kind() == device.KindCPU {
				env.cpuRows = max(last.FinalBatch[i]/wc.Threads, 1)
			} else {
				env.gpuRows = last.FinalBatch[i]
			}
		}
	}
	reportResultMetrics(rc, plan, env, wins, idle)
	reportSpanShares(rc, &env.cfg, env.virtual, wins)
	replayLayers(rc, env)
	return nil
}

// reportResultMetrics derives the per-layer numbers the engines' Result
// already carries, over every window of the traced pass.
func reportResultMetrics(rc *runCtx, plan trainPlan, env *trainEnv, wins []window, idle window) {
	var secs float64
	var dispatches, blocked, dropped int64
	var redispatches int
	var mem memDelta
	var staleSum, staleMax int64
	var overshoot time.Duration
	for _, w := range wins {
		secs += w.secs
		dispatches += w.res.Staleness.Count
		blocked += w.res.Staleness.Blocked
		staleSum += w.res.Staleness.Sum
		staleMax = max(staleMax, w.res.Staleness.Max)
		redispatches += w.res.Health.Redispatches
		dropped += w.res.Health.DroppedUpdates
		overshoot = max(overshoot, w.res.Overshoot)
		mem.add(w.mem)
	}
	last := wins[len(wins)-1].res
	rc.set("core.dispatches_per_s", float64(dispatches)/secs)
	rc.set("core.updates_cpu_share", last.CPUShare())
	resizes := 0
	for _, n := range last.Resizes {
		resizes += n
	}
	rc.set("core.resizes", float64(resizes))
	for i, wc := range env.cfg.Workers {
		if i >= len(last.FinalBatch) {
			break
		}
		name := "core.final_batch_gpu"
		if wc.Device.Kind() == device.KindCPU {
			name = "core.final_batch_cpu"
		}
		rc.set(name, float64(last.FinalBatch[i]))
	}
	if dispatches > 0 {
		rc.set("core.staleness_mean", float64(staleSum)/float64(dispatches))
	}
	rc.set("core.staleness_max", float64(staleMax))
	rc.set("core.ssp_blocked", float64(blocked))
	rc.set("core.redispatches", float64(redispatches))
	rc.set("core.dropped_updates", float64(dropped))
	rc.set("core.overshoot_ms", ms(overshoot))
	rc.set("fail_share", float64(rc.failed)/float64(max(rc.attempted, 1)))
	if !env.virtual {
		rc.set("loss_final_over_initial", last.FinalLoss/env.initialLoss)
	}

	rc.set("runtime.mallocs_per_ex", perExample(wins, idle, mallocs))
	rc.set("runtime.fixed_alloc_mb", float64(idle.mem.allocBytes)/(1<<20))
	rc.set("runtime.gc_count", float64(mem.gcCount))
	rc.set("runtime.gc_pause_ms", ms(mem.gcPause))
	rc.set("runtime.heap_peak_mb", heapSysMB())

	if env.virtual {
		rc.set("simclock.wall_us_per_dispatch", secs*1e6/float64(dispatches))
		rc.set("simclock.virtual_per_wall", plan.fixedWork.Seconds()*float64(len(wins))/secs)
		res := wins[0].res
		if at, ok := res.Trace.TimeToReach(plan.targetLoss); ok {
			rc.set("vtime_to_target_ms", ms(at))
		}
		if ep, ok := res.Trace.EpochsToReach(plan.targetLoss); ok {
			rc.set("epochs_to_target", ep)
		}
		rc.set("loss_final_over_initial", res.FinalLoss/firstLoss(res))
	}
	if env.link != nil {
		env.link.report(rc)
	}
}

// reportSpanShares turns the program's own tracer spans into shares of wall
// time (virtual time when the windows ran on the simulated engine), folds
// them into the benchmark's trace, and derives the tracing overhead from
// the untraced/traced window pairs.
func reportSpanShares(rc *runCtx, cfg *core.Config, virtual bool, wins []window) {
	var plain, traced []window
	for _, w := range wins {
		if w.traced {
			traced = append(traced, w)
		} else {
			plain = append(plain, w)
		}
	}
	if len(plain) > 0 {
		// Best window against best window, as the end-to-end pass reports.
		u, t := bestWindow(plain).exPerSec(), bestWindow(traced).exPerSec()
		rc.set("telemetry.trace_overhead_pct", 100*(u-t)/u)
	}

	workers := len(cfg.Workers)
	var wall time.Duration // engine-clock time the traced windows cover
	var byKind [8]time.Duration
	busy := make([]time.Duration, workers)
	var dropped, dispatches, ckptBytes int64
	var ckptTimes []float64
	workerSpans := false
	for _, w := range traced {
		wall += w.res.Duration
		dropped += w.tracer.Dropped()
		dispatches += w.res.Staleness.Count
		names := w.tracer.Names()
		for _, ev := range w.tracer.Snapshot() {
			// Only the part of a span inside the window counts towards a
			// share of the window: the last dispatch runs past the budget.
			in := min(ev.Start+ev.Dur, w.res.Duration) - ev.Start
			if int(ev.Kind) < len(byKind) && in > 0 {
				byKind[ev.Kind] += in
			}
			if ev.Worker < workers && in > 0 && (ev.Kind == telemetry.KindGradient || ev.Kind == telemetry.KindApply) {
				busy[ev.Worker] += in
				workerSpans = true
			}
			// The engine's clock starts a little after our call into it;
			// on the wall engines the offset is its own setup, on the sim
			// the spans live on the virtual clock's own row.
			rc.rec.add(span{
				Name: "core:" + ev.Kind.String(), Track: "core/" + names[ev.Worker],
				Start: w.begin + ev.Start, End: w.begin + ev.Start + ev.Dur,
				Parent: w.spanID, Virtual: virtual, Arg: ev.Arg,
			})
		}
		if w.ckpt != nil {
			ckptTimes = append(ckptTimes, w.ckpt.times...)
			ckptBytes = max(ckptBytes, w.ckpt.bytes)
		}
	}
	perWorker := float64(wall) * float64(workers)
	rc.set("core.gradient_share", float64(byKind[telemetry.KindGradient])/perWorker)
	rc.set("core.apply_share", float64(byKind[telemetry.KindApply])/perWorker)
	rc.set("core.queue_wait_share", float64(byKind[telemetry.KindQueueWait])/perWorker)
	rc.set("core.schedule_share", float64(byKind[telemetry.KindSchedule])/float64(wall))
	rc.set("core.eval_share", float64(byKind[telemetry.KindEval])/float64(wall))
	rc.set("core.snapshot_share", float64(byKind[telemetry.KindSnapshot])/float64(wall))
	if workerSpans {
		// Cluster workers emit no spans yet, so their idle time is unknown
		// (left 0), not total.
		var idleSum, idleMax float64
		for _, b := range busy {
			idle := 1 - float64(b)/float64(wall)
			idleSum += idle
			idleMax = max(idleMax, idle)
		}
		rc.set("core.idle_share_mean", idleSum/float64(workers))
		rc.set("core.idle_share_max", idleMax)
	}
	if dispatches > 0 {
		rc.set("core.coord_us_per_dispatch",
			us(byKind[telemetry.KindSchedule]+byKind[telemetry.KindQueueWait])/float64(dispatches))
	}
	rc.set("telemetry.spans_dropped", float64(dropped))
	rc.set("checkpoint.write_ms", median(ckptTimes))
	rc.set("checkpoint.bytes", float64(ckptBytes))
}

func runDenseAdaptive(rc *runCtx) error {
	return runTraining(rc, trainPlan{lossGuard: true, checkpoint: true, build: func(rc *runCtx) (*trainEnv, error) {
		spec := withHidden(rc, data.Covtype.Scaled(0.05), 6, 256)
		ds := data.Generate(spec, rc.seed)
		cfg := core.NewConfig(core.AlgAdaptiveHogbatch, nn.MustNetwork(spec.Arch()), ds, cpuPreset(128, 1024))
		cfg.BaseLR = 0.01
		return realEnv(rc, cfg, 1, 1024), nil
	}})
}

func runSparseHybrid(rc *runCtx) error {
	return runTraining(rc, trainPlan{lossGuard: true, build: func(rc *runCtx) (*trainEnv, error) {
		// About twice the rows a window trains: each epoch barrier's CSR
		// shuffle allocates 6 MB, and at the issue's 0.1 every window crossed
		// one barrier or two and reported allocation per example accordingly.
		spec := withHidden(rc, data.RealSim.Scaled(0.3), 4, 128)
		ds := data.GenerateCSR(spec, rc.seed)
		cfg := core.NewConfig(core.AlgCPUGPUHogbatch, nn.MustNetwork(spec.Arch()), ds, cpuPreset(128, 1024))
		cfg.BaseLR = 0.02
		return realEnv(rc, cfg, 1, 1024), nil
	}})
}

func runHogwildCPU(rc *runCtx) error {
	return runTraining(rc, trainPlan{lossGuard: true, build: func(rc *runCtx) (*trainEnv, error) {
		spec := withHidden(rc, data.W8a.Scaled(0.2), 8, 64)
		ds := data.Generate(spec, rc.seed)
		cfg := core.NewConfig(core.AlgHogbatchCPU, nn.MustNetwork(spec.Arch()), ds, cpuPreset(128, 1024))
		return realEnv(rc, cfg, 1, 0), nil
	}})
}

// evalSubset is the loss-evaluation sample of the live engines, which charge
// every evaluation (one at the start of each window) to the window's
// budget: the default 4096 rows would be a sixth of a window on the widest
// network here, and all of a smoke-test window.
func evalSubset(rc *runCtx) int {
	if rc.short() {
		return 64
	}
	return 1024
}

// realEnv wraps a live-engine config: seeded, shuffling, run by RunReal.
func realEnv(rc *runCtx, cfg core.Config, cpuRows, gpuRows int) *trainEnv {
	cfg.Seed = rc.seed
	cfg.Shuffle = true
	cfg.EvalSubset = evalSubset(rc)
	return &trainEnv{
		cfg: cfg, engineName: "core:RunReal", cpuRows: cpuRows, gpuRows: gpuRows,
		engine: func(cfg core.Config, budget time.Duration, _ int) (*core.Result, error) {
			return core.RunReal(context.Background(), cfg, budget)
		},
	}
}

// simHorizon is sim-adaptive's fixed work: virtual time per run, about 2.5 s
// of wall time on the reference box so several runs fit. simTarget is a
// loss seeds 1..12 all reach by 3.5 ms, well inside that horizon.
const (
	simHorizon = 6 * time.Millisecond
	simTarget  = 0.06
)

func runSimAdaptive(rc *runCtx) error {
	horizon := simHorizon
	if rc.short() {
		horizon = time.Millisecond / 2
	}
	return runTraining(rc, trainPlan{fixedWork: horizon, targetLoss: simTarget, build: func(rc *runCtx) (*trainEnv, error) {
		spec := withHidden(rc, data.Covtype.Scaled(0.02), 6, 128)
		ds := data.Generate(spec, rc.seed)
		// The paper's device shape: 56 CPU threads beside a V100.
		cfg := core.NewConfig(core.AlgAdaptiveHogbatch, nn.MustNetwork(spec.Arch()), ds,
			core.Preset{CPUThreads: 56, CPUMinPerThread: 1, CPUMaxPerThread: 64, GPUMin: 256, GPUMax: 2048})
		cfg.Seed = rc.seed
		cfg.Shuffle = true
		// Every loss sample costs wall time (not virtual time): twelve
		// samples of 1024 rows keep them to a fifth of a run.
		cfg.SampleEvery = horizon / 12
		cfg.EvalSubset = evalSubset(rc)
		return &trainEnv{
			cfg: cfg, engineName: "core:RunSim", virtual: true, cpuRows: 1, gpuRows: 2048,
			engine: func(cfg core.Config, horizon time.Duration, _ int) (*core.Result, error) {
				return core.RunSim(context.Background(), cfg, horizon)
			},
		}, nil
	}})
}

// linkTotals sums the cluster transport's counters across windows.
type linkTotals struct {
	stats      transport.Stats
	relayBytes int64
	examples   int64
}

func (l *linkTotals) add(s transport.Stats, relayed, examples int64) {
	l.examples += examples
	l.stats.Dispatched += s.Dispatched
	l.stats.Completed += s.Completed
	l.stats.Duplicates += s.Duplicates
	l.stats.Reconnects += s.Reconnects
	l.stats.HeartbeatMisses += s.HeartbeatMisses
	l.relayBytes += relayed
}

func (l *linkTotals) report(rc *runCtx) {
	rc.set("transport.dispatched", float64(l.stats.Dispatched))
	rc.set("transport.completed", float64(l.stats.Completed))
	rc.set("transport.duplicates", float64(l.stats.Duplicates))
	rc.set("transport.reconnects", float64(l.stats.Reconnects))
	rc.set("transport.heartbeat_misses", float64(l.stats.HeartbeatMisses))
	if l.stats.Dispatched > 0 {
		// Every frame the relay forwarded, handshakes and heartbeats too.
		rc.set("transport.bytes_per_dispatch", float64(l.relayBytes)/float64(l.stats.Dispatched))
		rc.set("transport.bytes_per_ex", float64(l.relayBytes)/float64(l.examples))
	}
}
