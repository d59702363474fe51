package core

import (
	"context"
	"fmt"
	"time"

	"heterosgd/internal/data"
	"heterosgd/internal/device"
	"heterosgd/internal/elastic"
	"heterosgd/internal/faults"
	"heterosgd/internal/nn"
	"heterosgd/internal/simclock"
	"heterosgd/internal/telemetry"
)

// simWorker is one worker's state inside the discrete-event engine.
type simWorker struct {
	id   int
	name string
	wc   WorkerConfig
	// lane holds the workspace, gradient, and optimizer state; the
	// event-driven engine runs a worker's sub-batches one after another, so
	// one lane serves them all.
	lane
	// replica is the deep-copy buffer for workers with DeepReplica set
	// (always GPU workers; optionally CPU workers, as an ablation of the
	// paper's reference-replica design).
	replica *nn.Params
	idle    bool
	// inj injects this worker's scheduled faults (nil = none).
	inj *faults.Injector
	// backlog holds batches re-dispatched from a failed worker, served
	// before the worker asks the coordinator for new work.
	backlog []data.Batch
}

// RunSim trains cfg's model for a virtual-time budget of horizon using the
// discrete-event engine. Every gradient and model update is computed for
// real with the same kernels as RunReal; only elapsed time is virtual,
// produced by the per-device cost models — this is how the paper's
// wall-clock figures are reproduced without a physical V100 (DESIGN.md §2).
//
// Per the paper's methodology (§VII-A), loss-evaluation time is excluded
// from the convergence clock: trace timestamps subtract the accumulated
// end-of-epoch evaluation durations, while the utilization trace keeps them
// (Figure 7's end-of-epoch GPU bumps).
//
// The engine is cancellable: cancellation of ctx is observed at every
// dispatch and sampling point, after which no new work is scheduled, the
// already-scheduled events drain, a final checkpoint is emitted through
// cfg.CheckpointSink (if configured), and the partial Result returns with
// Interrupted set. A run may also warm-start from cfg.Resume; because the
// engine is deterministic, a resumed run continues the exact trajectory of
// the interrupted one (cfg.Dataset must be freshly loaded, in original
// order, as a new process provides — restore replays the epoch shuffles).
func RunSim(ctx context.Context, cfg Config, horizon time.Duration) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.supportedOn(engineSim); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r, err := newRun(&cfg)
	if err != nil {
		return nil, err
	}
	net, ds, global, modelBytes, coord := r.net, r.ds, r.global, r.modelBytes, r.coord
	health, stale, guard, mem, planCur := r.health, r.stale, r.guard, r.mem, r.planCur
	// Telemetry: spans are stamped with the virtual clock, so a fixed-seed
	// run exports a byte-identical Chrome trace. The engine is
	// single-threaded, so every ring (workers and coordinator alike) obeys
	// the single-writer contract trivially.
	tel, rm, coordRing, raw, util, events := r.tel, r.rm, r.coordRing, r.raw, r.util, r.events
	clk := simclock.New()
	step := laneStep{net: net, decay: cfg.WeightDecay, guard: cfg.Guards != nil, mode: cfg.UpdateMode}

	// buildWorker constructs one worker's engine state; elastic joiners are
	// built with the same path as the initial set. Nothing here draws random
	// numbers (every init is zero or a clone), so a mid-run join does not
	// perturb the shuffle or init streams — a determinism requirement.
	buildWorker := func(id int, wc WorkerConfig, name string) *simWorker {
		w := &simWorker{id: id, name: name, wc: wc, inj: cfg.Faults.ForWorker(id)}
		w.lane = newLane(&cfg, global, min(wc.MaxBatch, ds.N()))
		if wc.DeepReplica && wc.Device.Kind() == device.KindCPU {
			w.replica = global.Clone()
		}
		if cfg.Algorithm == AlgLocalSGD || (cfg.Algorithm == AlgDCASGD && cfg.DCLambda != 0 && wc.DeepReplica) {
			// LocalSGD: the private replica the K local steps run on.
			// DC-ASGD: retains the dispatch-time model (w_then) so the
			// stale gradient can be delay-compensated at apply time.
			w.replica = global.Clone()
		}
		if cfg.Algorithm == AlgSVRG && wc.Device.Kind() == device.KindCPU {
			w.scratch = net.NewParams(nn.InitZero, nil)
		}
		return w
	}
	workers := make([]*simWorker, len(cfg.Workers))
	for i, wc := range cfg.Workers {
		workers[i] = buildWorker(i, wc, wc.Device.Name())
	}
	var svrg *svrgState
	if cfg.Algorithm == AlgSVRG {
		svrg = newSVRGState(net)
		step.svrg = svrg
	}
	var lsgd *localRoundState
	if cfg.Algorithm == AlgLocalSGD {
		lsgd = &localRoundState{sum: net.NewParams(nn.InitZero, nil)}
	}
	evalN := r.evalN
	evalLoss := func() float64 { return r.evalLoss(1) }
	evalDev := cfg.EvalDevice
	if evalDev == nil {
		evalDev = cfg.Workers[0].Device
	}

	// evalDebt is the accumulated loss-evaluation time excluded from the
	// convergence clock; globalUpdates drives staleness accounting.
	var evalDebt time.Duration
	var globalUpdates int64
	elapsed := func() time.Duration { return clk.Now() - evalDebt }

	// lsgdApply is the LocalSGD round barrier: once every participant is
	// back, the global model becomes the average of their replicas.
	lsgdApply := func() {
		if len(lsgd.done) == 0 {
			return
		}
		averageReplicas(global, lsgd.sum, lsgd.done)
		globalUpdates++
		lsgd.done = lsgd.done[:0]
	}

	// addPoint stamps a trace sample with the eval-corrected clock,
	// clamped monotonically: a sample landing inside an excluded eval
	// window would otherwise appear to travel back in time.
	var lastStamp time.Duration
	addPoint := func(loss float64) {
		at := elapsed()
		if at < lastStamp {
			at = lastStamp
		}
		lastStamp = at
		r.record(at, loss)
		if cfg.TargetLoss > 0 && loss <= cfg.TargetLoss && !r.converged {
			r.converged = true
			// Shrink the horizon so no further work is dispatched; the
			// run drains its in-flight iterations and stops.
			horizon = at
		}
	}

	// checkCancel observes context cancellation at every scheduling point:
	// once cancelled, the horizon shrinks to the current clock so no new
	// work is dispatched and the already-scheduled events drain — the
	// discrete-event analogue of RunReal's sentinel-and-drain.
	checkCancel := func() bool {
		if r.interrupted {
			return true
		}
		if ctx.Err() == nil {
			return false
		}
		r.interrupted = true
		events.Add(elapsed(), "", "interrupt", "context cancelled; draining in-flight work")
		if h := elapsed(); h < horizon {
			horizon = h
		}
		return true
	}

	// writeCkpt captures a RunState for the checkpoint sink. The simulated
	// engine checkpoints at epoch barriers and on drain only — both exact
	// consistency points (no in-flight work unaccounted for), which is what
	// makes a resumed deterministic run continue the identical trajectory.
	writeCkpt := func() {
		if cfg.CheckpointSink == nil {
			return
		}
		st, err := r.captureState(elapsed())
		if err == nil {
			if mem != nil {
				// Elastic runs capture the worker set alongside the model:
				// resume must reconstruct who was active, draining, or gone,
				// not just what the parameters were.
				st.Membership = captureMembership(mem, stale, len(cfg.Workers), r.completed)
			}
			st.Params = global.Clone()
			err = cfg.CheckpointSink.WriteState(st)
		}
		if err != nil {
			events.Add(elapsed(), "", "ckpt-error", err.Error())
			return
		}
		tel.Span(coordRing, telemetry.KindCheckpoint, clk.Now(), 0, raw.Total())
		rm.checkpoints.Inc()
	}

	addPoint(evalLoss())

	var dispatch func(w *simWorker)
	var redispatch func(batch data.Batch, from int)
	var fatalErr error
	// Membership plumbing: scripted events fire on the run-wide count of
	// completed dispatches (a protocol event, never wall time — that is what
	// makes a churn schedule replay byte-identically); the autoscale policy,
	// when configured, is consulted at epoch barriers via decideScale.
	var applyEvent func(e elastic.Event)
	var decideScale func()
	fireMembership := func() {
		if mem == nil {
			return
		}
		for _, e := range planCur.Fire(r.completed) {
			applyEvent(e)
		}
	}
	// wakeGated re-dispatches workers the SSP gate would now admit; called
	// whenever the minimum healthy clock may have moved (any completion,
	// crash, quarantine, or readmission).
	wakeGated := func() {
		for _, id := range stale.wake() {
			gw := workers[id]
			if gw.idle && health.ok(id) {
				gw.idle = false
				dispatch(gw)
			}
		}
	}
	// pending holds re-dispatched batches with no healthy worker to run
	// them; a readmitted worker picks them up.
	var pending []data.Batch
	allIdle := func() bool {
		for _, w := range workers {
			if !w.idle {
				return false
			}
		}
		return true
	}
	// maybeEpochEnd performs the end-of-epoch barrier: when the pool is
	// drained and every worker has gone idle, the loss is evaluated on the
	// eval device (paper: always the GPU), then the pool refills and all
	// workers are redispatched. Crashed and quarantined workers sit idle
	// and do not block the barrier. The divergence guard checkpoints or
	// rolls back here, on the evaluated loss.
	// publishSnap hands the sink a deep copy of the shared model. The
	// engine is single-threaded, so a plain clone is always consistent.
	publishSnap := func() {
		if cfg.SnapshotSink != nil {
			cfg.SnapshotSink.PublishParams(global.Clone())
			tel.Span(coordRing, telemetry.KindSnapshot, clk.Now(), 0, int64(modelBytes))
			rm.snapshots.Inc()
		}
	}

	maybeEpochEnd := func() {
		if !coord.poolEmpty() || !allIdle() {
			return
		}
		evalDur := evalDev.EvalTime(net.Arch, ds.N())
		util.AddBusy(evalDevName(evalDev, &cfg, workers), clk.Now(), clk.Now()+evalDur, 0.95)
		tel.Span(coordRing, telemetry.KindEval, clk.Now(), evalDur, int64(evalN))
		loss := evalLoss()
		addPoint(loss)
		publishSnap()
		if _, diverged := guard.onEval(loss, global, health.report, events, elapsed()); diverged {
			horizon = lastStamp
		}
		// Checkpoint after the guard verdict so a rollback's restored model
		// and backed-off LR scale are what a resume would load. The pool is
		// drained here (Cursor == N): an exact barrier capture.
		writeCkpt()
		evalDebt += evalDur
		clk.Schedule(evalDur, func() {
			if checkCancel() || elapsed() >= horizon {
				return
			}
			if decideScale != nil {
				decideScale()
			}
			coord.refill()
			for _, w := range workers {
				if w.idle {
					w.idle = false
					dispatch(w)
				}
			}
		})
	}

	// redispatch re-routes a batch from a crashed or quarantined worker to
	// the next healthy worker's backlog, split to fit the target's batch
	// ceiling, waking the target if it sits idle. With no healthy worker
	// the batch waits in pending for a readmission.
	redispatch = func(batch data.Batch, from int) {
		target := health.pickHealthy(from)
		if target < 0 {
			pending = append(pending, batch)
			return
		}
		tw := workers[target]
		health.report.Redispatches++
		rm.redispatch.Inc()
		events.Add(elapsed(), tw.name, "redispatch",
			fmt.Sprintf("%d examples from %s", batch.Size(), workers[from].name))
		tw.backlog = append(tw.backlog, splitBatch(batch, tw.wc.MaxBatch)...)
		if tw.idle {
			tw.idle = false
			dispatch(tw)
		}
	}

	dispatch = func(w *simWorker) {
		if !health.ok(w.id) || checkCancel() || elapsed() >= horizon {
			w.idle = true
			return
		}
		if mem != nil && !mem.Active(w.id) {
			// A draining worker reaching its next scheduling point has no
			// in-flight work left: complete the graceful departure. (Evicted
			// workers were marked departed immediately and never get here —
			// the health check above catches them.)
			w.idle = true
			if mem.Draining(w.id) && mem.Retire(w.id) {
				r.retired(w.id, elapsed())
				wakeGated()
			}
			maybeEpochEnd()
			return
		}
		if lsgd != nil {
			// LocalSGD: one dispatch is one round share for this worker —
			// up to LocalSteps pool batches, each one local SGD step on the
			// private replica. The round barrier (all participants back)
			// averages the replicas into the global model.
			first, ok := coord.scheduleWork(w.id)
			if !ok {
				w.idle = true
				maybeEpochEnd()
				return
			}
			lr := cfg.ScheduledLR(first.Size(), coord.epochFrac()) * coord.lrScale(w.id) * guard.scale()
			steps := []data.Batch{first}
			for len(steps) < cfg.LocalSteps {
				nb, ok := coord.scheduleWork(w.id)
				if !ok {
					break
				}
				steps = append(steps, nb)
			}
			stAt := stale.staleness(w.id)
			var dur time.Duration
			var total int64
			for _, sb := range steps {
				dur += w.wc.Device.IterTime(net.Arch, sb.Size(), modelBytes)
				total += int64(sb.Size())
			}
			tel.Span(coordRing, telemetry.KindSchedule, clk.Now(), 0, total)
			rm.examples.Add(total)
			tel.Span(w.id, telemetry.KindGradient, clk.Now(), dur, total)
			util.AddBusy(w.name, clk.Now(), clk.Now()+dur, w.wc.Device.Utilization(net.Arch, steps[0].Size()))
			updates, dropped := step.localRound(&w.lane, global, w.replica, steps, lr)
			if dropped > 0 {
				r.drop(w.id, dropped, elapsed(), "drop", fmt.Sprintf("%d non-finite local steps discarded", dropped))
			}
			lsgd.outstanding++
			clk.Schedule(dur, func() {
				tel.Span(w.id, telemetry.KindApply, clk.Now(), 0, updates)
				raw.Add(w.name, updates)
				coord.reportUpdates(w.id, updates)
				stale.observe(stAt)
				stale.advance(w.id)
				lsgd.done = append(lsgd.done, w.replica)
				lsgd.outstanding--
				if lsgd.outstanding > 0 {
					return
				}
				lsgdApply()
				for _, pw := range workers {
					pw.idle = false
					dispatch(pw)
				}
			})
			return
		}

		var batch data.Batch
		// stAt is the dispatch-time staleness the histogram records at
		// completion; -1 marks gate-exempt recovery work (excluded).
		stAt := int64(-1)
		if len(w.backlog) > 0 {
			batch = w.backlog[0]
			w.backlog = w.backlog[1:]
		} else {
			if !stale.allow(w.id) {
				// SSP gate: this worker's clock is more than the bound
				// ahead of the slowest healthy worker; park it until a
				// laggard's completion wakes it. A parked worker counts as
				// idle so it cannot wedge the epoch barrier.
				w.idle = true
				stale.block(w.id)
				maybeEpochEnd()
				return
			}
			stale.pass(w.id)
			var ok bool
			batch, ok = coord.scheduleWork(w.id)
			if !ok {
				w.idle = true
				maybeEpochEnd()
				return
			}
			stAt = stale.staleness(w.id)
			r.noteBatch(w.id, elapsed())
		}
		b := batch.Size()
		tel.Span(coordRing, telemetry.KindSchedule, clk.Now(), 0, int64(b))
		rm.examples.Add(int64(b))
		fault := w.inj.Begin()
		if fault.Crash {
			// The worker dies before computing anything; its batch moves
			// to a survivor. The simulated engine reports the injected
			// crash itself — there is no goroutine to panic.
			cerr := faults.CrashError{Worker: w.id, Iteration: w.inj.Iterations() - 1}
			health.markCrashed(w.id, elapsed(), cerr.Error())
			w.idle = true
			redispatch(batch, w.id)
			if health.aliveCount() == 0 {
				fatalErr = fmt.Errorf("core: all %d workers failed — cannot continue training: %w", len(workers), cerr)
				horizon = lastStamp
			}
			wakeGated()
			maybeEpochEnd()
			return
		}
		dur := w.wc.Device.IterTime(net.Arch, b, modelBytes) + fault.Hang
		tel.Span(w.id, telemetry.KindGradient, clk.Now(), dur, int64(b))
		util.AddBusy(w.name, clk.Now(), clk.Now()+dur, w.wc.Device.Utilization(net.Arch, b))
		lr := cfg.ScheduledLR(b, coord.epochFrac()) * coord.lrScale(w.id) * guard.scale()

		// With a watchdog, an iteration running past its deadline (only
		// possible through an injected hang, since the deadline derives
		// from the same cost model that produces dur) quarantines the
		// worker in virtual time and re-dispatches the batch; the eventual
		// completion is the readmission probe.
		abandoned := false
		if cfg.Watchdog != nil {
			if deadline := watchdogDeadline(cfg.Watchdog, &w.wc, net.Arch, b, modelBytes); dur > deadline {
				clk.Schedule(deadline, func() {
					if health.quarantine(w.id, elapsed(), fmt.Sprintf("dispatch of %d examples overdue", b)) {
						abandoned = true
						w.idle = true
						redispatch(batch, w.id)
						wakeGated()
						maybeEpochEnd()
					}
				})
			}
		}
		// finish wraps a completion callback with readmission handling:
		// a quarantined worker returning from its overdue iteration
		// rejoins the rotation and drains any batches parked in pending.
		finish := func(report func()) func() {
			return func() {
				report()
				stale.advance(w.id)
				if abandoned {
					health.readmit(w.id, elapsed())
					stale.catchUp(w.id)
					w.idle = false
					for len(pending) > 0 {
						pb := pending[0]
						pending = pending[1:]
						w.backlog = append(w.backlog, splitBatch(pb, w.wc.MaxBatch)...)
					}
				} else {
					stale.observe(stAt)
				}
				wakeGated()
				r.completed++
				fireMembership()
				dispatch(w)
			}
		}

		if w.wc.Device.Kind() == device.KindCPU {
			// CPU worker (reference replica): the batch splits into
			// Threads sub-batches whose gradients update the shared
			// model one after another — sequentialized Hogwild, the
			// event-driven equivalent of Algorithm 2's parallel loop.
			n, dropped := cpuIteration(&step, global, w, batch, lr, fault.Corrupt)
			globalUpdates += n
			raw.Add(w.name, n)
			if dropped > 0 {
				r.drop(w.id, dropped, elapsed(), "drop", fmt.Sprintf("%d non-finite updates discarded", dropped))
			}
			clk.Schedule(dur, finish(func() {
				tel.Span(w.id, telemetry.KindApply, clk.Now(), 0, n)
				coord.reportUpdates(w.id, n)
			}))
			return
		}

		if svrg != nil {
			// SVRG GPU worker: its large batch becomes the anchor sample.
			// w̃ and μ are computed against the dispatch-time model and
			// become visible to CPU workers at completion — the "rare
			// jump using a compass" (§II) as an explicit anchor refresh.
			svrg.beginAnchor(net, global, w.ws, batch)
			clk.Schedule(dur, finish(func() {
				svrg.publishAnchor()
				tel.Span(w.id, telemetry.KindApply, clk.Now(), 0, 1)
				raw.Add(w.name, 1)
				coord.reportUpdates(w.id, 1)
			}))
			return
		}

		// GPU worker (deep replica): the gradient is computed against the
		// model as of dispatch time — the state the replica was copied
		// from — and applied when the iteration completes, which is how
		// replica staleness arises (§VI-B).
		net.GradientX(global, w.ws, batch.Input(), batch.Y, w.grad, 1)
		if cfg.WeightDecay > 0 {
			w.grad.AddDecay(cfg.WeightDecay, global)
		}
		if fault.Corrupt {
			faults.Poison(w.grad)
		}
		if cfg.Algorithm == AlgDCASGD && w.replica != nil {
			// Retain w_then — the model this gradient was computed against —
			// for delay compensation at apply time.
			w.replica.CopyFrom(global)
		}
		snapshot := globalUpdates
		clk.Schedule(dur, finish(func() {
			if cfg.Algorithm == AlgDCASGD && cfg.DCLambda != 0 && w.replica != nil {
				w.grad.DelayCompensate(cfg.DCLambda, global, w.replica)
			}
			if cfg.Guards != nil && !w.grad.AllFinite() {
				r.drop(w.id, 1, elapsed(), "drop", "non-finite gradient discarded")
				coord.reportUpdates(w.id, 0)
				return
			}
			lrEff := lr
			if cfg.StaleDamping > 0 {
				stale := globalUpdates - snapshot
				lrEff = lr / (1 + cfg.StaleDamping*float64(stale))
			}
			applyStep(w.optim, w.grad, w.delta, global, cfg.UpdateMode, lrEff)
			tel.Span(w.id, telemetry.KindApply, clk.Now(), 0, 1)
			globalUpdates++
			raw.Add(w.name, 1)
			coord.reportUpdates(w.id, 1)
		}))
	}

	// joinWorker admits a fresh elastic worker: grow every per-worker table
	// in lockstep (config, health, scheduler, clock), rebalance the adaptive
	// comparators over the new set, and dispatch it. The joiner's device
	// clones the initial mix round-robin, and its SSP clock enters at the
	// healthy minimum (stale.addWorker) so it is neither gate-parked nor a
	// drag on the bound.
	joinWorker := func(reason string) {
		id, ok := r.admit(reason, elapsed())
		if !ok {
			return
		}
		w := buildWorker(id, cfg.Workers[id], r.name(id))
		workers = append(workers, w)
		dispatch(w)
	}
	applyEvent = func(e elastic.Event) {
		switch e.Kind {
		case elastic.EventJoin:
			joinWorker("scripted join")
		case elastic.EventLeave:
			if !r.beginLeave(e.Worker, elapsed()) {
				return
			}
			w := workers[e.Worker]
			// Hand parked recovery work to the survivors before draining.
			bl := w.backlog
			w.backlog = nil
			for _, b := range bl {
				redispatch(b, w.id)
			}
			r.rebalanced()
			// An idle leaver has nothing in flight: retire it on the spot.
			// Otherwise its next scheduling point completes the departure.
			if w.idle && mem.Retire(e.Worker) {
				r.retired(e.Worker, elapsed())
				wakeGated()
				maybeEpochEnd()
			}
		case elastic.EventEvict:
			if !r.beginEvict(e.Worker, elapsed()) {
				return
			}
			w := workers[e.Worker]
			// Re-route parked work like a crash would; an in-flight virtual
			// iteration still completes (the sim cannot abort mid-event) and
			// its updates land like any straggler completion.
			bl := w.backlog
			w.backlog = nil
			for _, b := range bl {
				redispatch(b, w.id)
			}
			r.rebalanced()
			rm.elasticWorkers.Set(float64(mem.ActiveCount()))
			wakeGated()
			maybeEpochEnd()
		}
	}
	if mem != nil && cfg.ElasticPolicy != nil {
		decideScale = func() {
			s := elastic.Sample{Active: mem.ActiveCount(), Min: mem.Min(), Max: mem.Max(), Dispatches: r.completed}
			var sum time.Duration
			n := 0
			for _, w := range workers {
				if mem.Active(w.id) && health.ok(w.id) {
					sum += w.wc.Device.IterTime(net.Arch, coord.batch[w.id], modelBytes)
					n++
				}
			}
			if n > 0 {
				s.Compute = sum / time.Duration(n)
			}
			victim, worst := r.costliest()
			// The event-driven engine has no queueing, so QueueWait stays
			// zero: the policy grows only to honor Min and shrinks only when
			// the marginal worker's modeled cost dominates.
			s.MarginalCost = worst
			switch cfg.ElasticPolicy.Decide(s) {
			case elastic.Grow:
				joinWorker("policy grow")
			case elastic.Shrink:
				if victim >= 0 {
					applyEvent(elastic.LeaveAt(victim, r.completed))
				}
			}
		}
	}

	if cfg.SampleEvery > 0 {
		var sample func()
		sample = func() {
			if checkCancel() || elapsed() >= horizon {
				return
			}
			addPoint(evalLoss())
			clk.Schedule(cfg.SampleEvery, sample)
		}
		clk.Schedule(cfg.SampleEvery, sample)
	}
	if cfg.SnapshotSink != nil && cfg.SnapshotEvery > 0 {
		var snap func()
		snap = func() {
			if checkCancel() || elapsed() >= horizon {
				return
			}
			publishSnap()
			clk.Schedule(cfg.SnapshotEvery, snap)
		}
		clk.Schedule(cfg.SnapshotEvery, snap)
	}

	for _, w := range workers {
		dispatch(w)
	}
	clk.RunAll()
	if fatalErr != nil {
		return nil, fatalErr
	}
	if ctx.Err() != nil {
		r.interrupted = true
	}

	final := evalLoss()
	publishSnap()
	// The drain checkpoint: always emitted, so an interrupted run's last
	// checkpoint reflects everything it completed.
	writeCkpt()
	horizon = max(horizon, lastStamp)
	return r.result(horizon, 0, horizon, final), nil
}

// localRoundState tracks one LocalSGD round: how many participants are
// still computing, which replicas await the barrier average, and the
// scratch buffer the average accumulates into.
type localRoundState struct {
	outstanding int
	done        []*nn.Params
	sum         *nn.Params
}

// cpuIteration performs one CPU Hogbatch iteration: split the batch into
// the worker's Threads sub-batches and apply each sub-batch gradient to the
// shared model in turn. Returns the number of model updates performed.
//
// With a reference replica (the default, §V) each sub-batch gradient is
// computed against the live shared model; with a deep replica (ablation)
// all gradients are computed against a snapshot taken at dispatch, so
// intra-batch updates do not see each other.
//
// corrupt poisons every sub-batch gradient (fault injection); with guards
// enabled, non-finite gradients are discarded before reaching the model
// and counted in dropped.
func cpuIteration(step *laneStep, global *nn.Params, w *simWorker, batch data.Batch, lr float64, corrupt bool) (updates, dropped int64) {
	t := min(max(w.wc.Threads, 1), batch.Size())
	readModel := global
	if w.replica != nil {
		w.replica.CopyFrom(global)
		readModel = w.replica
	}
	for i := 0; i < t; i++ {
		if step.run(&w.lane, readModel, global, laneSub(batch, i, t), lr, 1, corrupt) {
			updates++
		} else {
			dropped++
		}
	}
	return updates, dropped
}

// evalDevName returns the utilization-trace key for the eval device: when
// the eval device is also a worker, reuse that worker's name so the busy
// interval lands on the right series.
func evalDevName(dev device.Device, cfg *Config, workers []*simWorker) string {
	for _, w := range workers {
		if w.wc.Device == dev {
			return w.name
		}
	}
	return dev.Name()
}
