package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"heterosgd/internal/data"
	"heterosgd/internal/elastic"
	"heterosgd/internal/metrics"
	"heterosgd/internal/nn"
	"heterosgd/internal/telemetry"
	"heterosgd/internal/tensor"
	"heterosgd/internal/transport"
)

// This file is the coordinator: the paper's coordinator thread (§V,
// Algorithms 1–2) extended with the recovery state machine (healthy →
// quarantined → readmitted, healthy → crashed), the SSP gate, elastic
// membership, the synchronous-round barrier, and the snapshot/checkpoint
// cadence. RunSim, RunReal and RunCluster all run it; what differs between
// them — how work reaches a worker, and what the clock means — sits behind
// the executor seam.
//
// The coordinator↔worker messages are transport.Work (ExecuteWork: the batch
// as an absolute [Lo,Hi) range, the learning rate, and the dispatch sequence
// number the completion must echo) and transport.Done (ScheduleWork: updates
// applied, divergence-guard drops, and failure reports).

// inflightDispatch is the coordinator's record of one outstanding dispatch:
// who has it, what it carries, and when the watchdog gives up on it.
// abandoned marks dispatches whose worker was quarantined or evicted — the
// batch was re-dispatched elsewhere and the eventual completion only serves
// as the readmission probe.
type inflightDispatch struct {
	seq    uint64
	worker int
	batch  data.Batch
	// deadline is when the watchdog gives up, on the span clock; 0 = never.
	deadline  time.Duration
	abandoned bool
	// staleness is the dispatch-time staleness the histogram records when
	// the completion applies; -1 marks gate-exempt recovery work.
	staleness int64
	// sent and modeled feed the autoscale policy's load sample: measured
	// span minus the modeled iteration time approximates queueing delay.
	sent    time.Duration
	modeled time.Duration
}

// clock is the run's time, read two ways. Wall-clock engines read both the
// same; the simulated engine's differ by the evaluation time §VII-A excludes.
type clock interface {
	// now is the span clock — time since the run began. Telemetry spans,
	// utilisation, dispatch deadlines and cadences live on it.
	now() time.Duration
	// elapsed is the convergence clock the budget, trace points, events and
	// batch-size changes are stamped with.
	elapsed() time.Duration
}

// wallClock is the clock of an engine whose workers really run.
type wallClock struct{ began time.Time }

func (c wallClock) now() time.Duration     { return time.Since(c.began) }
func (c wallClock) elapsed() time.Duration { return time.Since(c.began) }

// evalTime: the evaluation took what the clock measured.
func (c wallClock) evalTime(t0 time.Duration) time.Duration { return c.now() - t0 }

// executor is everything that differs between the engines that run the
// coordinator: virtual workers on a discrete-event clock (RunSim), goroutines
// sharing the model in memory (RunReal), or remote processes trading
// parameters for deltas (RunCluster).
type executor interface {
	clock
	// attach brings the initial workers up before the first dispatch and
	// returns the elastic joiners that arrived meanwhile, in arrival order.
	attach(ctx context.Context) (joined []int, err error)
	// decorate adds what worker id needs beyond the batch range.
	decorate(id int, w transport.Work) transport.Work
	// accept settles a completion whose dispatch was in flight (fl.abandoned
	// tells a straggler's from a live one): whatever makes its updates count
	// in the model and the scheduler, or discards them.
	accept(msg *transport.Done, fl *inflightDispatch)
	// spawn starts the worker behind a freshly admitted slot.
	spawn(id int)
	// drain stops a departed worker and returns the work it never started.
	drain(id int) []transport.Work
	// evalTime is how long the barrier loss evaluation begun at t0 keeps the
	// workers waiting: measured, or modeled on the eval device.
	evalTime(t0 time.Duration) time.Duration
	// shutdown stops the workers, closes the transport, and records the
	// transport's traffic counters.
	shutdown()
}

// nopLocker is the model lock of a run whose model needs none.
type nopLocker struct{}

func (nopLocker) Lock()   {}
func (nopLocker) Unlock() {}

// modelLock returns the lock a coordinator-side read or write of the live
// model must hold: the workers' own lock in UpdateLocked mode (laneStep.mu),
// none otherwise — the sim and cluster engines write the model from the
// coordinator alone.
func (l *coordLoop) modelLock(write bool) sync.Locker {
	switch {
	case l.step.mu == nil:
		return nopLocker{}
	case write:
		return l.step.mu
	}
	return l.step.mu.RLocker()
}

// coordLoop is the coordinator loop and everything it owns: the model, the
// scheduling coordinator, the health/staleness/guard trackers (the health
// tracker is the worker lifecycle, elastic membership included), and the
// instruments. Like the paper's coordinator thread it processes messages
// sequentially on one goroutine, so none of its state needs locking. The
// engines differ in how work reaches a worker and in what their clock means
// (the executor), not in any of this.
type coordLoop struct {
	cfg        *Config
	net        *nn.Network
	ds         *data.Dataset
	global     *nn.Params
	modelBytes int64
	coord      *coordinator
	tel        *telemetry.Tracer
	rm         runMetrics
	coordRing  int
	raw        *metrics.UpdateCounter
	util       *metrics.UtilizationTrace
	trace      *metrics.Trace
	events     *metrics.EventLog
	health     *healthTracker
	stale      *staleTracker
	guard      *guardState
	evalN      int
	evalWS     *nn.Workspace

	// planCur walks the scripted membership plan.
	planCur        *elastic.Cursor
	initialWorkers int
	// completed counts dispatches completed across every incarnation of the
	// run; scripted churn triggers and membership captures count against
	// it, so it resumes from the checkpoint rather than zero.
	completed int64

	lastBatch              []int
	batchTrace             []BatchEvent
	converged, interrupted bool

	exec   executor
	trans  transport.Transport
	ctx    context.Context
	budget time.Duration
	// step is the run's per-lane update rule; workers holds, by id, the
	// in-process workers it runs on (a cluster run's live in other
	// processes).
	step    laneStep
	workers []*worker

	// tr is the delivery accounting; RunCluster publishes it in the Result.
	tr *TransportReport

	// Each worker holds at most ONE outstanding dispatch (busy), so a
	// dispatch's deadline starts ticking only when the worker can actually
	// start it. Re-dispatched batches queue in the worker's feed (split to
	// its batch ceiling) and are sent one at a time; pending holds batches
	// with no healthy worker to run them. flight lists the dispatches not
	// yet settled in seq order — the order every walk that re-routes work
	// must take, or a fixed-seed simulation would not repeat; outstanding
	// counts the live ones.
	flight      []*inflightDispatch
	seq         uint64
	outstanding int
	busy        []bool
	feed        [][]data.Batch
	pending     []data.Batch

	// round collects the replicas back from the current synchronous round.
	round    []*nn.Params
	roundSum *nn.Params

	// resting holds the next epoch back until the barrier's loss evaluation
	// has run its course at resumeAt (already past on a wall clock).
	resting  bool
	resumeAt time.Duration

	lastSnap, lastCkpt time.Duration
	// Load measured since the last epoch barrier, for the autoscale policy.
	elWait, elCompute time.Duration
	elCount           int64
}

// newCoordLoop builds the coordinator for a validated cfg, restoring
// cfg.Resume when set. cfg is the engine's private copy: elastic joins
// append to its Workers.
func newCoordLoop(ctx context.Context, cfg *Config, trans transport.Transport, budget time.Duration) (*coordLoop, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(cfg.Workers)
	l := &coordLoop{
		cfg:            cfg,
		net:            cfg.Net,
		ds:             cfg.Dataset,
		global:         cfg.Net.NewParams(nn.InitXavier, cfg.newRNG()),
		coord:          newCoordinator(cfg),
		tel:            cfg.Tracer,
		rm:             newRunMetrics(cfg.Metrics),
		coordRing:      cfg.coordRing(),
		raw:            metrics.NewUpdateCounter(),
		util:           metrics.NewUtilizationTrace(),
		trace:          &metrics.Trace{Name: cfg.Algorithm.String()},
		events:         metrics.NewEventLog(),
		initialWorkers: n,
		lastBatch:      make([]int, n),
		trans:          trans,
		ctx:            ctx,
		budget:         budget,
		tr:             &TransportReport{},
		busy:           make([]bool, n),
		feed:           make([][]data.Batch, n),
	}
	if cfg.InitialParams != nil {
		l.global.CopyFrom(cfg.InitialParams)
	}
	l.modelBytes = l.global.SizeBytes()
	l.health = newHealthTracker(cfg, l.events)
	l.coord.tracker = l.health
	l.stale = newStaleTracker(cfg, l.health, &l.rm)
	l.guard = newGuardState(cfg.Guards, l.global)
	l.evalN = l.ds.N()
	if cfg.EvalSubset > 0 && cfg.EvalSubset < l.evalN {
		l.evalN = cfg.EvalSubset
	}
	l.evalWS = l.net.NewWorkspace(l.evalN)
	l.step = laneStep{net: l.net, decay: cfg.WeightDecay, guard: cfg.Guards, mode: cfg.UpdateMode, gemm: runtime.GOMAXPROCS(0), rounds: cfg.rounds()}
	if cfg.svrgAnchor() {
		l.step.svrg = newSVRGState(l.net)
	}
	if cfg.delayCompensated() {
		l.step.dc = cfg.DCLambda
	}
	if cfg.rounds() {
		l.roundSum = l.net.NewParams(nn.InitZero, nil)
	}
	if cfg.elasticEnabled() {
		l.planCur = cfg.Elastic.Begin()
	}
	if err := l.resume(); err != nil {
		return nil, err
	}
	l.health.gauge = l.rm.elasticWorkers
	l.health.recount()
	return l, nil
}

func (l *coordLoop) now() time.Duration     { return l.exec.now() }
func (l *coordLoop) elapsed() time.Duration { return l.exec.elapsed() }

// cancelled observes ctx at every scheduling point: once it is cancelled the
// run schedules nothing more and only collects completions.
func (l *coordLoop) cancelled() bool {
	if !l.interrupted && l.ctx.Err() != nil {
		l.interrupted = true
		l.events.Add(l.elapsed(), "", "interrupt", "context cancelled; draining in-flight work")
	}
	return l.interrupted
}

func (l *coordLoop) overBudget() bool {
	return l.converged || l.cancelled() || l.elapsed() >= l.budget
}

// point adds a loss sample to the trace and the live gauges; reaching the
// target loss ends scheduling.
func (l *coordLoop) point(at time.Duration, loss float64) {
	epoch := l.coord.epochFrac()
	l.trace.Add(at, epoch, loss)
	l.rm.loss.Set(loss)
	l.rm.epochs.Set(epoch)
	if l.cfg.TargetLoss > 0 && isFinite(loss) && loss <= l.cfg.TargetLoss {
		l.converged = true
	}
}

// sample adds a between-barrier loss sample (Config.SampleEvery) and reports
// whether more may follow.
func (l *coordLoop) sample() bool {
	if l.overBudget() {
		return false
	}
	l.point(l.elapsed(), l.lockedLoss())
	return true
}

// lockedLoss evaluates the loss under the model read lock (quarantined
// stragglers may still be mid-iteration).
func (l *coordLoop) lockedLoss() float64 {
	mu := l.modelLock(false)
	mu.Lock()
	defer mu.Unlock()
	return l.evalLoss()
}

// cloneModel copies the live model under the run's read discipline: against
// UpdateAtomic writers row by row under their stripes, in locked mode under
// the read lock (as gradient reads are), and in racy mode plainly — as
// unsynchronized as the training it observes.
func (l *coordLoop) cloneModel() *nn.Params {
	if l.cfg.UpdateMode == tensor.UpdateAtomic {
		return l.global.CloneAtomic()
	}
	mu := l.modelLock(false)
	mu.Lock()
	defer mu.Unlock()
	return l.global.Clone()
}

// enlist builds worker id with n lanes of rows examples each, gives it the
// replica its dispatches read (see readsCopy), and adds it to the workers
// table.
func (l *coordLoop) enlist(id, n, rows int) *worker {
	w := newWorker(l.cfg, id, l.name(id), l.cfg.Workers[id], n, rows)
	if l.step.readsCopy(w) {
		// Under the read discipline: a live joiner is built while workers write.
		w.replica = l.cloneModel()
	}
	l.workers = append(l.workers, w)
	return w
}

// publishSnap hands the snapshot sink (the serving subsystem's attach point)
// a copy of the model. It runs on the coordinator, so it never blocks a
// worker.
func (l *coordLoop) publishSnap(force bool) {
	if l.cfg.SnapshotSink == nil {
		return
	}
	t0 := l.now()
	if !force && (l.cfg.SnapshotEvery <= 0 || t0-l.lastSnap < l.cfg.SnapshotEvery) {
		return
	}
	l.lastSnap = t0
	l.cfg.SnapshotSink.PublishParams(l.cloneModel())
	l.tel.Span(l.coordRing, telemetry.KindSnapshot, t0, l.now()-t0, l.modelBytes)
	l.rm.snapshots.Inc()
}

// writeCkpt captures a RunState and hands it to the checkpoint sink. Sink
// errors are logged as "ckpt-error" events and never stop training.
func (l *coordLoop) writeCkpt(force bool) {
	if l.cfg.CheckpointSink == nil {
		return
	}
	t0 := l.now()
	if !force && (l.cfg.CheckpointEvery <= 0 || t0-l.lastCkpt < l.cfg.CheckpointEvery) {
		return
	}
	l.lastCkpt = t0
	st, err := l.capture()
	if err == nil {
		err = l.cfg.CheckpointSink.WriteState(st)
	}
	if err != nil {
		l.events.Add(l.elapsed(), "", "ckpt-error", err.Error())
		return
	}
	l.tel.Span(l.coordRing, telemetry.KindCheckpoint, t0, l.now()-t0, l.raw.Total())
	l.rm.checkpoints.Inc()
}

// send dispatches batch to worker id under a fresh sequence number.
func (l *coordLoop) send(id int, batch data.Batch, staleness int64) {
	size := batch.Size()
	l.seq++
	fl := &inflightDispatch{seq: l.seq, worker: id, batch: batch, staleness: staleness, sent: l.now()}
	if d := l.watchdogDeadline(id, size); d > 0 {
		fl.deadline = fl.sent + d
	}
	if l.cfg.ElasticPolicy != nil {
		fl.modeled = l.cfg.Workers[id].Device.IterTime(l.net.Arch, size, l.modelBytes)
	}
	l.flight = append(l.flight, fl)
	lrB := size
	if l.cfg.rounds() {
		// The wire batch is a whole round share; the LR schedule sees its
		// first local step.
		lrB = min(lrB, l.coord.batch[id])
	}
	lr := l.cfg.ScheduledLR(lrB, l.coord.epochFrac()) * l.coord.lrScale(id) * l.guard.scale()
	l.tel.Span(l.coordRing, telemetry.KindSchedule, fl.sent, 0, int64(size))
	l.rm.examples.Add(int64(size))
	l.busy[id] = true
	l.outstanding++
	err := l.trans.Send(id, l.exec.decorate(id, transport.Work{Seq: l.seq, Lo: batch.Lo, Hi: batch.Hi, LR: lr, SentNS: int64(fl.sent)}))
	if err != nil {
		// The link died between the last event and this send; bench the
		// worker now instead of waiting for the LinkDown event, so the batch
		// is back in rotation immediately.
		l.bench(id, "partition", fmt.Sprintf("send failed: %v", err))
	}
}

// dispatch gives worker id its next batch if it may take one: recovery work
// from its feed (or the pending queue) first, then fresh work from the epoch
// pool, subject to the budget and the SSP gate.
func (l *coordLoop) dispatch(id int) bool {
	// Only a healthy worker takes work — a draining one not even recovery
	// batches; a cancelled run schedules nothing and only collects
	// completions.
	if !l.health.ok(id) || l.busy[id] || l.cancelled() {
		return false
	}
	if len(l.feed[id]) == 0 && len(l.pending) > 0 {
		b := l.pending[0]
		l.pending = l.pending[1:]
		l.enqueue(id, b, "pending queue")
	}
	if len(l.feed[id]) > 0 {
		b := l.feed[id][0]
		l.feed[id] = l.feed[id][1:]
		l.send(id, b, -1)
		return true
	}
	if l.overBudget() {
		return false
	}
	if !l.stale.allow(id) {
		// SSP gate: fresh work only — recovery batches above bypass it, or
		// their examples could strand with every laggard quarantined and the
		// exactly-once accounting would never balance.
		l.stale.block(id)
		return false
	}
	l.stale.pass(id)
	batch, ok := l.coord.scheduleWork(id)
	if !ok {
		return false
	}
	l.noteBatch(id)
	l.send(id, batch, l.stale.staleness(id))
	return true
}

func (l *coordLoop) dispatchAll() {
	for id := range l.busy {
		l.dispatch(id)
	}
}

// enqueue parks a recovery batch in target's feed, split to its batch
// ceiling.
func (l *coordLoop) enqueue(target int, b data.Batch, from string) {
	l.health.report.Redispatches++
	l.rm.redispatch.Inc()
	l.events.Add(l.elapsed(), l.name(target), "redispatch", fmt.Sprintf("%d examples from %s", b.Size(), from))
	l.feed[target] = append(l.feed[target], splitBatch(b, l.cfg.Workers[target].MaxBatch)...)
}

// redispatch re-routes a batch whose worker crashed, timed out, or left to
// the next healthy worker; with none it waits in pending for a readmission.
func (l *coordLoop) redispatch(batch data.Batch, from int) {
	target := l.health.pickHealthy(from)
	if target < 0 {
		l.pending = append(l.pending, batch)
		return
	}
	l.enqueue(target, batch, l.name(from))
	l.dispatch(target)
}

// reroute hands everything parked in a lost worker's feed to the survivors.
func (l *coordLoop) reroute(id int) {
	stranded := l.feed[id]
	l.feed[id] = nil
	for _, b := range stranded {
		l.redispatch(b, id)
	}
}

// settle takes the dispatch numbered seq out of flight; nil when it is not
// in flight (already settled — a duplicate).
func (l *coordLoop) settle(seq uint64) *inflightDispatch {
	for i, fl := range l.flight {
		if fl.seq == seq {
			l.flight = append(l.flight[:i], l.flight[i+1:]...)
			return fl
		}
	}
	return nil
}

// wakeGated re-dispatches workers the SSP gate would now admit; called
// whenever the minimum healthy clock may have moved (any completion, crash,
// quarantine, departure, or readmission).
func (l *coordLoop) wakeGated() {
	for _, id := range l.stale.wake() {
		l.dispatch(id)
	}
}

// queuedWork reports whether any re-dispatched batch still awaits a worker.
func (l *coordLoop) queuedWork() bool {
	if len(l.pending) > 0 {
		return true
	}
	for i := range l.feed {
		if len(l.feed[i]) > 0 {
			return true
		}
	}
	return false
}

// abandon gives up on worker id's live dispatch and re-routes its batch; the
// eventual completion is the readmission probe.
func (l *coordLoop) abandon(id int) {
	for _, fl := range l.flight {
		if fl.worker == id && !fl.abandoned {
			fl.abandoned = true
			l.busy[id] = false
			l.outstanding--
			l.redispatch(fl.batch, id)
		}
	}
}

// bench quarantines worker id — kind "timeout" for a missed deadline,
// "partition" for a lost link — and abandons its in-flight dispatch; a
// draining worker departs instead.
func (l *coordLoop) bench(id int, kind, detail string) {
	if l.health.quarantine(id, l.elapsed(), kind, detail) {
		l.abandon(id)
		if l.health.state(id) == WorkerDeparted {
			l.vacate(id)
		}
	}
}

// vacate empties a departed worker's slot: the executor stops it, the work
// it never started and everything parked in its feed move to the survivors,
// and its live dispatch is abandoned, so the eventual completion is
// processed like a quarantined straggler's.
func (l *coordLoop) vacate(id int) {
	for _, m := range l.exec.drain(id) {
		if fl := l.settle(m.Seq); fl != nil && !fl.abandoned {
			l.outstanding--
			l.redispatch(fl.batch, id)
		}
	}
	l.reroute(id)
	l.abandon(id)
	l.busy[id] = false
}

// expireOverdue benches every worker holding a dispatch past its deadline.
// It runs on every wake-up, not just on timeout: a chatty healthy worker
// would otherwise keep the coordinator from ever noticing a hung one.
func (l *coordLoop) expireOverdue() {
	now := l.now()
	for _, fl := range l.flight {
		if !fl.abandoned && fl.deadline > 0 && now >= fl.deadline {
			l.bench(fl.worker, "timeout", fmt.Sprintf("dispatch of %d examples overdue", fl.batch.Size()))
		}
	}
	l.wakeGated()
}

// recvWait bounds the coordinator's blocking wait: by the earliest live
// deadline or the end of a barrier's rest; else, with nothing in flight
// (batches parked for a readmission, or an elastic run waiting for a
// joiner), by the remaining budget; else not at all — only a completion or
// a link event can change anything.
func (l *coordLoop) recvWait() time.Duration {
	due := time.Duration(-1)
	if l.resting {
		due = l.resumeAt
	}
	for _, fl := range l.flight {
		if !fl.abandoned && fl.deadline > 0 && (due < 0 || fl.deadline < due) {
			due = fl.deadline
		}
	}
	switch {
	case due >= 0:
		return max(due-l.now(), 0)
	case l.outstanding > 0:
		return -1
	}
	return max(l.budget-l.elapsed(), 0)
}

// --- Elastic membership ---
// Scripted triggers are completed-dispatch counts — protocol events, never
// wall time — so a plan replays identically across runs; networked workers
// join and leave through link events; the autoscale policy is consulted only
// at epoch barriers. A graceful leave stops fresh dispatches and retires the
// worker once its in-flight completion lands; an evict abandons the
// in-flight batch and re-routes it immediately, like a crash but without
// the fault accounting, and so does a leaver's missed deadline or lost link.
// Every state change and its bounds are the health tracker's.

// join admits an elastic joiner as worker id, the next slot: it grows every
// per-worker table to it, rebalances the adaptive comparators over the new
// set, and spawns and dispatches the joiner.
func (l *coordLoop) join(reason string, id int) {
	if !l.health.join(l.elapsed(), reason, id) {
		return
	}
	l.addSlot(id, l.elapsed())
	l.rebalanced(l.rm.elasticJoins)
	l.exec.spawn(id)
	l.dispatch(id)
}

// leave starts a graceful departure (no fresh dispatches): an idle leaver
// retires on the spot, a busy one when its in-flight completion arrives.
func (l *coordLoop) leave(id int) {
	if !l.health.leave(id, l.elapsed()) {
		return
	}
	l.rebalanced(l.rm.elasticLeaves)
	l.retire(id)
	l.wakeGated()
}

// retire completes a graceful leave once the drain is settled: the worker is
// draining and holds nothing in flight (its last completion already
// counted, so AppliedExamples == ExamplesProcessed survives the departure).
func (l *coordLoop) retire(id int) {
	if l.busy[id] || !l.health.retire(id, l.elapsed()) {
		return
	}
	l.vacate(id)
	l.wakeGated()
}

// evict removes a worker from the membership at once — a departure, not a
// fault. Its eventual completion is processed like a quarantined
// straggler's (where completions carry no delta its updates land anyway —
// documented at-least-once under forced removal).
func (l *coordLoop) evict(id int) {
	if !l.health.evict(id, l.elapsed()) {
		return
	}
	l.vacate(id)
	l.rebalanced(l.rm.elasticEvictions)
	l.wakeGated()
}

func (l *coordLoop) fireMembership() {
	for _, e := range l.planCur.Fire(l.completed) {
		switch e.Kind {
		case elastic.EventJoin:
			l.join("scripted join", len(l.busy))
		case elastic.EventLeave:
			l.leave(e.Worker)
		case elastic.EventEvict:
			l.evict(e.Worker)
		}
	}
}

// decideScale consults the autoscale policy with the load measured since
// the last barrier: queue wait is the span beyond each dispatch's modeled
// iteration time — the portion attributable to contention rather than
// compute.
func (l *coordLoop) decideScale() {
	if l.cfg.ElasticPolicy == nil {
		return
	}
	victim, worst := l.costliest()
	s := elastic.Sample{Active: l.health.churn.Final, Min: l.health.min, Max: l.health.max, Dispatches: l.completed, MarginalCost: worst}
	if l.elCount > 0 {
		s.QueueWait = l.elWait / time.Duration(l.elCount)
		s.Compute = l.elCompute / time.Duration(l.elCount)
	}
	l.elWait, l.elCompute, l.elCount = 0, 0, 0
	switch l.cfg.ElasticPolicy.Decide(s) {
	case elastic.Grow:
		l.join("policy grow", len(l.busy))
	case elastic.Shrink:
		if victim >= 0 {
			l.leave(victim)
		}
	}
}

// onLink folds a link-state transition into the recovery state machine. A
// severed or silent link is a quarantine (event kind "partition"): the
// in-flight batch moves to a survivor and the eventual completion of the
// abandoned dispatch is discarded; when the link heals the worker is
// readmitted. In-process transports emit no link events.
func (l *coordLoop) onLink(ev *transport.Event) {
	id := ev.Worker
	switch ev.Kind {
	case transport.LinkDown:
		l.tr.Partitions++
		l.bench(id, "partition", ev.Reason)
		l.wakeGated()
	case transport.LinkUp:
		l.tr.Reconnects++
		if l.health.readmit(id, l.elapsed(), "link healed") {
			l.stale.catchUp(id)
			l.dispatch(id)
			l.wakeGated()
		}
	case transport.LinkJoin:
		// The transport assigns ids sequentially under the same cap, so the
		// event id equals the next slot unless a join was refused.
		l.join("link join", id)
	case transport.LinkLeave:
		l.leave(id)
	}
}

// account credits a completion's updates to the run report, the live
// train_updates_total and the scheduling policy. Every engine's accept comes
// here, and nothing else writes l.raw: the report has one writer, the loop.
func (l *coordLoop) account(msg *transport.Done) {
	l.raw.Add(l.name(msg.Worker), int64(msg.Updates))
	l.rm.updates.Add(int64(msg.Updates))
	l.coord.reportUpdates(msg.Worker, int64(msg.Updates))
	if msg.Dropped > 0 {
		l.drop(msg.Worker, int64(msg.Dropped), "drop", fmt.Sprintf("%d non-finite updates discarded", msg.Dropped))
	}
}

// fail processes a worker's failure report: mark it crashed, then re-route
// its batch (unless a quarantine already did) and everything parked in its
// feed to the survivors.
func (l *coordLoop) fail(msg *transport.Done, fl *inflightDispatch) error {
	l.busy[msg.Worker] = false
	l.health.markCrashed(msg.Worker, l.elapsed(), msg.Err)
	if !fl.abandoned {
		l.outstanding--
		l.redispatch(fl.batch, msg.Worker)
	}
	l.reroute(msg.Worker)
	l.wakeGated()
	if l.health.count(WorkerState.alive) == 0 {
		return fmt.Errorf("core: all %d workers failed — cannot continue training: %s", len(l.busy), msg.Err)
	}
	return nil
}

// complete processes one completion. Delivery is at-least-once (networked
// workers retransmit unacknowledged completions across reconnects), and the
// dispatch sequence number makes application exactly-once: a completion
// counts only if its sequence is still in flight, so duplicates are settled
// first — before failure handling, or a duplicated failure report would
// crash the worker twice. stop ends the run (converged or diverged).
func (l *coordLoop) complete(msg *transport.Done) (stop bool, err error) {
	l.publishSnap(false)
	l.writeCkpt(false)
	fl := l.settle(msg.Seq)
	if fl == nil {
		l.tr.Duplicates++
		l.events.Add(l.elapsed(), l.name(msg.Worker), "duplicate",
			fmt.Sprintf("completion for settled seq %d discarded", msg.Seq))
		return false, nil
	}
	if msg.Failed {
		return false, l.fail(msg, fl)
	}
	id := msg.Worker
	l.exec.accept(msg, fl)
	l.stale.advance(id)
	if fl.abandoned {
		// The overdue completion of a dispatch given up on: the readmission
		// probe succeeded. Its batch was already processed elsewhere.
		if l.health.readmit(id, l.elapsed(), "overdue completion arrived") {
			l.stale.catchUp(id)
		}
	} else {
		l.busy[id] = false
		l.outstanding--
		l.tr.AppliedExamples += int64(fl.batch.Size())
		l.stale.observe(fl.staleness)
		if l.cfg.ElasticPolicy != nil {
			if span := l.now() - fl.sent; span > fl.modeled {
				l.elWait += span - fl.modeled
			}
			l.elCompute += fl.modeled
			l.elCount++
		}
	}
	// Gated workers go first: under SSP the completion that lets a parked
	// worker back in hands it the next pool batch, ahead of the completer.
	l.wakeGated()
	l.completed++
	l.fireMembership()
	l.retire(id)
	if l.cfg.rounds() && !fl.abandoned {
		// The round barrier: once every participant is back, average
		// their replicas into the global model and start the next round. The
		// replica reads are ordered after the workers' writes by the
		// completion messages just received.
		l.round = append(l.round, l.workers[id].replica)
		if l.outstanding == 0 {
			mu := l.modelLock(true)
			mu.Lock()
			averageReplicas(l.global, l.roundSum, l.round)
			mu.Unlock()
			l.round = l.round[:0]
			l.dispatchAll()
		}
	} else {
		l.dispatch(id)
	}
	if l.outstanding == 0 && !l.resting && !l.overBudget() && l.coord.poolEmpty() {
		return l.epochBarrier(), nil
	}
	return false, nil
}

// averageReplicas is the round barrier: model becomes the mean of
// the participants' replicas, accumulated in sum. A single participant is
// adopted directly — bitwise the averaging path's result, and exactly the
// synchronous baseline.
func averageReplicas(model, sum *nn.Params, replicas []*nn.Params) {
	if len(replicas) == 1 {
		model.CopyFrom(replicas[0])
		return
	}
	sum.Zero()
	inv := 1.0 / float64(len(replicas))
	for _, r := range replicas {
		sum.AddScaled(inv, r)
	}
	model.CopyFrom(sum)
}

// epochBarrier runs with every worker idle and the pool drained: evaluate
// the loss (stamped with the instant the model was read), let the divergence
// guard checkpoint or roll back, and rest until the evaluation is over. It
// reports whether the run is over.
func (l *coordLoop) epochBarrier() (stop bool) {
	at, t0 := l.elapsed(), l.now()
	loss := l.lockedLoss()
	dur := l.exec.evalTime(t0)
	l.tel.Span(l.coordRing, telemetry.KindEval, t0, dur, int64(l.evalN))
	l.point(at, loss)
	l.publishSnap(true)
	if l.converged {
		return true
	}
	mu := l.modelLock(true)
	mu.Lock()
	_, diverged := l.guard.onEval(loss, l.global, l.health.report, l.events, at)
	mu.Unlock()
	if diverged {
		return true
	}
	// Checkpoint after the guard verdict so a rollback's restored model and
	// backed-off LR scale are what a resume would load.
	l.writeCkpt(true)
	l.resting, l.resumeAt = true, t0+dur
	return false
}

// nextEpoch ends a barrier's rest: refill the pool and put every worker back
// to work, unless the run ended meanwhile.
func (l *coordLoop) nextEpoch() {
	if !l.resting || l.now() < l.resumeAt {
		return
	}
	l.resting = false
	if l.overBudget() {
		return
	}
	l.decideScale()
	l.coord.refill()
	l.dispatchAll()
}

// active reports whether the loop must keep receiving: work is in flight or
// a barrier is resting, or — while the budget lasts — re-dispatched batches
// await a worker that may still return, or an elastic run momentarily has
// no dispatchable worker (a live joiner or a healed link can pick the pool
// back up).
func (l *coordLoop) active() bool {
	if l.outstanding > 0 || l.resting {
		return true
	}
	if l.overBudget() {
		return false
	}
	if l.queuedWork() {
		return l.health.elastic || l.health.count(WorkerState.alive) > 0
	}
	return l.health.elastic && !l.coord.poolEmpty()
}

// loop trains until the budget expires, the target loss is reached, the
// guard gives up, or ctx is cancelled — cancellation wakes the (possibly
// blocked) coordinator with an empty message; it then stops scheduling,
// drains in-flight work, and returns the partial Result, never an error.
// Loss is sampled at epoch barriers and at the end of the run, when no
// concurrent writers exist.
func (l *coordLoop) loop() (*Result, error) {
	// Stopped before shutdown, so a late wakeup cannot count as a queue drop.
	stopCancelWatch := context.AfterFunc(l.ctx, l.trans.Wake)
	defer stopCancelWatch()
	joined, err := l.exec.attach(l.ctx)
	if err != nil {
		return nil, err
	}
	if l.coord.poolEmpty() && !l.queuedWork() {
		// Resumed from a barrier capture, which leaves the pool drained:
		// start the next epoch now (this consumes the next shuffle exactly
		// where the uninterrupted run would). Not when the checkpoint carried
		// in-flight batches, though: their [Lo,Hi) ranges denote the captured
		// epoch's permutation, so the epoch must finish draining them before
		// the next shuffle — the barrier refills once they land.
		l.coord.refill()
	}
	l.point(0, l.evalLoss())
	for _, id := range joined {
		l.onLink(&transport.Event{Worker: id, Kind: transport.LinkJoin})
	}
	l.dispatchAll()
	for stop := false; !stop && l.active(); {
		m, st := l.trans.Recv(l.recvWait())
		l.cancelled()
		switch {
		case st == transport.RecvClosed:
			stop = true
		case st == transport.RecvTimeout:
		case m.Event != nil:
			l.onLink(m.Event)
		case m.Done != nil:
			if stop, err = l.complete(m.Done); err != nil {
				stop = true // every worker failed
			}
			if link, ok := l.trans.(clusterLink); ok {
				link.Recycle(m)
			}
		}
		// After the message: a completion arriving on its deadline is on time.
		l.expireOverdue()
		l.nextEpoch()
	}
	stopCancelWatch()
	l.exec.shutdown()
	if err != nil {
		return nil, err
	}
	l.cancelled()
	// The run's length is read before the final evaluation, which no clock
	// counts.
	elapsed := l.elapsed()
	final := l.lockedLoss()
	l.publishSnap(true)
	// The drain checkpoint: always emitted, so an interrupted run's last
	// checkpoint reflects everything it completed.
	l.writeCkpt(true)
	// The final trace point is clamped to the budget boundary so one
	// in-flight large batch cannot stretch the loss curve past the
	// configured horizon; the true overrun is reported separately.
	stamp := min(elapsed, l.budget)
	if n := len(l.trace.Points); n > 0 && l.trace.Points[n-1].Time > stamp {
		stamp = l.trace.Points[n-1].Time
	}
	return l.result(elapsed, max(elapsed-l.budget, 0), stamp, final), nil
}
