package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"heterosgd/internal/data"
	"heterosgd/internal/elastic"
	"heterosgd/internal/nn"
	"heterosgd/internal/telemetry"
	"heterosgd/internal/transport"
)

// This file is the wall-clock coordinator: the paper's coordinator thread
// (§V, Algorithms 1–2) extended with the recovery state machine (healthy →
// quarantined → readmitted, healthy → crashed), the SSP gate, elastic
// membership, and the snapshot/checkpoint cadence. RunReal and RunCluster
// both run it; what differs between them sits behind the executor seam.
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
	worker    int
	batch     data.Batch
	deadline  time.Time
	abandoned bool
	// staleness is the dispatch-time staleness the histogram records when
	// the completion applies; -1 marks gate-exempt recovery work.
	staleness int64
	// sent and modeled feed the autoscale policy's load sample: measured
	// span minus the modeled iteration time approximates queueing delay.
	sent    time.Duration
	modeled time.Duration
}

// executor is everything that differs between the engines that run the
// wall-clock coordinator: goroutines sharing the model in memory (RunReal)
// or remote processes trading parameters for deltas (RunCluster).
type executor interface {
	// attach brings the initial workers up before the first dispatch and
	// returns the elastic joiners that arrived meanwhile, in arrival order.
	attach(ctx context.Context) (joined []int, err error)
	// decorate adds what the engine's workers need beyond the batch range.
	decorate(w transport.Work) transport.Work
	// deadline bounds a dispatch of size examples to worker id; 0 = none.
	deadline(id, size int) time.Duration
	// accept settles a completion whose dispatch was in flight (fl.abandoned
	// tells a straggler's from a live one): whatever makes its updates count
	// in the model and the scheduler, or discards them.
	accept(msg *transport.Done, fl *inflightDispatch)
	// spawn starts the worker behind a freshly admitted slot.
	spawn(id int)
	// drain stops a departed worker and returns the work it never started.
	drain(id int) []transport.Work
	// modelLock returns the lock a coordinator-side read or write of the
	// live model must hold; cloneModel copies the model under the engine's
	// read discipline.
	modelLock(write bool) sync.Locker
	cloneModel() *nn.Params
	// shutdown stops the workers, closes the transport, and records the
	// transport's traffic counters.
	shutdown()
}

// replicaHolder is implemented by executors whose workers keep private
// model replicas the LocalSGD round barrier averages.
type replicaHolder interface {
	replica(id int) *nn.Params
}

// nopLocker is the model lock of an engine whose model needs none.
type nopLocker struct{}

func (nopLocker) Lock()   {}
func (nopLocker) Unlock() {}

// wallCoord is the wall-clock coordinator loop. Like the paper's coordinator
// thread it processes messages sequentially on one goroutine, so none of
// its state needs locking.
type wallCoord struct {
	*run
	exec   executor
	trans  transport.Transport
	ctx    context.Context
	budget time.Duration
	start  time.Time
	gemm   int

	// tr is the delivery accounting; RunCluster publishes it in the Result.
	tr *TransportReport

	// Each worker holds at most ONE outstanding dispatch (busy), so a
	// dispatch's deadline starts ticking only when the worker can actually
	// start it. Re-dispatched batches queue in the worker's feed (split to
	// its batch ceiling) and are sent one at a time; pending holds batches
	// with no healthy worker to run them. outstanding counts live flights.
	flight      map[uint64]*inflightDispatch
	seq         uint64
	outstanding int
	busy        []bool
	feed        [][]data.Batch
	pending     []data.Batch

	// round collects the replicas back from the current LocalSGD round.
	round    []*nn.Params
	roundSum *nn.Params

	lastSnap, lastCkpt time.Time
	// Load measured since the last epoch barrier, for the autoscale policy.
	elWait, elCompute time.Duration
	elCount           int64
}

// newWallCoord builds the coordinator over r. A resumed run continues its
// dispatch numbering above the checkpoint's floor and re-queues the
// checkpoint's in-flight batches: their examples already count in
// ExamplesDone, so re-applying them is what rebalances the exactly-once
// accounting.
func newWallCoord(ctx context.Context, r *run, trans transport.Transport, budget time.Duration) (*wallCoord, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	l := &wallCoord{
		run:    r,
		trans:  trans,
		ctx:    ctx,
		budget: budget,
		gemm:   runtime.GOMAXPROCS(0),
		tr:     &TransportReport{},
		flight: make(map[uint64]*inflightDispatch),
		busy:   make([]bool, len(r.cfg.Workers)),
		feed:   make([][]data.Batch, len(r.cfg.Workers)),
	}
	if r.cfg.Algorithm == AlgLocalSGD {
		l.roundSum = r.net.NewParams(nn.InitZero, nil)
	}
	if r.cfg.Resume == nil || r.cfg.Resume.Membership == nil {
		return l, nil
	}
	ms := r.cfg.Resume.Membership
	l.seq = ms.SeqFloor
	l.tr.Duplicates, l.tr.Abandoned = ms.Duplicates, ms.Abandoned
	l.tr.Partitions, l.tr.Reconnects = ms.Partitions, ms.Reconnects
	l.tr.AppliedExamples = ms.AppliedExamples
	for _, f := range ms.Flight {
		if f.Hi > r.ds.N() {
			return nil, fmt.Errorf("core: resume flight entry [%d,%d) outside dataset of %d", f.Lo, f.Hi, r.ds.N())
		}
		l.pending = append(l.pending, r.ds.View(f.Lo, f.Hi))
	}
	if len(ms.Flight) > 0 {
		r.events.Add(0, "", "resume", fmt.Sprintf("%d in-flight batches from the checkpoint re-queued", len(ms.Flight)))
	}
	return l, nil
}

func (l *wallCoord) now() time.Duration { return time.Since(l.start) }

func (l *wallCoord) overBudget() bool {
	return l.converged || l.interrupted || l.now() >= l.budget
}

// eval evaluates the loss under the model read lock (quarantined stragglers
// may still be mid-iteration at epoch barriers) and records the eval span.
func (l *wallCoord) eval() float64 {
	t0 := l.now()
	mu := l.exec.modelLock(false)
	mu.Lock()
	loss := l.evalLoss(l.gemm)
	mu.Unlock()
	l.tel.Span(l.coordRing, telemetry.KindEval, t0, l.now()-t0, int64(l.evalN))
	return loss
}

// publishSnap hands the snapshot sink (the serving subsystem's attach point)
// a copy of the model. It runs on the coordinator, so it never blocks a
// worker.
func (l *wallCoord) publishSnap(force bool) {
	if l.cfg.SnapshotSink == nil {
		return
	}
	if !force && (l.cfg.SnapshotEvery <= 0 || time.Since(l.lastSnap) < l.cfg.SnapshotEvery) {
		return
	}
	l.lastSnap = time.Now()
	t0 := l.now()
	l.cfg.SnapshotSink.PublishParams(l.exec.cloneModel())
	l.tel.Span(l.coordRing, telemetry.KindSnapshot, t0, l.now()-t0, l.modelBytes)
	l.rm.snapshots.Inc()
}

// writeCkpt captures a RunState and hands it to the checkpoint sink. The
// membership section makes the checkpoint resumable mid-churn and
// mid-flight: worker states, clocks, the seq floor, delivery accounting,
// and every dispatched-but-unapplied batch (live flights plus queued
// recovery batches; abandoned flights are excluded because their ranges
// were already re-queued). A mid-epoch capture in the shared-memory engine
// may already hold part of an in-flight batch's updates — re-running it on
// resume is the documented at-least-once; barrier and drain captures are
// exact. Sink errors are logged as "ckpt-error" events and never stop
// training.
func (l *wallCoord) writeCkpt(force bool) {
	if l.cfg.CheckpointSink == nil {
		return
	}
	if !force && (l.cfg.CheckpointEvery <= 0 || time.Since(l.lastCkpt) < l.cfg.CheckpointEvery) {
		return
	}
	l.lastCkpt = time.Now()
	t0 := l.now()
	st, err := l.captureState(t0)
	if err == nil {
		ms := captureMembership(l.mem, l.stale, len(l.cfg.Workers), l.completed)
		ms.SeqFloor = l.seq
		ms.Duplicates, ms.Abandoned = l.tr.Duplicates, l.tr.Abandoned
		ms.Partitions, ms.Reconnects = l.tr.Partitions, l.tr.Reconnects
		ms.AppliedExamples = l.tr.AppliedExamples
		epoch := l.coord.epoch
		for s, fl := range l.flight {
			if !fl.abandoned {
				ms.Flight = append(ms.Flight, FlightEntry{Seq: s, Worker: fl.worker, Lo: fl.batch.Lo, Hi: fl.batch.Hi, Epoch: epoch})
			}
		}
		for _, b := range l.pending {
			ms.Flight = append(ms.Flight, FlightEntry{Worker: -1, Lo: b.Lo, Hi: b.Hi, Epoch: epoch})
		}
		for id := range l.feed {
			for _, b := range l.feed[id] {
				ms.Flight = append(ms.Flight, FlightEntry{Worker: id, Lo: b.Lo, Hi: b.Hi, Epoch: epoch})
			}
		}
		st.Membership = ms
		st.Params = l.exec.cloneModel()
		err = l.cfg.CheckpointSink.WriteState(st)
	}
	if err != nil {
		l.events.Add(l.now(), "", "ckpt-error", err.Error())
		return
	}
	l.tel.Span(l.coordRing, telemetry.KindCheckpoint, t0, l.now()-t0, l.raw.Total())
	l.rm.checkpoints.Inc()
}

// send dispatches batch to worker id under a fresh sequence number.
func (l *wallCoord) send(id int, batch data.Batch, staleness int64) {
	size := batch.Size()
	l.seq++
	fl := &inflightDispatch{worker: id, batch: batch, staleness: staleness, sent: l.now()}
	if d := l.exec.deadline(id, size); d > 0 {
		fl.deadline = time.Now().Add(d)
	}
	if l.cfg.ElasticPolicy != nil {
		fl.modeled = l.cfg.Workers[id].Device.IterTime(l.net.Arch, size, l.modelBytes)
	}
	l.flight[l.seq] = fl
	lrB := size
	if l.cfg.Algorithm == AlgLocalSGD && l.cfg.LocalSteps > 1 {
		// The wire batch is a merged round share; the LR schedule sees one
		// local step's sub-batch, as the sim engine does.
		lrB = (lrB + l.cfg.LocalSteps - 1) / l.cfg.LocalSteps
	}
	lr := l.cfg.ScheduledLR(lrB, l.coord.epochFrac()) * l.coord.lrScale(id) * l.guard.scale()
	l.tel.Span(l.coordRing, telemetry.KindSchedule, fl.sent, 0, int64(size))
	l.rm.examples.Add(int64(size))
	l.busy[id] = true
	l.outstanding++
	err := l.trans.Send(id, l.exec.decorate(transport.Work{Seq: l.seq, Lo: batch.Lo, Hi: batch.Hi, LR: lr, SentNS: int64(fl.sent)}))
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
func (l *wallCoord) dispatch(id int) bool {
	// Draining and departed workers get no work at all — not even recovery
	// batches; a cancelled run schedules nothing and only collects
	// completions.
	if !l.health.ok(id) || l.busy[id] || l.interrupted || (l.mem != nil && !l.mem.Active(id)) {
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
	l.noteBatch(id, l.now())
	if l.cfg.Algorithm == AlgLocalSGD {
		// One dispatch per round share: merge up to LocalSteps contiguous
		// pool batches; the worker re-splits them into local steps.
		for k := 1; k < l.cfg.LocalSteps; k++ {
			nb, more := l.coord.scheduleWork(id)
			if !more {
				break
			}
			batch = l.ds.View(batch.Lo, nb.Hi)
		}
	}
	l.send(id, batch, l.stale.staleness(id))
	return true
}

func (l *wallCoord) dispatchAll() {
	for id := range l.busy {
		l.dispatch(id)
	}
}

// enqueue parks a recovery batch in target's feed, split to its batch
// ceiling.
func (l *wallCoord) enqueue(target int, b data.Batch, from string) {
	l.health.report.Redispatches++
	l.rm.redispatch.Inc()
	l.events.Add(l.now(), l.name(target), "redispatch", fmt.Sprintf("%d examples from %s", b.Size(), from))
	l.feed[target] = append(l.feed[target], splitBatch(b, l.cfg.Workers[target].MaxBatch)...)
}

// redispatch re-routes a batch whose worker crashed, timed out, or left to
// the next healthy worker; with none it waits in pending for a readmission.
func (l *wallCoord) redispatch(batch data.Batch, from int) {
	target := l.health.pickHealthy(from)
	if target < 0 {
		l.pending = append(l.pending, batch)
		return
	}
	l.enqueue(target, batch, l.name(from))
	l.dispatch(target)
}

// reroute hands everything parked in a lost worker's feed to the survivors.
func (l *wallCoord) reroute(id int) {
	stranded := l.feed[id]
	l.feed[id] = nil
	for _, b := range stranded {
		l.redispatch(b, id)
	}
}

// release drains a departed worker: the executor stops it, and the work it
// never started plus everything parked in its feed moves to the survivors.
func (l *wallCoord) release(id int) {
	for _, m := range l.exec.drain(id) {
		if fl := l.flight[m.Seq]; fl != nil {
			delete(l.flight, m.Seq)
			if !fl.abandoned {
				l.outstanding--
				l.redispatch(fl.batch, id)
			}
		}
	}
	l.reroute(id)
}

// wakeGated re-dispatches workers the SSP gate would now admit; called
// whenever the minimum healthy clock may have moved (any completion, crash,
// quarantine, departure, or readmission).
func (l *wallCoord) wakeGated() {
	for _, id := range l.stale.wake() {
		l.dispatch(id)
	}
}

// queuedWork reports whether any re-dispatched batch still awaits a worker.
func (l *wallCoord) queuedWork() bool {
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
func (l *wallCoord) abandon(id int) {
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
// "partition" for a lost link — and abandons its in-flight dispatch.
func (l *wallCoord) bench(id int, kind, detail string) {
	if l.health.quarantineKind(id, l.now(), kind, detail) {
		l.abandon(id)
	}
}

// expireOverdue benches every worker holding a dispatch past its deadline.
// It runs on every wake-up, not just on timeout: a chatty healthy worker
// would otherwise keep the coordinator from ever noticing a hung one.
func (l *wallCoord) expireOverdue() {
	now := time.Now()
	for _, fl := range l.flight {
		if !fl.abandoned && !fl.deadline.IsZero() && !now.Before(fl.deadline) {
			l.bench(fl.worker, "timeout", fmt.Sprintf("dispatch of %d examples overdue", fl.batch.Size()))
		}
	}
	l.wakeGated()
}

// recvWait bounds the coordinator's blocking wait: by the earliest live
// deadline; else, with nothing in flight (batches parked for a readmission,
// or an elastic run waiting for a joiner), by the remaining budget; else not
// at all — only a completion or a link event can change anything.
func (l *wallCoord) recvWait() time.Duration {
	wait := time.Duration(-1)
	for _, fl := range l.flight {
		if fl.abandoned || fl.deadline.IsZero() {
			continue
		}
		if d := time.Until(fl.deadline); wait < 0 || d < wait {
			wait = d
		}
	}
	if wait < 0 {
		if l.outstanding > 0 {
			return -1
		}
		wait = l.budget - l.now()
	}
	return max(wait, time.Millisecond)
}

// --- Elastic membership ---
// Scripted triggers are completed-dispatch counts — protocol events, never
// wall time — so a plan replays identically across runs; networked workers
// join and leave through link events; the autoscale policy is consulted only
// at epoch barriers. A graceful leave stops fresh dispatches and retires the
// worker once its in-flight completion lands; an evict abandons the
// in-flight batch and re-routes it immediately, like a crash but without
// the fault accounting.

// join admits a fresh elastic worker, spawns it, and dispatches it.
func (l *wallCoord) join(reason string) {
	id, ok := l.admit(reason, l.now())
	if !ok {
		return
	}
	l.busy = append(l.busy, false)
	l.feed = append(l.feed, nil)
	l.exec.spawn(id)
	l.dispatch(id)
}

// leave starts a graceful departure: an idle leaver retires on the spot, a
// busy one when its in-flight completion arrives.
func (l *wallCoord) leave(id int) {
	if !l.beginLeave(id, l.now()) {
		return
	}
	l.rebalanced()
	l.retire(id)
	l.wakeGated()
}

// retire completes a graceful leave once the drain is settled: the worker is
// draining and holds nothing in flight (its last completion already
// counted, so AppliedExamples == ExamplesProcessed survives the departure).
func (l *wallCoord) retire(id int) {
	if l.mem == nil || !l.mem.Draining(id) || l.busy[id] || !l.mem.Retire(id) {
		return
	}
	l.retired(id, l.now())
	l.release(id)
	l.wakeGated()
}

// evict removes a worker at once. Its eventual completion is processed like
// a quarantined straggler's (under shared memory its updates already landed
// — documented at-least-once under forced removal).
func (l *wallCoord) evict(id int) {
	if !l.beginEvict(id, l.now()) {
		return
	}
	l.release(id)
	l.abandon(id)
	l.busy[id] = false
	l.rebalanced()
	l.rm.elasticWorkers.Set(float64(l.mem.ActiveCount()))
	l.wakeGated()
}

func (l *wallCoord) fireMembership() {
	if l.mem == nil {
		return
	}
	for _, e := range l.planCur.Fire(l.completed) {
		switch e.Kind {
		case elastic.EventJoin:
			l.join("scripted join")
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
func (l *wallCoord) decideScale() {
	if l.mem == nil || l.cfg.ElasticPolicy == nil {
		return
	}
	s := elastic.Sample{Active: l.mem.ActiveCount(), Min: l.mem.Min(), Max: l.mem.Max(), Dispatches: l.completed}
	if l.elCount > 0 {
		s.QueueWait = l.elWait / time.Duration(l.elCount)
		s.Compute = l.elCompute / time.Duration(l.elCount)
	}
	victim, worst := l.costliest()
	s.MarginalCost = worst
	l.elWait, l.elCompute, l.elCount = 0, 0, 0
	switch l.cfg.ElasticPolicy.Decide(s) {
	case elastic.Grow:
		l.join("policy grow")
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
func (l *wallCoord) onLink(ev *transport.Event) {
	id := ev.Worker
	switch ev.Kind {
	case transport.LinkDown:
		l.tr.Partitions++
		l.bench(id, "partition", ev.Reason)
		l.wakeGated()
	case transport.LinkUp:
		l.tr.Reconnects++
		if l.health.readmitWith(id, l.now(), "link healed") {
			l.stale.catchUp(id)
			l.dispatch(id)
			l.wakeGated()
		}
	case transport.LinkJoin:
		// The transport assigns ids sequentially under the same cap, so the
		// event id always equals the next slot.
		if l.mem == nil || id != l.mem.Len() {
			l.events.Add(l.now(), "", "join-refused",
				fmt.Sprintf("unexpected join for slot %d (have %d, elastic %v)", id, len(l.busy), l.mem != nil))
			return
		}
		l.join("link join")
	case transport.LinkLeave:
		if l.mem != nil {
			l.leave(id)
		}
	}
}

// account credits a completion's updates to the scheduling policy.
func (l *wallCoord) account(msg *transport.Done) {
	l.coord.reportUpdates(msg.Worker, int64(msg.Updates))
	if msg.Dropped > 0 {
		l.drop(msg.Worker, int64(msg.Dropped), l.now(), "drop", fmt.Sprintf("%d non-finite updates discarded", msg.Dropped))
	}
}

// fail processes a worker's failure report: mark it crashed, then re-route
// its batch (unless a quarantine already did) and everything parked in its
// feed to the survivors.
func (l *wallCoord) fail(msg *transport.Done, fl *inflightDispatch) error {
	l.busy[msg.Worker] = false
	l.health.markCrashed(msg.Worker, l.now(), msg.Err)
	if !fl.abandoned {
		l.outstanding--
		l.redispatch(fl.batch, msg.Worker)
	}
	l.reroute(msg.Worker)
	l.wakeGated()
	if l.health.aliveCount() == 0 {
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
func (l *wallCoord) complete(msg *transport.Done) (stop bool, err error) {
	l.publishSnap(false)
	l.writeCkpt(false)
	fl := l.flight[msg.Seq]
	if fl == nil {
		l.tr.Duplicates++
		l.events.Add(l.now(), l.name(msg.Worker), "duplicate",
			fmt.Sprintf("completion for settled seq %d discarded", msg.Seq))
		return false, nil
	}
	delete(l.flight, msg.Seq)
	if msg.Failed {
		return false, l.fail(msg, fl)
	}
	id := msg.Worker
	l.exec.accept(msg, fl)
	l.stale.advance(id)
	l.completed++
	if fl.abandoned {
		// The overdue completion of a dispatch given up on: the readmission
		// probe succeeded. Its batch was already processed elsewhere.
		if l.health.readmit(id, l.now()) {
			l.stale.catchUp(id)
		}
		l.dispatch(id)
		l.retire(id)
		l.fireMembership()
		l.wakeGated()
		return false, nil
	}
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
	l.retire(id)
	l.fireMembership()
	if l.cfg.Algorithm == AlgLocalSGD {
		// LocalSGD round barrier: once every participant is back, average
		// their replicas into the global model and start the next round. The
		// replica reads are ordered after the workers' writes by the
		// completion messages just received.
		l.round = append(l.round, l.exec.(replicaHolder).replica(id))
		if l.outstanding == 0 {
			mu := l.exec.modelLock(true)
			mu.Lock()
			averageReplicas(l.global, l.roundSum, l.round)
			mu.Unlock()
			l.round = l.round[:0]
			l.dispatchAll()
		}
	} else {
		l.dispatch(id)
		l.wakeGated()
	}
	if l.outstanding == 0 && !l.overBudget() && l.coord.poolEmpty() {
		return l.epochBarrier(), nil
	}
	return false, nil
}

// epochBarrier runs with every worker idle and the pool drained: evaluate
// the loss, let the divergence guard checkpoint or roll back, and start the
// next epoch. It reports whether the run is over.
func (l *wallCoord) epochBarrier() (stop bool) {
	loss := l.eval()
	l.record(l.now(), loss)
	l.publishSnap(true)
	if l.cfg.TargetLoss > 0 && isFinite(loss) && loss <= l.cfg.TargetLoss {
		l.converged = true
		return true
	}
	mu := l.exec.modelLock(true)
	mu.Lock()
	_, diverged := l.guard.onEval(loss, l.global, l.health.report, l.events, l.now())
	mu.Unlock()
	if diverged {
		return true
	}
	// Checkpoint after the guard verdict so a rollback's restored model and
	// backed-off LR scale are what a resume would load.
	l.writeCkpt(true)
	l.decideScale()
	l.coord.refill()
	l.dispatchAll()
	return false
}

// active reports whether the loop must keep receiving: work is in flight,
// or — while the budget lasts — re-dispatched batches await a worker that
// may still return, or an elastic run momentarily has no dispatchable
// worker (a live joiner or a healed link can pick the pool back up).
func (l *wallCoord) active() bool {
	if l.outstanding > 0 {
		return true
	}
	if l.overBudget() {
		return false
	}
	if l.queuedWork() {
		return l.mem != nil || l.health.aliveCount() > 0
	}
	return l.mem != nil && !l.coord.poolEmpty()
}

// loop trains until the budget expires, the target loss is reached, the
// guard gives up, or ctx is cancelled — cancellation wakes the (possibly
// blocked) coordinator with an empty message; it then stops scheduling,
// drains in-flight work, and returns the partial Result, never an error.
// Loss is sampled at epoch barriers and at the end of the run, when no
// concurrent writers exist.
func (l *wallCoord) loop() (*Result, error) {
	l.start = time.Now()
	l.lastSnap, l.lastCkpt = l.start, l.start
	// Stopped before shutdown, so a late wakeup cannot count as a queue drop.
	stopCancelWatch := context.AfterFunc(l.ctx, l.trans.Wake)
	defer stopCancelWatch()
	joined, err := l.exec.attach(l.ctx)
	if err != nil {
		return nil, err
	}
	l.record(0, l.evalLoss(l.gemm))
	l.interrupted = l.ctx.Err() != nil
	for _, id := range joined {
		l.onLink(&transport.Event{Worker: id, Kind: transport.LinkJoin})
	}
	l.dispatchAll()
	for stop := false; !stop && l.active(); {
		m, st := l.trans.Recv(l.recvWait())
		l.expireOverdue()
		if l.ctx.Err() != nil && !l.interrupted {
			l.interrupted = true
			l.events.Add(l.now(), "", "interrupt", "context cancelled; draining in-flight work")
		}
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
		}
	}
	stopCancelWatch()
	l.exec.shutdown()
	if err != nil {
		return nil, err
	}
	if l.ctx.Err() != nil {
		l.interrupted = true
	}
	elapsed := l.now()
	final := l.eval()
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
