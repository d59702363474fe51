package core

import (
	"context"
	"sync"
	"time"

	"heterosgd/internal/data"
	"heterosgd/internal/faults"
	"heterosgd/internal/msgq"
	"heterosgd/internal/nn"
	"heterosgd/internal/telemetry"
	"heterosgd/internal/tensor"
	"heterosgd/internal/transport"
)

// RunReal trains cfg's model for a wall-clock budget using live goroutines:
// one coordinator (this goroutine) and one goroutine per worker, exchanging
// ScheduleWork/ExecuteWork messages over unbounded async queues — the
// paper's pthreads architecture (§V, Figure 3) mapped onto Go. The
// coordinator is the loop shared with RunSim and RunCluster (loop.go),
// speaking transport.Local — the msgq queues behind the Transport interface.
//
// CPU workers split each batch into Threads sub-batches, run concurrently
// by lane goroutines that live as long as the worker, whose gradients are
// applied straight to the shared model (reference replicas, or with
// DeepReplica a copy taken at dispatch); GPU workers copy the model into a
// private replica, compute one large-batch gradient against it, and push the
// update back asynchronously (deep replicas).
// Under the default tensor.UpdateAtomic a write takes one row's stripe lock
// at a time and loses no add, but the Hogwild read path is unsynchronized by
// design; run with tensor.UpdateLocked for a fully race-detector-clean
// execution (gradients then read under an RWMutex), or tensor.UpdateRacy for
// the paper's plain stores.
//
// The engine is fault tolerant. A worker panic is recovered, the worker
// marked crashed, and its in-flight batch re-dispatched to a survivor;
// training continues as long as at least one worker lives and fails with a
// descriptive error otherwise. With cfg.Watchdog set, a dispatch exceeding
// its modeled iteration time × slack quarantines the worker (timeout →
// re-dispatch); a quarantined worker's overdue completion is its
// readmission probe. With cfg.Guards set, non-finite gradients are dropped
// at the update boundary and a non-finite epoch loss rolls the model back
// to the last checkpoint with bounded LR-backoff retries. cfg.Faults
// injects deterministic crashes/hangs/corruption to exercise all of this.
//
// The engine is cancellable: when ctx is cancelled the coordinator stops
// scheduling new work, drains every in-flight ExecuteWork message, emits a
// final checkpoint through cfg.CheckpointSink (if configured), and returns
// the partial Result with Interrupted set — never an error. A run may also
// warm-start from cfg.Resume.
func RunReal(ctx context.Context, cfg Config, budget time.Duration) (*Result, error) {
	x, err := newLocalExec(ctx, &cfg, budget)
	if err != nil {
		return nil, err
	}
	return x.l.loop()
}

// newLocalExec validates cfg and builds RunReal's coordinator loop and
// executor, every initial worker built and none started.
func newLocalExec(ctx context.Context, cfg *Config, budget time.Duration) (*localExec, error) {
	if err := cfg.supportedOn(engineReal); err != nil {
		return nil, err
	}
	// The inbox table is sized to Capacity up front so an elastic joiner's
	// fresh id maps straight to an unused inbox; joins stop when it is full.
	slots := cfg.Capacity()
	trans := transport.NewLocal(slots)
	if cfg.Metrics != nil {
		// One shared instrument set aggregates traffic across the
		// coordinator queue and every worker inbox; the wait histogram
		// measures how long messages sit queued (the msgq half of the
		// schedule→execute latency).
		trans.Instrument(msgq.Instruments{
			Pushed:  cfg.Metrics.Counter("msgq_pushed_total"),
			Popped:  cfg.Metrics.Counter("msgq_popped_total"),
			Dropped: cfg.Metrics.Counter("msgq_dropped_total"),
			Wait:    cfg.Metrics.Histogram("msgq_wait_seconds"),
		})
	}
	l, err := newCoordLoop(ctx, cfg, trans, budget)
	if err != nil {
		return nil, err
	}
	l.health.slots = slots
	x := &localExec{l: l, trans: trans}
	l.step.shared = l.global
	if cfg.UpdateMode == tensor.UpdateLocked {
		l.step.mu = new(sync.RWMutex)
	}
	l.exec = x
	for id := range cfg.Workers {
		x.build(id)
	}
	x.began = time.Now()
	return x, nil
}

// laneJob is one lane's share of a CPU dispatch: its sub-batch, and the
// models its gradient reads and its update writes.
type laneJob struct {
	sub         data.Batch
	read, write *nn.Params
	lr          float64
	corrupt     bool
}

// localExec is RunReal's executor: one goroutine per worker consuming a
// transport.Local inbox and writing the shared model in memory, so a
// completion's updates have already landed when the coordinator sees it.
// Telemetry: worker rings are written only by their owning goroutines
// (queue wait, gradient, apply), the coordinator ring only by the loop —
// the tracer's single-writer-per-ring contract.
type localExec struct {
	wallClock
	l     *coordLoop
	trans *transport.Local
	wg    sync.WaitGroup
}

// build constructs worker id's state; elastic joiners take the same path as
// the initial set. A CPU worker's lanes each get a goroutine; a round's local
// steps run in turn, and every other device takes one step, on one lane.
func (x *localExec) build(id int) *worker {
	wc := x.l.cfg.Workers[id]
	fan := !x.l.step.rounds && cpuThreads(wc) > 0
	n := 1
	if fan {
		n = cpuThreads(wc)
	}
	w := x.l.enlist(id, n, min((wc.MaxBatch+n-1)/n, x.l.ds.N()))
	if fan {
		w.jobs = make([]chan laneJob, n)
	}
	return w
}

// start launches w's goroutine and, for a CPU worker, one per lane. The
// worker's exits when its inbox closes (retire, evict, or shutdown) or on a
// recovered panic, and takes the lanes' with it by closing their channels.
func (x *localExec) start(w *worker) {
	l := x.l
	x.wg.Add(1 + len(w.jobs))
	for i := range w.jobs {
		// A lane holds at most one job (fan waits for all of them before the
		// next dispatch), so a buffer of one never blocks a send.
		w.jobs[i] = make(chan laneJob, 1)
		go x.laneLoop(w, &w.lanes[i], w.jobs[i])
	}
	go func() {
		defer x.wg.Done()
		defer func() {
			for _, jobs := range w.jobs {
				close(jobs)
			}
		}()
		for {
			msg, ok := x.trans.NextWork(w.id)
			if !ok {
				return
			}
			// Both sides view the same in-memory dataset, so the wire
			// message is just the range; this is the identical batch the
			// coordinator scheduled.
			batch := l.ds.ViewInto(&w.view, msg.Lo, msg.Hi)
			sent := time.Duration(msg.SentNS)
			l.tel.Span(w.id, telemetry.KindQueueWait, sent, l.now()-sent, int64(batch.Size()))
			out := x.iterate(w, batch, msg.LR)
			out.Seq = msg.Seq
			x.trans.Complete(out)
			if out.Failed {
				// The worker is dead; the coordinator re-dispatches its batch.
				return
			}
		}
	}()
}

// iterate executes one dispatched batch on the worker's own goroutine:
// the scheduled fault, then the body. Any panic — injected or genuine —
// comes back as a failure message instead of killing the process.
func (x *localExec) iterate(w *worker, batch data.Batch, lr float64) (out transport.Done) {
	out = transport.Done{Worker: w.id}
	defer w.recoverInto(&out)
	step := w.inj.Begin()
	if step.Crash {
		panic(faults.CrashError{Worker: w.id, Iteration: w.inj.Iterations() - 1})
	}
	time.Sleep(step.Hang)
	l := x.l
	t0 := l.now()
	out.Updates, out.Dropped = l.step.iterate(w, l.global, batch, lr, step.Corrupt)
	t1 := l.now()
	l.tel.Span(w.id, telemetry.KindGradient, t0, t1-t0, int64(batch.Size()))
	l.tel.Span(w.id, telemetry.KindApply, t1, 0, int64(out.Updates))
	w.ranFrom, w.ranTo, w.ranEff = t0, t1, w.wc.Device.Utilization(l.net.Arch, batch.Size())
	return out
}

// fan runs a CPU dispatch's t sub-batches on w's lane goroutines, each
// applying its gradient — computed against read — straight to write, and
// returns how many landed. Every lane goes through its channel while this
// goroutine parks in Wait — running one inline leaves the lane it woke
// stranded behind it on the same P. A panic on any lane is re-raised here
// after the remaining lanes finish, so the engine-level recovery sees it.
func (w *worker) fan(read, write *nn.Params, batch data.Batch, t int, lr float64, corrupt bool) int {
	w.updates.Store(0)
	w.busy.Add(t)
	for i := 0; i < t; i++ {
		w.jobs[i] <- laneJob{laneSub(&w.lanes[i], batch, i, t), read, write, lr, corrupt}
	}
	w.busy.Wait()
	if p := w.panicked.Swap(nil); p != nil {
		panic(*p)
	}
	return int(w.updates.Load())
}

// laneLoop is a lane's goroutine: its share of every fanned dispatch until
// the worker closes jobs. A panic ends it — the worker it belongs to is dead.
func (x *localExec) laneLoop(w *worker, ln *lane, jobs <-chan laneJob) {
	defer x.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			w.panicked.CompareAndSwap(nil, &r)
			w.busy.Done()
		}
	}()
	for job := range jobs {
		if x.l.step.run(ln, job.read, job.write, job.sub, job.lr, 1, job.corrupt) {
			w.updates.Add(1)
		}
		w.busy.Done()
	}
}

func (x *localExec) attach(context.Context) ([]int, error) {
	for _, w := range x.l.workers {
		x.start(w)
	}
	return nil, nil
}

func (x *localExec) decorate(_ int, w transport.Work) transport.Work { return w }

// accept books the worker's compute interval into the utilization trace and
// credits its updates. They landed in the shared model before the completion
// was sent, so even a quarantined straggler's count (documented at-least-once
// semantics under timeouts) — while the loop runs: one that wakes after
// RunReal has returned still writes the model, but not the report.
func (x *localExec) accept(msg *transport.Done, _ *inflightDispatch) {
	w := x.l.workers[msg.Worker]
	x.l.util.AddBusy(w.name, w.ranFrom, w.ranTo, w.ranEff)
	x.l.account(msg)
}

func (x *localExec) spawn(id int) { x.start(x.build(id)) }

// drain closes the worker's inbox, which ends its goroutine.
func (x *localExec) drain(id int) []transport.Work { return x.trans.CloseWorker(id) }

func (x *localExec) shutdown() {
	x.trans.CloseInboxes()
	if x.l.health.count(WorkerState.dispatchable) == len(x.l.workers) {
		x.wg.Wait()
	} else {
		// A quarantined worker may be hung far beyond the budget; bound the
		// wait and let stragglers drain on their own — every shared
		// structure they touch afterwards is synchronized or closed, and the
		// run report is not among them.
		done := make(chan struct{})
		go func() { x.wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(200 * time.Millisecond):
		}
	}
	x.trans.Close()
	// Aggregate queue counters across the coordinator queue and every
	// worker inbox (the underlying stats are mutex-protected, so straggler
	// pushes are safe).
	qs := &x.l.health.report.Queue
	qs.Pushed, qs.Popped, qs.Dropped = x.trans.QueueStats()
}
