package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"heterosgd/internal/data"
	"heterosgd/internal/device"
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
// applied straight to the shared model (reference replicas); GPU workers
// copy the model into a private replica, compute one large-batch gradient
// against it, and push the update back asynchronously (deep replicas).
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
	r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	// The inbox table is sized to Capacity up front so an elastic joiner's
	// fresh id maps straight to an unused inbox.
	trans := transport.NewLocal(cfg.Capacity())
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
	l, err := newCoordLoop(ctx, r, trans, budget)
	if err != nil {
		return nil, err
	}
	x := &localExec{l: l, trans: trans}
	x.step = laneStep{net: r.net, decay: cfg.WeightDecay, guard: cfg.Guards != nil, mode: cfg.UpdateMode, shared: r.global}
	if cfg.UpdateMode == tensor.UpdateLocked {
		x.step.mu = &x.mu
	}
	if cfg.delayCompensated() {
		x.step.dc = cfg.DCLambda
	}
	l.exec = x
	for id := range cfg.Workers {
		x.build(id)
	}
	x.began = time.Now()
	return x, nil
}

// realWorker bundles a worker goroutine's private state.
type realWorker struct {
	id      int
	name    string
	wc      WorkerConfig
	inj     *faults.Injector
	lanes   []lane     // one per CPU sub-batch thread (one otherwise)
	replica *nn.Params // deep-copy buffer (GPU workers, and every worker of a round)
	view    data.Views // header of the dispatched batch
	// A CPU worker's lanes each run on a goroutine of their own for as long
	// as the worker's does: jobs[i] feeds lane i, busy counts the lanes still
	// inside the current dispatch, updates the sub-batches that landed, and
	// panicked keeps the first panic a lane recovered.
	jobs     []chan laneJob
	busy     sync.WaitGroup
	updates  atomic.Int64
	panicked atomic.Pointer[any]
}

// laneJob is one lane's share of a CPU dispatch.
type laneJob struct {
	sub     data.Batch
	lr      float64
	corrupt bool
}

// localExec is RunReal's executor: one goroutine per worker consuming a
// transport.Local inbox and writing the shared model in memory, so a
// completion's updates have already landed when the coordinator sees it.
// Telemetry: worker rings are written only by their owning goroutines
// (queue wait, gradient, apply), the coordinator ring only by the loop —
// the tracer's single-writer-per-ring contract.
type localExec struct {
	wallClock
	l       *coordLoop
	trans   *transport.Local
	workers []*realWorker
	step    laneStep
	// mu guards the shared model in UpdateLocked mode only; step.mu points
	// at it then and is nil otherwise.
	mu sync.RWMutex
	wg sync.WaitGroup
}

// build constructs worker id's goroutine state; elastic joiners take the
// same path as the initial set.
func (x *localExec) build(id int) *realWorker {
	cfg := x.l.cfg
	wc := cfg.Workers[id]
	w := &realWorker{id: id, name: x.l.name(id), wc: wc, inj: cfg.Faults.ForWorker(id)}
	// A round's local steps run sequentially on the private replica, so every
	// worker uses a single lane sized for one step's sub-batch.
	lanes := 1
	if wc.Device.Kind() == device.KindCPU && !cfg.rounds() {
		lanes = max(wc.Threads, 1)
		w.jobs = make([]chan laneJob, lanes)
	}
	rows := min((wc.MaxBatch+lanes-1)/lanes, x.l.ds.N())
	for i := 0; i < lanes; i++ {
		w.lanes = append(w.lanes, newLane(cfg, x.l.global, rows))
	}
	if wc.DeepReplica || cfg.rounds() {
		// Under the read discipline: a joiner is built while workers write.
		w.replica = x.l.cloneModel()
	}
	x.workers = append(x.workers, w)
	return w
}

// start launches w's goroutine and, for a CPU worker, one per lane. The
// worker's exits when its inbox closes (retire, evict, or shutdown) or on a
// recovered panic, and takes the lanes' with it by closing their channels.
func (x *localExec) start(w *realWorker) {
	l := x.l
	x.wg.Add(1 + len(w.jobs))
	for i := range w.jobs {
		// A lane holds at most one job (cpuIteration waits for all of them
		// before the next dispatch), so a buffer of one never blocks a send.
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

// iterate executes one dispatched batch on the worker's own goroutine,
// injecting scheduled faults and converting any panic — injected or
// genuine — into a failure message instead of killing the process.
func (x *localExec) iterate(w *realWorker, batch data.Batch, lr float64) (out transport.Done) {
	out = transport.Done{Worker: w.id}
	defer func() {
		if r := recover(); r != nil {
			out.Failed = true
			out.Err = fmt.Sprintf("core: worker %s panicked: %v", w.name, r)
		}
	}()
	step := w.inj.Begin()
	if step.Crash {
		panic(faults.CrashError{Worker: w.id, Iteration: w.inj.Iterations() - 1})
	}
	time.Sleep(step.Hang)
	l := x.l
	t0 := l.now()
	switch {
	case l.cfg.rounds():
		// The merged wire batch re-splits into local steps of the worker's
		// batch size: one round share on w's private replica.
		out.Updates, out.Dropped = x.step.localRound(&w.lanes[0], l.global, w.replica, splitBatch(batch, w.wc.InitialBatch), lr)
	case w.wc.Device.Kind() == device.KindCPU:
		out.Updates, out.Dropped = x.cpuIteration(w, batch, lr, step.Corrupt)
	default:
		out.Updates, out.Dropped = x.gpuIteration(w, batch, lr, step.Corrupt)
	}
	t1 := l.now()
	l.tel.Span(w.id, telemetry.KindGradient, t0, t1-t0, int64(batch.Size()))
	l.tel.Span(w.id, telemetry.KindApply, t1, 0, int64(out.Updates))
	l.util.AddBusy(w.name, t0, t1, w.wc.Device.Utilization(l.net.Arch, batch.Size()))
	l.raw.Add(w.name, int64(out.Updates))
	return out
}

// cpuIteration runs one CPU Hogbatch iteration with live parallelism: the
// batch splits into Threads sub-batches handed to the worker's lane
// goroutines, each applying its gradient directly to the shared model.
// corrupt poisons every lane's gradient, exercising the guard's drop path.
// Every lane goes through its channel while this goroutine parks in Wait —
// running one inline leaves the lane it woke stranded behind it on the same
// P. A panic on any lane is re-raised here after the remaining lanes finish,
// so the engine-level recovery sees it.
func (x *localExec) cpuIteration(w *realWorker, batch data.Batch, lr float64, corrupt bool) (updates, dropped int) {
	t := min(len(w.lanes), batch.Size())
	w.updates.Store(0)
	w.busy.Add(t)
	for i := 0; i < t; i++ {
		w.jobs[i] <- laneJob{laneSub(&w.lanes[i], batch, i, t), lr, corrupt}
	}
	w.busy.Wait()
	if p := w.panicked.Swap(nil); p != nil {
		panic(*p)
	}
	updates = int(w.updates.Load())
	return updates, t - updates
}

// laneLoop is a lane's goroutine: its share of every cpuIteration until the
// worker closes jobs. A panic ends it — the worker it belongs to is dead.
func (x *localExec) laneLoop(w *realWorker, ln *lane, jobs <-chan laneJob) {
	defer x.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			w.panicked.CompareAndSwap(nil, &r)
			w.busy.Done()
		}
	}()
	for job := range jobs {
		if x.step.run(ln, x.l.global, x.l.global, job.sub, job.lr, 1, job.corrupt) {
			w.updates.Add(1)
		}
		w.busy.Done()
	}
}

// gpuIteration runs one large-batch iteration through the deep-replica
// path: copy the model, compute the batch gradient against the replica with
// maximal intra-op parallelism, and push the update to the global model.
func (x *localExec) gpuIteration(w *realWorker, batch data.Batch, lr float64, corrupt bool) (updates, dropped int) {
	mu := x.modelLock(false)
	mu.Lock()
	w.replica.CopyFrom(x.l.global)
	mu.Unlock()
	if x.step.run(&w.lanes[0], w.replica, x.l.global, batch, lr, x.l.gemm, corrupt) {
		return 1, 0
	}
	return 0, 1
}

func (x *localExec) attach(context.Context) ([]int, error) {
	for _, w := range x.workers {
		x.start(w)
	}
	return nil, nil
}

func (x *localExec) decorate(w transport.Work) transport.Work { return w }

// deadline is the watchdog's, in wall time.
func (x *localExec) deadline(id, size int) time.Duration { return x.l.watchdogDeadline(id, size) }

// accept: the updates landed in the shared model before the completion was
// sent, so even a quarantined straggler's count (documented at-least-once
// semantics under timeouts).
func (x *localExec) accept(msg *transport.Done, _ *inflightDispatch) { x.l.account(msg) }

func (x *localExec) spawn(id int) { x.start(x.build(id)) }

// drain closes the worker's inbox, which ends its goroutine.
func (x *localExec) drain(id int) []transport.Work { return x.trans.CloseWorker(id) }

func (x *localExec) replica(id int) *nn.Params { return x.workers[id].replica }

func (x *localExec) modelLock(write bool) sync.Locker {
	if x.step.mu == nil {
		return nopLocker{}
	}
	if write {
		return &x.mu
	}
	return x.mu.RLocker()
}

func (x *localExec) shutdown() {
	x.trans.CloseInboxes()
	if x.l.health.report.Survivors() == len(x.workers) {
		x.wg.Wait()
	} else {
		// A quarantined worker may be hung far beyond the budget; bound the
		// wait and let stragglers drain on their own — every shared
		// structure they touch afterwards is synchronized or closed.
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
