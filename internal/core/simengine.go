package core

import (
	"context"
	"time"

	"heterosgd/internal/data"
	"heterosgd/internal/device"
	"heterosgd/internal/faults"
	"heterosgd/internal/simclock"
	"heterosgd/internal/telemetry"
	"heterosgd/internal/transport"
)

// RunSim trains cfg's model for a virtual-time budget of horizon using the
// discrete-event engine: the coordinator loop shared with RunReal and
// RunCluster (loop.go), behind an executor whose workers exist only as
// entries on a virtual clock. Every gradient and model update is computed
// for real with the same kernels as RunReal; only elapsed time is virtual,
// produced by the per-device cost models — this is how the paper's
// wall-clock figures are reproduced without a physical V100 (DESIGN.md §2).
//
// Per the paper's methodology (§VII-A), loss-evaluation time is excluded
// from the convergence clock: trace timestamps subtract the accumulated
// end-of-epoch evaluation durations, while the utilization trace keeps them
// (Figure 7's end-of-epoch GPU bumps).
//
// The engine is cancellable: cancellation of ctx is observed at every
// scheduling point, after which no new work is scheduled, the in-flight
// iterations drain, a final checkpoint is emitted through
// cfg.CheckpointSink (if configured), and the partial Result returns with
// Interrupted set. A run may also warm-start from cfg.Resume; because the
// engine is deterministic, a resumed run continues the exact trajectory of
// the interrupted one (cfg.Dataset must be freshly loaded, in original
// order, as a new process provides — restore replays the epoch shuffles).
func RunSim(ctx context.Context, cfg Config, horizon time.Duration) (*Result, error) {
	x, err := newSimExec(ctx, &cfg, horizon)
	if err != nil {
		return nil, err
	}
	return x.l.loop()
}

// newSimExec validates cfg and builds RunSim's coordinator loop and
// executor, every initial worker built.
func newSimExec(ctx context.Context, cfg *Config, horizon time.Duration) (*simExec, error) {
	if err := cfg.supportedOn(engineSim); err != nil {
		return nil, err
	}
	// The simulated engine checkpoints at epoch barriers and on drain only —
	// both exact consistency points, which is what makes a resumed
	// deterministic run continue the identical trajectory.
	cfg.CheckpointEvery = 0
	x := &simExec{eng: simclock.New()}
	l, err := newCoordLoop(ctx, cfg, x, horizon)
	if err != nil {
		return nil, err
	}
	// The engine runs on one goroutine, so every telemetry ring (workers and
	// coordinator alike) obeys the single-writer contract trivially; its GEMMs
	// and evaluations fork across every core (laneStep.gemm), but the kernels'
	// helpers write no ring, and forkJoin's row chunks leave every output's
	// bits as one goroutine makes them. Spans are stamped with the virtual
	// clock, so a fixed-seed run exports a byte-identical Chrome trace.
	l.exec, x.l = x, l
	x.evalDev = cfg.EvalDevice
	if x.evalDev == nil {
		x.evalDev = cfg.Workers[0].Device
	}
	for id := range cfg.Workers {
		x.spawn(id)
	}
	return x, nil
}

// simIter is the virtual iteration a worker has in progress. A worker holds
// at most one at a time (a quarantined or evicted one gets no work until its
// straggler completes), so it lives beside the worker rather than in a
// per-dispatch record.
type simIter struct {
	// done is the iteration's completion; deliver hands it to the
	// coordinator when the iteration's virtual time is up.
	done    transport.Done
	deliver func()
	// deferred marks a deep step, which copies the model at Send and steps
	// at completion: batch, lr and corrupt are its dispatch's, seen the
	// run's credited update count at the copy.
	deferred bool
	batch    data.Batch
	lr       float64
	seen     int64
	corrupt  bool
}

// simExec is RunSim's executor, transport and clock in one: Send runs a
// dispatch's arithmetic and books its completion on the event heap, Recv
// pops the heap and advances virtual time.
type simExec struct {
	l       *coordLoop
	eng     *simclock.Engine
	iters   []simIter // by worker id
	evalDev device.Device
	// evalDebt is the evaluation time excluded from the convergence clock so
	// far (the running evaluation included); evalEnd is when it is over.
	evalDebt, evalEnd time.Duration
	// out is the completion Recv is delivering; msg what it returns.
	out transport.Done
	msg transport.Msg
}

func (x *simExec) now() time.Duration { return x.eng.Now() }

// elapsed excludes loss-evaluation time (§VII-A): the convergence clock
// stands still while the eval device works, and stops at the horizon — the
// in-flight iterations that drain past it cost nothing, so RunSim never
// overshoots.
func (x *simExec) elapsed() time.Duration {
	return min(max(x.eng.Now(), x.evalEnd)-x.evalDebt, x.l.budget)
}

// evalTime charges the barrier evaluation to the eval device (paper: always
// the GPU) for its modeled duration, Figure 7's end-of-epoch bump.
func (x *simExec) evalTime(t0 time.Duration) time.Duration {
	d := x.evalDev.EvalTime(x.l.net.Arch, x.l.ds.N())
	x.l.util.AddBusy(x.evalDevName(), t0, t0+d, 0.95)
	x.evalDebt, x.evalEnd = x.evalDebt+d, t0+d
	return d
}

// evalDevName returns the utilization-trace key for the eval device: when
// the eval device is also a worker, reuse that worker's name so the busy
// interval lands on the right series.
func (x *simExec) evalDevName() string {
	for _, w := range x.l.workers {
		if w.wc.Device == x.evalDev {
			return w.name
		}
	}
	return x.evalDev.Name()
}

// attach starts the SampleEvery ticks; the workers need no bringing up.
func (x *simExec) attach(context.Context) ([]int, error) {
	if every := x.l.cfg.SampleEvery; every > 0 {
		var tick func()
		tick = func() {
			if x.l.sample() {
				x.eng.Schedule(every, tick)
			}
		}
		x.eng.Schedule(every, tick)
	}
	return nil, nil
}

// spawn builds worker id's state; elastic joiners take the same path as the
// initial set. Nothing here draws random numbers (every init is zero or a
// clone), so a mid-run join does not perturb the shuffle or init streams —
// a determinism requirement. The engine runs a worker's sub-batches one
// after another, so one lane serves them all.
func (x *simExec) spawn(id int) {
	x.l.enlist(id, 1, min(x.l.cfg.Workers[id].MaxBatch, x.l.ds.N()))
	x.iters = append(x.iters, simIter{deliver: func() {
		x.out = x.iters[id].done
		x.msg.Done = &x.out
	}})
}

func (x *simExec) decorate(_ int, w transport.Work) transport.Work { return w }

// drain has nothing to stop: a virtual iteration cannot be aborted, and its
// completion is settled like any straggler's.
func (x *simExec) drain(int) []transport.Work { return nil }

func (x *simExec) shutdown() {}

// Send starts worker id's virtual iteration on m: it draws the iteration's
// fault, books the device for the modeled duration, does what happens at
// dispatch time, and schedules the completion.
func (x *simExec) Send(id int, m transport.Work) error {
	l, w, it := x.l, x.l.workers[id], &x.iters[id]
	batch := l.ds.ViewInto(&w.view, m.Lo, m.Hi)
	it.done = transport.Done{Worker: id, Seq: m.Seq}
	fault := w.inj.Begin()
	if fault.Crash {
		// The worker dies before computing anything. The simulated engine
		// reports the injected crash itself — there is no goroutine to panic.
		it.done.Failed, it.done.Err = true, faults.CrashError{Worker: id, Iteration: w.inj.Iterations() - 1}.Error()
		x.eng.Schedule(0, it.deliver)
		return nil
	}
	// A round share takes one local step per InitialBatch-sized piece, any
	// other dispatch one of the whole batch.
	size, step := batch.Size(), 0
	if l.step.rounds {
		step = w.wc.InitialBatch
	}
	dur := fault.Hang
	for lo, hi := 0, 0; lo < size; lo = hi {
		hi = pieceEnd(lo, size, step)
		dur += w.wc.Device.IterTime(l.net.Arch, hi-lo, l.modelBytes)
	}
	now := x.eng.Now()
	l.tel.Span(id, telemetry.KindGradient, now, dur, int64(size))
	l.util.AddBusy(w.name, now, now+dur, w.wc.Device.Utilization(l.net.Arch, pieceEnd(0, size, step)))

	if l.step.deepStep(w) {
		// A deep step copies the model now and steps the copy's gradient into
		// the model when the iteration completes, in accept: that gap is
		// replica staleness (§VI-B).
		l.step.read(w, l.global)
		it.deferred, it.batch, it.lr, it.seen, it.corrupt = true, batch, m.LR, l.raw.Total(), fault.Corrupt
	} else {
		// A round share, or a CPU iteration whose sub-batch gradients update
		// the shared model one after another, now — sequentialized Hogwild,
		// the event-driven equivalent of Algorithm 2's parallel loop.
		it.done.Updates, it.done.Dropped = l.step.iterate(w, l.global, batch, m.LR, fault.Corrupt)
	}
	x.eng.Schedule(dur, it.deliver)
	return nil
}

// accept runs a deep step's steps — it had to wait for the iteration's
// virtual time to pass — and credits the completion. StaleDamping counts the
// updates the step missed as those credited between its dispatch and now.
// A quarantined or evicted straggler's update lands too: the documented
// at-least-once of shared memory.
func (x *simExec) accept(msg *transport.Done, _ *inflightDispatch) {
	l, w, it := x.l, x.l.workers[msg.Worker], &x.iters[msg.Worker]
	if it.deferred {
		it.deferred = false
		lr := it.lr
		if d := l.cfg.StaleDamping; d > 0 {
			lr /= 1 + d*float64(l.raw.Total()-it.seen)
		}
		msg.Updates, msg.Dropped = l.step.steps(w, w.replica, l.global, it.batch, lr, it.corrupt)
	}
	l.tel.Span(w.id, telemetry.KindApply, x.eng.Now(), 0, int64(msg.Updates))
	l.account(msg)
}

// Recv fires the next event and advances virtual time to it. An event
// beyond now+wait is left alone: time advances to now+wait and the
// coordinator wakes on RecvTimeout — a watchdog deadline or the end of a
// barrier's rest, at its exact virtual instant.
func (x *simExec) Recv(wait time.Duration) (transport.Msg, transport.RecvStatus) {
	at, ok := x.eng.Peek()
	until := x.eng.Now() + wait
	switch {
	case wait < 0 && !ok:
		return transport.Msg{}, transport.RecvClosed
	case wait >= 0 && (!ok || at > until):
		x.eng.ScheduleAt(until, func() {})
		x.eng.Step()
		return transport.Msg{}, transport.RecvTimeout
	}
	x.msg = transport.Msg{}
	x.eng.Step()
	return x.msg, transport.RecvOK
}

// Wake has nobody to wake: Recv never blocks, and cancellation is observed
// at the next scheduling point. Close has nothing to close.
func (x *simExec) Wake()        {}
func (x *simExec) Close() error { return nil }
