package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"heterosgd/internal/data"
	"heterosgd/internal/device"
	"heterosgd/internal/faults"
	"heterosgd/internal/nn"
	"heterosgd/internal/opt"
	"heterosgd/internal/tensor"
	"heterosgd/internal/transport"
)

// lane is the private state of one gradient lane: a workspace, a gradient
// buffer, and — for non-SGD update rules — the optimizer with its delta
// buffer. A live CPU worker owns one lane per sub-batch thread; every other
// worker owns one.
type lane struct {
	ws    *nn.Workspace
	grad  *nn.Params
	optim opt.Optimizer // nil for plain SGD
	delta *nn.Params
	// scratch holds the ∇f(w̃) term of SVRG's corrected gradient.
	scratch *nn.Params
	// views holds the header of the sub-batch the lane is working on.
	views data.Views
}

// worker is one worker's state on every engine — the paper's worker thread
// (§V). RunSim, RunReal and RunClusterWorker build it with newWorker and run
// each dispatch through laneStep.iterate — the simulated engine's deep step
// through iterate's two halves, read at Send and steps at completion.
type worker struct {
	id   int
	name string
	wc   WorkerConfig
	// threads is how many sub-batches a dispatch splits into: the CPU's
	// Threads, or 0 for any other device, whose dispatch is one step on a
	// private copy of the model. A cluster worker process, which has no
	// device model, takes it from each dispatch.
	threads int
	inj     *faults.Injector // this worker's scheduled faults (nil = none)
	// lanes holds one lane per thread of a live CPU worker and one
	// otherwise: the other engines run a dispatch's sub-batches in turn.
	lanes []lane
	// replica is the deep-copy buffer: the dispatch-time model a deep step
	// or a deep-replica CPU reads, the private model a round's local steps
	// run on, or DC-ASGD's retained w_then. Nil when nothing reads one.
	replica *nn.Params
	view    data.Views // header of the dispatched batch
	// A live CPU worker's lanes each run on a goroutine of their own for as
	// long as the worker's does: jobs[i] feeds lane i, busy counts the lanes
	// still inside the current dispatch, updates the sub-batches that landed,
	// and panicked keeps the first panic a lane recovered. Nil jobs: the
	// lanes run in turn on the worker's goroutine.
	jobs     []chan laneJob
	busy     sync.WaitGroup
	updates  atomic.Int64
	panicked atomic.Pointer[any]
}

// cpuThreads is how many sub-batches a dispatch of wc's splits into: the
// CPU's Threads, at least one; 0 for any other device, and for a worker with
// no device model.
func cpuThreads(wc WorkerConfig) int {
	if wc.Device == nil || wc.Device.Kind() != device.KindCPU {
		return 0
	}
	return max(wc.Threads, 1)
}

// newWorker builds worker id's state the same way on every engine: n lanes
// whose workspaces hold rows examples each, with the optimizer state of a
// non-SGD rule and a CPU's SVRG scratch. enlist adds the replica its
// dispatches read (see readsCopy) and the live engine the lane goroutines.
// Nothing here draws random numbers (zero-inits only), so building an
// elastic joiner never perturbs the deterministic init or shuffle streams.
func newWorker(cfg *Config, id int, name string, wc WorkerConfig, n, rows int) *worker {
	w := &worker{id: id, name: name, wc: wc, threads: cpuThreads(wc), inj: cfg.Faults.ForWorker(id), lanes: make([]lane, n)}
	for i := range w.lanes {
		l := &w.lanes[i]
		l.ws, l.grad = cfg.Net.NewWorkspace(rows), cfg.Net.NewParams(nn.InitZero, nil)
		if cfg.Optimizer != opt.KindSGD {
			l.optim, l.delta = opt.New(cfg.Optimizer, l.grad, opt.HyperParams{}), cfg.Net.NewParams(nn.InitZero, nil)
		}
		if cfg.svrgAnchor() && w.threads > 0 {
			l.scratch = cfg.Net.NewParams(nn.InitZero, nil)
		}
	}
	return w
}

// recoverInto is deferred around a dispatch on the live engines: a panic —
// an injected crash or a genuine fault — becomes the Done{Failed} the
// coordinator re-dispatches on, instead of killing the process.
func (w *worker) recoverInto(out *transport.Done) {
	if r := recover(); r != nil {
		*out = transport.Done{Worker: out.Worker, Seq: out.Seq, Failed: true, Err: fmt.Sprintf("core: worker %s panicked: %v", w.name, r)}
	}
}

// laneStep is the per-lane update rule of a run: the one sequence every
// engine and the cluster worker perform for each (sub-)batch. The
// coordinator loop builds the in-process engines' one (newCoordLoop), the
// live engine adds shared and mu, and from the first dispatch on it is
// immutable, so worker goroutines share it freely.
type laneStep struct {
	net   *nn.Network
	decay float64 // Config.WeightDecay
	guard bool    // drop non-finite gradients before they reach the model
	mode  tensor.UpdateMode
	// gemm is the GEMM parallelism of a step the worker's own goroutine
	// takes; lane goroutines, running side by side, take theirs on one.
	gemm int
	// rounds makes every dispatch a round share (Config.rounds()).
	rounds bool
	// mu guards shared — the live model — in UpdateLocked mode; nil when the
	// engine needs no lock. Private replicas are never locked.
	mu     *sync.RWMutex
	shared *nn.Params
	// dc is DC-ASGD's λ, applied to gradients computed against a replica.
	dc float64
	// svrg is AlgSVRG's anchor: the GPU's step refreshes it, and it corrects
	// every CPU gradient.
	svrg *svrgState
}

// deepStep reports whether a dispatch of w's is one step on a copy of the
// model: any device but a CPU, outside a round.
func (s *laneStep) deepStep(w *worker) bool { return !s.rounds && w.threads == 0 }

// readsCopy reports whether w's dispatches read a private copy of the model,
// which w.replica holds: a round share, a deep step, or a deep-replica CPU.
func (s *laneStep) readsCopy(w *worker) bool {
	return s.rounds || w.threads == 0 || w.wc.DeepReplica
}

// iterate runs one dispatch of batch on w against model — the live model of
// an in-process engine, or a cluster worker's decoded copy — and returns how
// many updates landed and how many the guard dropped. In a round it is one
// round share on w's private replica; otherwise it is the copy readsCopy
// calls for, taken now, then steps.
func (s *laneStep) iterate(w *worker, model *nn.Params, batch data.Batch, lr float64, corrupt bool) (updates, dropped int) {
	if s.rounds {
		return s.localRound(&w.lanes[0], model, w.replica, batch, w.wc.InitialBatch, lr)
	}
	return s.steps(w, s.read(w, model), model, batch, lr, corrupt)
}

// read returns the model w's dispatch reads: the copy of model it takes now
// into w.replica when readsCopy says so, model itself otherwise.
func (s *laneStep) read(w *worker, model *nn.Params) *nn.Params {
	if !s.readsCopy(w) {
		return model
	}
	s.snapshot(w.replica, model)
	return w.replica
}

// steps runs a dispatch's steps on w — their gradients taken at read, their
// updates written to model — and returns how many landed and how many the
// guard dropped. It is the one place a dispatch's shape is decided: a CPU
// takes min(threads, size) sub-batch steps, on w's lane goroutines when it
// has them, in turn otherwise; any other device takes one. SVRG's GPU step
// refreshes the anchor instead of writing model. The live engines call it
// straight after the copy; the simulated engine an iteration's virtual time
// later, and that gap is replica staleness (§VI-B).
func (s *laneStep) steps(w *worker, read, model *nn.Params, batch data.Batch, lr float64, corrupt bool) (updates, dropped int) {
	if s.svrg != nil && s.deepStep(w) {
		s.svrg.refresh(s.net, read, w.lanes[0].ws, batch)
		return 1, 0
	}
	t := min(max(w.threads, 1), batch.Size())
	if w.jobs != nil {
		updates = w.fan(read, model, batch, t, lr, corrupt)
	} else {
		// A lone step takes the GEMM parallelism s.gemm; sub-batches in turn
		// take one each, like lanes running side by side.
		gemm := s.gemm
		if t > 1 {
			gemm = 1
		}
		for i := 0; i < t; i++ {
			if s.run(&w.lanes[0], read, model, laneSub(&w.lanes[0], batch, i, t), lr, gemm, corrupt) {
				updates++
			}
		}
	}
	return updates, t - updates
}

// snapshot copies model into dst under the read discipline: the read lock
// in locked mode, plainly otherwise — as unsynchronized as Hogwild's reads.
func (s *laneStep) snapshot(dst, model *nn.Params) {
	if s.mu != nil {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	dst.CopyFrom(model)
}

// run performs one update: the gradient half, then the apply half. It
// reports whether the update landed; false means the guard dropped it.
func (s *laneStep) run(l *lane, read, write *nn.Params, b data.Batch, lr float64, gemm int, corrupt bool) bool {
	s.gradient(l, read, b, gemm, corrupt)
	return s.apply(l, read, write, lr)
}

// gradient leaves in l.grad the gradient of b at read, with L2 decay against
// the same model and, when corrupt, the injected poison.
func (s *laneStep) gradient(l *lane, read *nn.Params, b data.Batch, gemm int, corrupt bool) {
	if s.mu != nil && read == s.shared {
		// Deferred, so a lane that panics mid-gradient does not leave the
		// survivors' writers waiting on its read lock for ever.
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	if s.svrg != nil {
		s.svrg.correctedGradient(s.net, read, l.ws, b, l.grad, l.scratch)
	} else {
		s.net.GradientX(read, l.ws, b.Input(), b.Y, l.grad, gemm)
	}
	if s.decay > 0 {
		l.grad.AddDecay(s.decay, read)
	}
	if corrupt {
		faults.Poison(l.grad)
	}
}

// apply lands l.grad — computed against read — in write: delay compensation,
// the non-finite guard, then the optimizer step at lr (which the caller has
// already damped for staleness, if it damps).
func (s *laneStep) apply(l *lane, read, write *nn.Params, lr float64) bool {
	lockWrite := s.mu != nil && write == s.shared
	if s.dc != 0 && read != write {
		// DC-ASGD: steer the stale gradient toward its value at the current
		// model; read still holds w_then, the model it was computed against.
		if lockWrite {
			s.mu.RLock()
		}
		l.grad.DelayCompensate(s.dc, write, read)
		if lockWrite {
			s.mu.RUnlock()
		}
	}
	if s.guard && !l.grad.AllFinite() {
		return false
	}
	if lockWrite {
		s.mu.Lock()
	}
	applyStep(l.optim, l.grad, l.delta, write, s.mode, lr)
	if lockWrite {
		s.mu.Unlock()
	}
	return true
}

// localRound performs one round share on a private replica: copy the global
// model, then take one plain-SGD step per step-sized piece of batch (see
// pieceEnd). Only the round barrier writes the global model, so the copy
// races with nothing in atomic/racy modes; locked mode still takes the read
// lock.
func (s *laneStep) localRound(l *lane, global, replica *nn.Params, batch data.Batch, step int, lr float64) (updates, dropped int) {
	s.snapshot(replica, global)
	size := batch.Size()
	for lo, hi := 0, 0; lo < size; lo = hi {
		hi = pieceEnd(lo, size, step)
		if s.run(l, replica, replica, batch.SubInto(&l.views, lo, hi), lr, 1, false) {
			updates++
		} else {
			dropped++
		}
	}
	return updates, dropped
}

// pieceEnd is the end of the piece starting at row lo when a size-row batch
// is cut into consecutive pieces of maxSize rows, the last shorter; a
// maxSize ≤ 0 leaves the batch whole. It is the one rule for a round's local
// steps, their simulated duration, and splitBatch.
func pieceEnd(lo, size, maxSize int) int {
	if maxSize <= 0 {
		return size
	}
	return min(lo+maxSize, size)
}

// laneSub returns the i-th of t near-equal consecutive sub-batches of batch
// (t ≤ batch.Size(), so none is empty) as a view held in l's storage: valid
// until l takes its next sub-batch.
func laneSub(l *lane, batch data.Batch, i, t int) data.Batch {
	size := batch.Size()
	return batch.SubInto(&l.views, i*size/t, (i+1)*size/t)
}

// applyStep applies one gradient step to a model: the plain SGD fast path
// writes −lr·grad directly; other optimizers first transform the gradient
// into a delta using their private state.
func applyStep(o opt.Optimizer, grad, delta, global *nn.Params, mode tensor.UpdateMode, lr float64) {
	if o == nil {
		global.ApplyUpdate(mode, -lr, grad)
		return
	}
	o.Step(grad, delta, lr)
	global.ApplyUpdate(mode, 1, delta)
}
