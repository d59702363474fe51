package core

import (
	"sync"

	"heterosgd/internal/data"
	"heterosgd/internal/faults"
	"heterosgd/internal/nn"
	"heterosgd/internal/opt"
	"heterosgd/internal/tensor"
)

// lane is the private state of one gradient lane: a workspace, a gradient
// buffer, and — for non-SGD update rules — the optimizer with its delta
// buffer. A CPU worker owns one lane per sub-batch thread; every other
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

// newLane builds a lane whose workspace holds up to rows examples. Nothing
// here draws random numbers (zero-inits only), so building a lane for an
// elastic joiner never perturbs the deterministic init or shuffle streams.
func newLane(cfg *Config, global *nn.Params, rows int) lane {
	l := lane{ws: cfg.Net.NewWorkspace(rows), grad: cfg.Net.NewParams(nn.InitZero, nil)}
	if cfg.Optimizer != opt.KindSGD {
		l.optim = opt.New(cfg.Optimizer, global, cfg.OptimizerHP)
		l.delta = cfg.Net.NewParams(nn.InitZero, nil)
	}
	return l
}

// laneStep is the per-lane update rule of a run: the one sequence every
// engine and the cluster worker perform for each (sub-)batch. It is
// immutable once built, so worker goroutines share it freely.
type laneStep struct {
	net   *nn.Network
	decay float64 // Config.WeightDecay
	guard bool    // drop non-finite gradients before they reach the model
	mode  tensor.UpdateMode
	// mu guards shared — the live model — in UpdateLocked mode; nil when the
	// engine needs no lock. Private replicas are never locked.
	mu     *sync.RWMutex
	shared *nn.Params
	// dc is DC-ASGD's λ, applied to gradients computed against a replica.
	dc   float64
	svrg *svrgState
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
// already damped for staleness, if it damps). The simulated engine runs it an
// iteration's virtual time after gradient; that gap is replica staleness.
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

// localRound performs one round share on a private replica: copy
// the global model, then take one plain-SGD step per batch. Only the round
// barrier writes the global model, so the copy races with nothing in
// atomic/racy modes; locked mode still takes the read lock.
func (s *laneStep) localRound(l *lane, global, replica *nn.Params, steps []data.Batch, lr float64) (updates, dropped int) {
	if s.mu != nil {
		s.mu.RLock()
	}
	replica.CopyFrom(global)
	if s.mu != nil {
		s.mu.RUnlock()
	}
	for _, sb := range steps {
		if s.run(l, replica, replica, sb, lr, 1, false) {
			updates++
		} else {
			dropped++
		}
	}
	return updates, dropped
}

// laneSub returns the i-th of t near-equal consecutive sub-batches of batch
// (t ≤ batch.Size(), so none is empty) as a view held in l's storage: valid
// until l takes its next sub-batch.
func laneSub(l *lane, batch data.Batch, i, t int) data.Batch {
	size := batch.Size()
	return batch.SubInto(&l.views, i*size/t, (i+1)*size/t)
}

// split runs batch as t consecutive sub-batches on the one lane l — the
// sequential form of a CPU iteration — and returns how many updates landed;
// the guard dropped the other t − landed.
func (s *laneStep) split(l *lane, read, write *nn.Params, batch data.Batch, t int, lr float64, gemm int, corrupt bool) (landed int) {
	for i := 0; i < t; i++ {
		if s.run(l, read, write, laneSub(l, batch, i, t), lr, gemm, corrupt) {
			landed++
		}
	}
	return landed
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
