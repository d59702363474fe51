package core

import (
	"context"
	"fmt"
	"time"

	"heterosgd/internal/nn"
	"heterosgd/internal/transport"
)

// This file implements the networked training engine: the same coordinator
// as RunSim and RunReal (loop.go), behind an executor whose workers live in
// other processes.
// The engine is a parameter server — each dispatch carries the serialized
// global model, each completion carries the worker's parameter delta, and
// the coordinator (the model's single writer) applies deltas sequentially.
//
// Delivery semantics: the transport is at-least-once (workers retransmit
// unacknowledged completions across reconnects), and the engine makes
// application exactly-once by deduplicating on the dispatch sequence number.
// A completion is applied only if its sequence is still in flight and not
// abandoned; duplicates and abandoned stragglers are discarded, so a worker
// that was severed and healed neither loses nor double-applies a batch.

// ClusterOptions tunes RunCluster's behavior beyond the shared Config.
type ClusterOptions struct {
	// AttachTimeout bounds the initial wait for all workers to connect.
	// Zero defaults to 30 s.
	AttachTimeout time.Duration
}

// clusterLink is what the engine asks of a networked transport beyond
// Transport. transport.TCP provides it; over any other transport each use is
// skipped.
type clusterLink interface {
	// Stats are the delivery statistics the Result's queue counters report.
	Stats() transport.Stats
	// Retire gracefully closes a departed worker's link — Goodbye frame, no
	// LinkDown, no reconnect — once its graceful leave has drained.
	Retire(worker int)
	// Recycle takes back the receive buffer a completion aliases once the
	// loop has settled it: applied, duplicate or abandoned. A transport that
	// never gets one back merely allocates the next.
	Recycle(m transport.Msg)
}

// checkWireSize refuses a network whose parameters no cluster frame can
// carry: every dispatch and every completion carries the blob whole. Both
// ends ask before anything else — past the limit every Send would fail and
// read as a partition of each worker in turn.
func checkWireSize(net *nn.Network) error {
	if n := nn.ParamsWireSize(net); n > transport.MaxBlob {
		return fmt.Errorf("core: the model's %d parameters serialize to %d bytes, over the %d a cluster frame carries (transport.MaxPayload); the cluster engine ships the whole model with every dispatch and cannot train this network",
			net.Arch.NumParameters(), n, transport.MaxBlob)
	}
	return nil
}

// RunCluster trains cfg's model for a wall-clock budget over trans: the
// coordinator (this goroutine) dispatches batches — as absolute dataset
// ranges plus the serialized global parameters — to remote workers, and
// applies the parameter deltas they return. Both sides must construct the
// identical dataset (same spec, scale, and seed); workers replay the
// coordinator's epoch shuffles from the seed carried in the handshake, so a
// dispatched [Lo,Hi) range denotes the same examples in every process.
//
// Fault tolerance extends RunReal's state machine to network failures. A
// severed or silent link surfaces as a LinkDown event: the worker is
// quarantined (event kind "partition"), its in-flight batch re-dispatched
// to a survivor, and the eventual completion of the abandoned dispatch is
// discarded. When the link heals (LinkUp) the worker is readmitted and
// receives work again. Completions are deduplicated by dispatch sequence,
// so the at-least-once transport never double-applies an update; see
// TransportReport for the accounting. cfg.Watchdog bounds each dispatch in
// wall time, as on RunReal; without it a hung worker is detected by
// heartbeat loss alone.
//
// Crash durability: a cluster run checkpoints with a membership section
// (worker states, SSP clocks, dispatch sequence floor, transport
// accounting, and the in-flight batch list), and cfg.Resume restores all of
// it — the coordinator process can be SIGKILLed and restarted, re-listen,
// and continue the same trajectory. Workers re-handshake against the RESUME
// Welcome (restored epoch + sequence floor), checkpointed in-flight batches
// are re-queued for dispatch, and completions from the previous incarnation
// are discarded as duplicates, so AppliedExamples == ExamplesProcessed
// holds across the restart.
//
// Restrictions relative to RunReal: plain SGD only (optimizer state lives
// worker-side and is not replicated), and cfg.Faults is ignored — inject
// network faults with transport.NewProxy and a faults.LinkPlan, or kill
// whole processes with a faults.ProcPlan drill (hogcluster -chaos).
func RunCluster(ctx context.Context, cfg Config, budget time.Duration, trans transport.Transport, opts ClusterOptions) (*Result, error) {
	if err := cfg.supportedOn(engineCluster); err != nil {
		return nil, err
	}
	if trans == nil {
		return nil, fmt.Errorf("core: RunCluster needs a transport")
	}
	if err := checkWireSize(cfg.Net); err != nil {
		return nil, err
	}
	if opts.AttachTimeout <= 0 {
		opts.AttachTimeout = 30 * time.Second
	}
	l, err := newCoordLoop(ctx, &cfg, trans, budget)
	if err != nil {
		return nil, err
	}
	l.health.report.Transport = l.tr
	l.exec = &clusterExec{wallClock: wallClock{time.Now()}, l: l, opts: opts}
	return l.loop()
}

// clusterExec is RunCluster's executor: workers are remote processes behind
// the transport. Every dispatch carries the serialized model and every
// completion a parameter delta the coordinator — the model's single writer —
// applies, so the model needs no lock.
type clusterExec struct {
	wallClock
	l    *coordLoop
	opts ClusterOptions
	// model is the global model as its wire blob: the Parts every Work
	// carries are views of l.global between the blob's header and shape
	// words, which Send writes while the coordinator waits in it.
	model nn.Gather
}

// attach waits until every live worker has linked up, so epoch-zero
// dispatches are never silently dropped on dead links. A resumed run waits
// only for the restored active set — its departed slots will never dial in
// again.
func (x *clusterExec) attach(ctx context.Context) (joined []int, err error) {
	l := x.l
	connected := make([]bool, len(l.cfg.Workers))
	need := l.health.count(WorkerState.dispatchable)
	deadline := time.Now().Add(x.opts.AttachTimeout)
	for attached := 0; attached < need; {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, fmt.Errorf("core: only %d of %d workers attached within %v", attached, need, x.opts.AttachTimeout)
		}
		m, st := l.trans.Recv(remaining)
		if st == transport.RecvClosed {
			return nil, fmt.Errorf("core: transport closed during attach")
		}
		if st != transport.RecvOK || m.Event == nil {
			continue
		}
		switch id := m.Event.Worker; m.Event.Kind {
		case transport.LinkUp:
			if !connected[id] && l.health.ok(id) {
				connected[id] = true
				attached++
				l.rec.log(l.elapsed(), l.name(id), "attach", "worker linked up")
			}
		case transport.LinkJoin:
			// An elastic joiner beat an initial worker to the door; the loop
			// admits it before the first dispatch, in arrival order.
			joined = append(joined, id)
		}
	}
	return joined, nil
}

// decorate ships the current model with the dispatch, the epoch whose
// shuffle the [Lo,Hi) range refers to, and the dispatch's lane count — a
// CPU's Threads, one for any other device — which the worker process cannot
// work out, having no device model.
func (x *clusterExec) decorate(id int, w transport.Work) transport.Work {
	w.ParamsCRC = x.model.Of(x.l.global)
	w.Parts = x.model.Parts
	w.Lanes = max(cpuThreads(x.l.cfg.Workers[id]), 1)
	if x.l.cfg.Shuffle {
		w.Epoch = uint32(x.l.coord.epoch)
	}
	return w
}

// accept folds a live completion's delta into the global model. A straggler
// whose dispatch was given up on is discarded instead — its batch was
// re-dispatched elsewhere, and applying it would double-count.
func (x *clusterExec) accept(msg *transport.Done, fl *inflightDispatch) {
	l := x.l
	if fl.abandoned {
		l.rec.log(l.elapsed(), l.name(msg.Worker), "abandoned", fmt.Sprintf("stale completion for seq %d discarded", msg.Seq))
		return
	}
	l.account(msg)
	if msg.Updates == 0 || len(msg.Delta) == 0 {
		return
	}
	// Checked whole where it lies first, then applied from there: a corrupt
	// blob never half-applies.
	delta, err := nn.ViewParams(l.global, msg.Delta, msg.DeltaCRC)
	switch {
	case err != nil:
		// A corrupt delta is dropped like a non-finite gradient: the
		// examples still count as processed, the update does not land.
		l.drop(msg.Worker, int64(msg.Updates), "delta-error", err.Error())
	case l.cfg.Guards && !delta.AllFinite():
		l.drop(msg.Worker, int64(msg.Updates), "drop", "non-finite delta discarded")
	default:
		delta.AddTo(l.global)
	}
}

// spawn has nothing to start: a joiner's process is already running, and
// the current model rides its first dispatch.
func (x *clusterExec) spawn(int) {}

// drain says Goodbye on the departed worker's link; it accepts no reconnect.
func (x *clusterExec) drain(id int) []transport.Work {
	if link, ok := x.l.trans.(clusterLink); ok {
		link.Retire(id)
	}
	return nil
}

func (x *clusterExec) shutdown() {
	if link, ok := x.l.trans.(clusterLink); ok {
		s := link.Stats()
		qs := &x.l.health.report.Queue
		qs.Pushed, qs.Popped = s.Dispatched, s.Completed
	}
	x.l.trans.Close()
}
