package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"heterosgd/internal/data"
	"heterosgd/internal/nn"
	"heterosgd/internal/tensor"
	"heterosgd/internal/transport"
)

// ClusterWorkerOptions configures one remote worker process.
type ClusterWorkerOptions struct {
	// Client tunes the transport link's reconnect backoff. Client.Seed
	// should be the run seed so reconnect jitter replays deterministically.
	Client transport.ClientOptions
	// Threads is the number of sequential gradient lanes per dispatch
	// (the batch splits into Threads sub-batches applied one after
	// another). 0 = the coordinator's lane count for the dispatch.
	Threads int
	// LeaveAfter, when positive, announces a graceful departure after that
	// many handled dispatches: the coordinator stops dispatching, drains
	// this worker's last completion, and says Goodbye (RunClusterWorker
	// then returns nil).
	LeaveAfter int
	// OnDispatch, when set, runs before each dispatch is computed, with the
	// 1-based count of dispatches received so far. Chaos drills use it to
	// kill the process after N frames (a SIGKILL mid-computation from the
	// coordinator's point of view).
	OnDispatch func(n int)
}

// RunClusterWorker joins the coordinator at addr as worker id and serves
// dispatches until the coordinator says goodbye (returns nil), ctx is
// cancelled, or the link stays down past the reconnect budget (returns an
// error). A negative id attaches as a fresh elastic worker instead: the
// Join handshake asks the coordinator for a slot, the assigned ID arrives
// in the Welcome, and the current model rides the first dispatch — the
// coordinator must be running with MaxWorkers headroom to admit the join.
//
// The worker must construct the exact dataset and network the coordinator
// trains on (same spec, scale, and generation seed); it replays the
// coordinator's epoch shuffles from the handshake seed, so the [Lo,Hi)
// ranges in dispatched work denote the same examples in both processes.
// Each dispatch carries the serialized global parameters; the worker runs
// its gradient lanes sequentially against a local replica — with the weight
// decay and divergence guards the Welcome carries from the coordinator's
// Config — and returns the replica's delta, which the coordinator applies
// exactly once (completions are retransmitted until acked, and deduplicated
// by sequence number on the other side — a severed-and-healed link loses
// nothing).
func RunClusterWorker(ctx context.Context, addr string, id int, net *nn.Network, ds *data.Dataset, opts ClusterWorkerOptions) error {
	if net == nil || ds == nil {
		return fmt.Errorf("core: cluster worker needs a network and dataset")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := checkWireSize(net); err != nil {
		return err
	}
	c, err := transport.DialWorker(ctx, addr, id, opts.Client)
	if err != nil {
		return err
	}
	welcome := c.Welcome()

	// The shuffle replay stream: the same (seed, stream) pair the
	// coordinator's epoch reshuffles consume, fresh from epoch zero. A
	// RESUME welcome fast-forwards it to the restored epoch before the
	// first dispatch, so [Lo,Hi) ranges keep denoting the coordinator's
	// examples across its restart.
	replay := RunRNG(welcome.Seed)
	shuffled := uint32(0)
	if welcome.Shuffle && welcome.Resume {
		replayTo(ds, replay, &shuffled, welcome.ResumeEpoch)
	}

	// model — the replica a dispatch trains — starts from the dispatched
	// blob, read where it lies in the link's read buffer, and the delta is
	// built from the two straight into the Client's Done frame. The lane's
	// workspace is sized for the largest sub-batch a lane can take: the
	// handshake's LaneRows under the coordinator's lane counts, or the
	// largest batch cut into opts.Threads. So it, and the link's frame
	// buffers, cost the same whether or not a dispatch ever comes.
	model := net.NewParams(nn.InitZero, nil)
	rows := welcome.LaneRows
	if opts.Threads > 0 {
		rows = (welcome.MaxBatch + opts.Threads - 1) / opts.Threads
	}
	w := newWorker(&Config{Net: net}, c.ID(), fmt.Sprint(c.ID()), WorkerConfig{}, 1, max(rows, 1))
	c.Reserve(nn.ParamsWireSize(net))
	step := laneStep{net: net, decay: welcome.WeightDecay, guard: welcome.Guards, mode: tensor.UpdateRacy, gemm: runtime.GOMAXPROCS(0)}

	handled := 0
	handler := func(wk transport.Work) (out transport.Done) {
		defer w.recoverInto(&out)
		if opts.OnDispatch != nil {
			opts.OnDispatch(handled + 1)
		}
		var err error
		var base nn.Blob // valid for this call: it aliases the read buffer
		switch {
		case wk.Lo < 0 || wk.Hi > ds.N():
			err = fmt.Errorf("core: dispatched range [%d,%d) outside dataset of %d", wk.Lo, wk.Hi, ds.N())
		case welcome.Shuffle:
			err = replayTo(ds, replay, &shuffled, wk.Epoch)
		}
		if err == nil {
			if base, err = nn.ViewParams(model, wk.Params, wk.ParamsCRC); err != nil {
				err = fmt.Errorf("core: decoding dispatched params: %w", err)
			}
		}
		if err != nil {
			out = transport.Done{Failed: true, Err: err.Error()}
		} else {
			base.CopyTo(model)
			w.threads = opts.Threads
			if w.threads <= 0 {
				w.threads = max(wk.Lanes, 1)
			}
			out.Updates, out.Dropped = step.iterate(w, model, ds.ViewInto(&w.view, wk.Lo, wk.Hi), wk.LR, false)
		}
		if out.Updates > 0 {
			// The delta — what this dispatch changed, computed against the
			// exact parameters it started from, so the coordinator can fold
			// it into a model other workers have meanwhile advanced.
			out.Delta, out.DeltaCRC = base.AppendDiff(c.DeltaBuf(nn.ParamsWireSize(net))[:0], model)
		}
		handled++
		if opts.LeaveAfter > 0 && handled == opts.LeaveAfter {
			// The Leave frame precedes this dispatch's Done on the wire, so
			// the coordinator sees the announcement, drains the completion,
			// and retires the link with a Goodbye.
			c.Leave()
		}
		return out
	}
	return c.Run(ctx, handler)
}

// replayTo brings ds's epoch shuffles from *shuffled up to epoch, replaying
// the coordinator's shuffle stream. Epochs only advance, so replay is
// incremental; a dispatch from an epoch this worker has already shuffled
// past would silently train on the wrong permutation, so it is an error,
// and the coordinator re-dispatches the batch elsewhere.
func replayTo(ds *data.Dataset, replay *rand.Rand, shuffled *uint32, epoch uint32) error {
	if epoch < *shuffled {
		return fmt.Errorf("core: stale shuffle state: dispatch from epoch %d, worker already at %d", epoch, *shuffled)
	}
	for ; *shuffled < epoch; *shuffled++ {
		ds.Shuffle(replay)
	}
	return nil
}

// ClusterListenSlots returns the link-table size to pass to ListenTCP for
// cfg: the configured worker count, widened to the resume membership's slot
// count — a restored elastic joiner's id must map to a slot before it can
// re-handshake, and a restored departed slot must exist to be refused.
func ClusterListenSlots(cfg *Config) int {
	if st := cfg.Resume; st != nil {
		return max(len(cfg.Workers), len(st.Membership.States))
	}
	return len(cfg.Workers)
}

// ClusterTCPOptions derives the coordinator-side transport options for
// cfg: the handshake carries the run seed, shuffle flag, scheduling hints,
// weight decay and guard switch, so worker processes configure themselves
// from the wire. missLimit ≤ 0 keeps the transport default (3 missed
// heartbeats).
//
// When cfg.Resume is set, the Welcome becomes its RESUME variant (restored
// epoch + sequence floor) and the checkpoint's drained/evicted slots start
// departed, so a zombie from the previous incarnation cannot re-claim a
// retired id.
func ClusterTCPOptions(cfg *Config, heartbeat time.Duration, missLimit int) transport.TCPOptions {
	maxBatch, laneRows := 0, 0
	for _, w := range cfg.Workers {
		lanes := max(cpuThreads(w), 1) // the Work.Lanes decorate puts on w's dispatches
		maxBatch = max(maxBatch, w.MaxBatch)
		laneRows = max(laneRows, (w.MaxBatch+lanes-1)/lanes)
	}
	opts := transport.TCPOptions{
		Heartbeat: heartbeat,
		MissLimit: missLimit,
		// The link table gets the same headroom as the engine's worker
		// tables, so elastic joins are admitted up to cfg.Capacity().
		MaxWorkers: cfg.Capacity(),
		Welcome: transport.Welcome{
			Seed:        cfg.Seed,
			Shuffle:     cfg.Shuffle,
			LaneRows:    laneRows,
			MaxBatch:    maxBatch,
			WeightDecay: cfg.WeightDecay,
			Guards:      cfg.Guards,
		},
		Metrics:    cfg.Metrics,
		DeltaBytes: nn.ParamsWireSize(cfg.Net),
	}
	if st := cfg.Resume; st != nil {
		opts.Welcome.Resume = true
		opts.Welcome.ResumeEpoch = uint32(st.Epoch)
		opts.Welcome.SeqFloor = st.Membership.SeqFloor
		for id, s := range st.Membership.States {
			if s != slotActive {
				opts.Departed = append(opts.Departed, id)
			}
		}
	}
	return opts
}
