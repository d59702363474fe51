package serve

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"heterosgd/internal/device"
	"heterosgd/internal/nn"
	"heterosgd/internal/telemetry"
	"heterosgd/internal/tensor"
)

// Errors surfaced to clients by the batcher. ErrOverloaded maps to HTTP 429
// (admission control), ErrNoModel to 503 (nothing published yet).
var (
	ErrOverloaded = errors.New("serve: request queue full")
	ErrNoModel    = errors.New("serve: no model snapshot published yet")
	ErrClosed     = errors.New("serve: batcher closed")
)

// Instance is one prediction input: either a dense feature row (Dense set)
// or a sparse (Indices, Values) pair list. Sparse indices are 0-based and
// need not be sorted; Submit normalizes them.
type Instance struct {
	Dense   []float64
	Indices []int
	Values  []float64
}

// Sparse reports whether the instance carries sparse features.
func (in Instance) Sparse() bool { return in.Dense == nil }

// Response is the outcome of one prediction request.
type Response struct {
	// Class is the argmax prediction.
	Class int
	// Scores holds the per-class probabilities: softmax for multiclass
	// networks, per-label sigmoid for multi-label ones.
	Scores []float64
	// Version identifies the snapshot that served the request.
	Version uint64
	// BatchSize is the micro-batch the request was coalesced into.
	BatchSize int
	// Err reports a per-request failure (nil on success).
	Err error
}

// Options configures a Batcher.
type Options struct {
	// MaxBatch caps the micro-batch size; requests beyond it wait for the
	// next batch. ≤0 defaults to AutoMaxBatch on the paper's CPU model.
	MaxBatch int
	// MaxWait bounds how long the first request of a batch waits for
	// company (the latency the aggregator is willing to spend buying
	// per-example efficiency). ≤0 defaults to 500µs.
	MaxWait time.Duration
	// QueueCap bounds the admission queue; a full queue rejects with
	// ErrOverloaded (HTTP 429 backpressure). ≤0 defaults to 4×MaxBatch.
	QueueCap int
	// Workers is the intra-forward linear-algebra parallelism. ≤0
	// defaults to 1 (concurrency comes from batching, not from splitting
	// a single small forward).
	Workers int
	// PoolWorkers is the number of pool worker goroutines pulling
	// micro-batches from the shared admission queue, each owning its own
	// pre-allocated forward workspace and staging buffers. ≤0 defaults
	// to 1 (the original single-aggregator batcher).
	PoolWorkers int
	// Adaptive replaces the static MaxBatch ceiling with an
	// AdaptivePolicy controller: the live ceiling starts at 1 and moves
	// within [1, MaxBatch] from batch-fill, queue-pressure, cost-model,
	// and p99 telemetry. MaxBatch still sizes the workspaces (it is the
	// ceiling's upper clamp).
	Adaptive bool
	// Metrics, when set, resolves the batcher's stats instruments in this
	// registry, surfacing the serving series (serve_requests_total,
	// serve_latency_seconds, serve_queue_depth, serve_model_version, ...)
	// on its /metrics exposition. Nil keeps them private to /statsz.
	Metrics *telemetry.Registry
}

func (o Options) withDefaults(arch nn.Arch) Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = AutoMaxBatch(device.NewXeon("serve", 0), arch, 1024, 0.5)
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 500 * time.Microsecond
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 4 * o.MaxBatch
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.PoolWorkers <= 0 {
		o.PoolWorkers = 1
	}
	return o
}

// AutoMaxBatch sizes the micro-batch ceiling from a device's
// batch→efficiency cost model: the smallest power of two (≤ ceiling) whose
// modeled utilization reaches frac of the utilization at ceiling. On the
// paper's V100 curve (efficiency b/(b+512), Figure 7) with frac=0.5 this
// lands near the GPU's lower batch threshold; on the Xeon model it lands
// near the worker-thread count — the same thresholds training uses.
func AutoMaxBatch(dev device.Device, arch nn.Arch, ceiling int, frac float64) int {
	if ceiling < 1 {
		ceiling = 1
	}
	if frac <= 0 || frac > 1 {
		frac = 0.5
	}
	target := frac * dev.Utilization(arch, ceiling)
	for b := 1; b < ceiling; b *= 2 {
		if dev.Utilization(arch, b) >= target {
			return b
		}
	}
	return ceiling
}

// request is one queued prediction with its response channel (buffered, so
// the aggregator never blocks on a departed client).
type request struct {
	inst Instance
	enq  time.Time
	done chan Response
}

// Batcher coalesces concurrent prediction requests into micro-batched
// forward passes against the publisher's current snapshot. A pool of worker
// goroutines pulls from the shared admission queue; each worker owns its
// inference workspace and staging buffers, so the forward hot path allocates
// nothing per request. Stats are pool-global: admission accounting and the
// serve_* series describe the whole pool, not any one worker.
type Batcher struct {
	pub   *Publisher
	opts  Options
	stats *Stats

	queue chan *request
	stop  chan struct{}
	wg    sync.WaitGroup

	mu     sync.RWMutex // guards Submit against Close's final drain
	closed atomic.Bool

	// batchCeil is the live micro-batch ceiling: opts.MaxBatch when
	// static, the adaptive policy's current ceiling otherwise. Workers
	// load it at batch-formation time; the controller stores it.
	batchCeil atomic.Int64

	// policyMu serializes the adaptive controller; workers funnel one
	// observation per served batch through it. It is worker↔worker only —
	// the RCU publish path never touches it.
	policyMu sync.Mutex
	policy   *AdaptivePolicy
	prevLat  [telemetry.NumBuckets]int64
}

// poolWorker is one pool goroutine's private serving scratch: a forward
// workspace plus dense and CSR staging reused batch after batch. Nothing
// here is shared — the pool scales by adding workers, not by locking.
type poolWorker struct {
	b     *Batcher
	ws    *nn.Workspace
	dense *tensor.Matrix
	view  tensor.Matrix // reusable dense staging view header
	csr   tensor.CSR    // reusable all-sparse staging buffers
}

// NewBatcher starts a batcher serving snapshots from pub.
func NewBatcher(pub *Publisher, opts Options) *Batcher {
	arch := pub.Net().Arch
	opts = opts.withDefaults(arch)
	b := &Batcher{
		pub:   pub,
		opts:  opts,
		stats: NewStatsIn(opts.Metrics),
		queue: make(chan *request, opts.QueueCap),
		stop:  make(chan struct{}),
	}
	if opts.Adaptive {
		// The efficiency model sees the forward's actual parallelism: one
		// worker thread unless Options.Workers splits the GEMMs, so batch
		// saturation is judged per serving thread, not per training fleet.
		b.policy = NewAdaptivePolicy(PolicyConfig{
			Min:  1,
			Max:  opts.MaxBatch,
			Dev:  device.NewXeon("serve", opts.Workers),
			Arch: arch,
		})
		b.batchCeil.Store(int64(b.policy.Ceiling()))
	} else {
		b.batchCeil.Store(int64(opts.MaxBatch))
	}
	if opts.Metrics != nil {
		opts.Metrics.GaugeFunc("serve_queue_depth", func() float64 { return float64(b.QueueDepth()) })
		opts.Metrics.GaugeFunc("serve_model_version", func() float64 { return float64(pub.Version()) })
		opts.Metrics.GaugeFunc("serve_pool_workers", func() float64 { return float64(opts.PoolWorkers) })
		opts.Metrics.GaugeFunc("serve_batch_ceiling", func() float64 { return float64(b.BatchCeiling()) })
	}
	for i := 0; i < opts.PoolWorkers; i++ {
		w := b.newPoolWorker()
		b.wg.Add(1)
		go b.runWorker(w)
	}
	return b
}

// newPoolWorker allocates one worker's private scratch up front so the
// serving loop never allocates per request.
func (b *Batcher) newPoolWorker() *poolWorker {
	net := b.pub.Net()
	w := &poolWorker{
		b:     b,
		dense: tensor.NewMatrix(b.opts.MaxBatch, net.Arch.InputDim),
		ws:    net.NewInferenceWorkspace(b.opts.MaxBatch),
	}
	w.csr.RowPtr = make([]int, 1, b.opts.MaxBatch+1)
	return w
}

// Options returns the batcher's resolved configuration.
func (b *Batcher) Options() Options { return b.opts }

// Stats returns the batcher's telemetry accumulator.
func (b *Batcher) Stats() *Stats { return b.stats }

// QueueDepth returns the number of requests waiting for a batch.
func (b *Batcher) QueueDepth() int { return len(b.queue) }

// BatchCeiling returns the live micro-batch ceiling (MaxBatch when the
// adaptive controller is off).
func (b *Batcher) BatchCeiling() int { return int(b.batchCeil.Load()) }

// Report summarizes current serving telemetry.
func (b *Batcher) Report() Report {
	r := b.stats.Snapshot(b.QueueDepth(), b.pub.Version())
	r.PoolWorkers = b.opts.PoolWorkers
	r.BatchCeiling = b.BatchCeiling()
	return r
}

// Submit validates and enqueues one request, returning the channel its
// Response will arrive on. It never blocks: a full queue returns
// ErrOverloaded immediately (admission control).
func (b *Batcher) Submit(inst Instance) (<-chan Response, error) {
	norm, err := b.normalize(inst)
	if err != nil {
		b.stats.RecordError()
		return nil, err
	}
	r := &request{inst: norm, enq: time.Now(), done: make(chan Response, 1)}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed.Load() {
		b.stats.RecordReject()
		return nil, ErrClosed
	}
	select {
	case b.queue <- r:
		b.stats.RecordAdmit()
		return r.done, nil
	default:
		b.stats.RecordReject()
		return nil, ErrOverloaded
	}
}

// Predict submits one request and waits for its response. Submission
// failures (overload, closed, bad input) come back in Response.Err.
func (b *Batcher) Predict(inst Instance) Response {
	ch, err := b.Submit(inst)
	if err != nil {
		return Response{Err: err}
	}
	return <-ch
}

// normalize validates an instance against the network's input dimension and
// sorts/dedupes sparse pairs (last duplicate wins, matching the LIBSVM
// reader's dense-scatter semantics).
func (b *Batcher) normalize(inst Instance) (Instance, error) {
	dim := b.pub.Net().Arch.InputDim
	if !inst.Sparse() {
		if len(inst.Dense) != dim {
			return inst, fmt.Errorf("serve: instance has %d features, model expects %d", len(inst.Dense), dim)
		}
		return inst, nil
	}
	if len(inst.Indices) != len(inst.Values) {
		return inst, fmt.Errorf("serve: %d indices vs %d values", len(inst.Indices), len(inst.Values))
	}
	for _, idx := range inst.Indices {
		if idx < 0 || idx >= dim {
			return inst, fmt.Errorf("serve: feature index %d outside [0,%d)", idx, dim)
		}
	}
	if !sort.IntsAreSorted(inst.Indices) || hasDup(inst.Indices) {
		idx := append([]int(nil), inst.Indices...)
		val := append([]float64(nil), inst.Values...)
		order := make([]int, len(idx))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, c int) bool { return idx[order[a]] < idx[order[c]] })
		outI := idx[:0]
		outV := val[:0]
		for _, k := range order {
			i, v := inst.Indices[k], inst.Values[k]
			if n := len(outI); n > 0 && outI[n-1] == i {
				outV[n-1] = v
				continue
			}
			outI = append(outI, i)
			outV = append(outV, v)
		}
		inst.Indices, inst.Values = outI, outV
	}
	return inst, nil
}

func hasDup(sorted []int) bool {
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return true
		}
	}
	return false
}

// Close stops the aggregator and fails any still-queued requests with
// ErrClosed. Safe to call more than once.
func (b *Batcher) Close() {
	if b.closed.Swap(true) {
		return
	}
	close(b.stop)
	b.wg.Wait()
	// No Submit can enqueue after this barrier: Submit holds the read
	// lock across its closed-check and enqueue.
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		select {
		case r := <-b.queue:
			r.done <- Response{Err: ErrClosed}
		default:
			return
		}
	}
}

// runWorker is one pool worker's loop: take one request, wait up to MaxWait
// for up to ceiling-1 more, then serve them all with a single forward pass
// on this worker's private workspace.
func (b *Batcher) runWorker(w *poolWorker) {
	defer b.wg.Done()
	reqs := make([]*request, 0, b.opts.MaxBatch)
	for {
		var first *request
		select {
		case <-b.stop:
			return
		case first = <-b.queue:
		}
		ceil := int(b.batchCeil.Load())
		reqs = append(reqs[:0], first)
		if ceil > 1 {
			timer := time.NewTimer(b.opts.MaxWait)
		collect:
			for len(reqs) < ceil {
				select {
				case r := <-b.queue:
					reqs = append(reqs, r)
				case <-timer.C:
					break collect
				case <-b.stop:
					break collect
				}
			}
			timer.Stop()
		}
		w.serveBatch(reqs)
		b.observe(len(reqs))
	}
}

// observe feeds one served batch to the adaptive controller and applies any
// ceiling change. The controller's decision windows advance by batch count;
// the window's p99 comes from the latency histogram delta since the last
// window, so the policy sees tail latency of this window only.
func (b *Batcher) observe(n int) {
	if b.policy == nil {
		return
	}
	b.policyMu.Lock()
	defer b.policyMu.Unlock()
	if !b.policy.Observe(n, len(b.queue)) {
		return
	}
	cur := b.stats.lat.Counts()
	p99 := deltaQuantile(&b.prevLat, &cur, 0.99)
	b.prevLat = cur
	if ceil, changed := b.policy.Decide(p99); changed {
		b.batchCeil.Store(int64(ceil))
		b.stats.RecordPolicyChange()
	}
}

// serveBatch assembles the coalesced requests into one dense or CSR batch,
// runs a single forward pass on the current snapshot, and answers every
// request. The input stays sparse only when every instance is sparse — one
// dense row would force densifying anyway. All staging reuses the worker's
// buffers; the only heap allocation is the batch's shared score backing.
func (w *poolWorker) serveBatch(reqs []*request) {
	b := w.b
	snap := b.pub.Load()
	if snap == nil {
		for _, r := range reqs {
			b.stats.RecordError()
			r.done <- Response{Err: ErrNoModel}
		}
		return
	}
	n := len(reqs)
	allSparse := true
	for _, r := range reqs {
		if !r.inst.Sparse() {
			allSparse = false
			break
		}
	}
	var input nn.Input
	if allSparse {
		w.csr.Rows, w.csr.Cols = n, snap.Net.Arch.InputDim
		w.csr.RowPtr = w.csr.RowPtr[:1]
		w.csr.ColIdx = w.csr.ColIdx[:0]
		w.csr.Val = w.csr.Val[:0]
		for _, r := range reqs {
			w.csr.ColIdx = append(w.csr.ColIdx, r.inst.Indices...)
			w.csr.Val = append(w.csr.Val, r.inst.Values...)
			w.csr.RowPtr = append(w.csr.RowPtr, len(w.csr.ColIdx))
		}
		input = nn.SparseInput(&w.csr)
	} else {
		x := w.dense.RowViewInto(&w.view, 0, n)
		x.Zero()
		for i, r := range reqs {
			if r.inst.Sparse() {
				row := x.Row(i)
				for k, idx := range r.inst.Indices {
					row[idx] = r.inst.Values[k]
				}
			} else {
				copy(x.Row(i), r.inst.Dense)
			}
		}
		input = nn.DenseInput(x)
	}
	logits := snap.Net.ForwardX(snap.Params, w.ws, input, b.opts.Workers)
	multiLabel := snap.Net.Arch.MultiLabel
	b.stats.RecordBatch(n)
	backing := make([]float64, n*logits.Cols) // one allocation for the batch's score slices
	for i, r := range reqs {
		row := logits.Row(i)
		scores := backing[i*logits.Cols : (i+1)*logits.Cols : (i+1)*logits.Cols]
		if multiLabel {
			copy(scores, row)
			tensor.SigmoidSlice(scores)
		} else {
			softmaxInto(row, scores)
		}
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		r.done <- Response{Class: best, Scores: scores, Version: snap.Version, BatchSize: n}
		b.stats.RecordLatency(time.Since(r.enq))
	}
}

// softmaxInto writes the softmax of logits into out (numerically stabilized
// by max subtraction).
func softmaxInto(logits, out []float64) {
	maxV := logits[0]
	for _, v := range logits[1:] {
		if v > maxV {
			maxV = v
		}
	}
	sum := 0.0
	for j, v := range logits {
		e := math.Exp(v - maxV)
		out[j] = e
		sum += e
	}
	if sum > 0 {
		inv := 1 / sum
		for j := range out {
			out[j] *= inv
		}
	}
}
