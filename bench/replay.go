package main

import (
	"bytes"
	"runtime"
	"time"

	"heterosgd/internal/checkpoint"
	"heterosgd/internal/core"
	"heterosgd/internal/data"
	"heterosgd/internal/msgq"
	"heterosgd/internal/nn"
	"heterosgd/internal/opt"
	"heterosgd/internal/tensor"
	"heterosgd/internal/transport"
)

// replayer times a layer's public functions directly, at the shapes the
// workload ran them at. Each call is a span under one "bench:replay" span.
type replayer struct {
	rc     *runCtx
	parent int
	slice  time.Duration
}

func newReplayer(rc *runCtx) *replayer {
	// A hundredth of the run per function: about 35 functions replay, and
	// together they must fit the fifth of the run kept for them.
	return &replayer{rc: rc, parent: rc.rec.begin("bench:replay", rc.root), slice: rc.seconds / 100}
}

func (r *replayer) done() { r.rc.rec.end(r.parent) }

// time returns fn's median call time over up to 20 calls: it stops early
// once the slice is spent and three calls are in. The first call warms
// caches and is discarded, unless it alone exhausts the slice.
func (r *replayer) time(name string, fn func()) time.Duration {
	var calls []float64
	begin := time.Now()
	for i := 0; i <= 20; i++ {
		id := r.rc.rec.begin(name, r.parent)
		t0 := time.Now()
		fn()
		dt := time.Since(t0)
		r.rc.rec.end(id)
		if i > 0 || dt > r.slice {
			calls = append(calls, float64(dt))
		}
		if len(calls) >= 3 && time.Since(begin) > r.slice {
			break
		}
	}
	return time.Duration(median(calls))
}

// replayLayers times every layer a training workload touches, at the
// environment's replay shapes and on the model the windows left behind.
func replayLayers(rc *runCtx, env *trainEnv) {
	r := newReplayer(rc)
	defer r.done()
	cfg := &env.cfg
	net, ds := cfg.Net, cfg.Dataset
	params := cfg.InitialParams
	if params == nil {
		params = net.NewParams(nn.InitXavier, core.RunRNG(cfg.Seed))
	}
	procs := runtime.GOMAXPROCS(0)
	batchRows := max(env.gpuRows, env.cpuRows)

	r.gemm(net, batchRows)
	r.gradient(net, ds, params, env.cpuRows, env.gpuRows, procs)
	if ds.Sparse() {
		r.sparse(net, ds, params, batchRows, procs)
	}

	evalN := min(max(cfg.EvalSubset, 1), ds.N())
	evalWS := net.NewWorkspace(evalN)
	eval := ds.View(0, evalN)
	rc.set("nn.loss_eval_ms", ms(r.time("nn:LossX", func() { net.LossX(params, evalWS, eval.Input(), eval.Y, procs) })))
	rc.set("nn.params_clone_us", us(r.time("nn:CloneAtomic", func() { params.CloneAtomic() })))
	rc.set("nn.params_bytes", float64(params.SizeBytes()))

	grad := net.NewParams(nn.InitZero, nil)
	scratch := params.Clone()
	rc.set("nn.params_apply_us", us(r.time("nn:ApplyUpdate", func() { scratch.ApplyUpdate(tensor.UpdateAtomic, -1e-9, grad) })))
	w := scratch.Weights[len(scratch.Weights)/2]
	dt := r.time("tensor:ApplyUpdate", func() { tensor.ApplyUpdate(tensor.UpdateAtomic, w, -1e-9, grad.Weights[len(grad.Weights)/2]) })
	// Computed, not measured, bytes: read dst, read src, write dst.
	rc.set("tensor.apply_update_gb_per_s", float64(3*8*len(w.Data))/dt.Seconds()/1e9)

	sgd := opt.New(opt.KindSGD, params, opt.HyperParams{})
	delta := net.NewParams(nn.InitZero, nil)
	rc.set("opt.step_us", us(r.time("opt:Step", func() { sgd.Step(grad, delta, 0.01) })))

	const views = 1000
	dt = r.time("data:View", func() {
		for i := 0; i < views; i++ {
			lo := (i * 7) % (ds.N() - batchRows)
			_ = ds.View(lo, lo+batchRows).Input()
		}
	})
	rc.set("data.view_ns", float64(dt)/views)
	shuffleRNG := core.RunRNG(cfg.Seed)
	rc.set("data.shuffle_ms", ms(r.time("data:Shuffle", func() { ds.Shuffle(shuffleRNG) })))

	r.queue()
	if env.link != nil {
		r.wire(net, params)
	}
}

// gemm times ParallelGemm in the three transpose forms nn's forward,
// backward and weight-gradient passes use, on the widest hidden layer.
func (r *replayer) gemm(net *nn.Network, rows int) {
	dims := net.Arch.LayerDims()
	k, n := dims[1], dims[min(2, len(dims)-1)]
	procs := runtime.GOMAXPROCS(0)
	forms := func(b, workers int) (fwd, bwd, wgrad time.Duration) {
		in, wt := randMatrix(b, k), randMatrix(n, k)
		out, deltaM := tensor.NewMatrix(b, n), randMatrix(b, n)
		prev, gw := tensor.NewMatrix(b, k), tensor.NewMatrix(n, k)
		fwd = r.time("tensor:ParallelGemm.fwd", func() { tensor.ParallelGemm(false, true, 1, in, wt, 0, out, workers) })
		bwd = r.time("tensor:ParallelGemm.bwd", func() { tensor.ParallelGemm(false, false, 1, deltaM, wt, 0, prev, workers) })
		wgrad = r.time("tensor:ParallelGemm.wgrad", func() { tensor.ParallelGemm(true, false, 1/float64(b), deltaM, in, 0, gw, workers) })
		return
	}
	flops := 2 * float64(rows) * float64(k) * float64(n)
	fwd, bwd, wgrad := forms(rows, procs)
	r.rc.set("tensor.gemm_fwd_gflops", flops/fwd.Seconds()/1e9)
	r.rc.set("tensor.gemm_bwd_gflops", flops/bwd.Seconds()/1e9)
	r.rc.set("tensor.gemm_wgrad_gflops", flops/wgrad.Seconds()/1e9)
	fwd, bwd, wgrad = forms(1, 1)
	r.rc.set("tensor.gemm_b1_us", us(fwd+bwd+wgrad))
}

// gradient times GradientX at the CPU per-thread and the GPU batch shape,
// and counts what one CPU-shape call allocates.
func (r *replayer) gradient(net *nn.Network, ds *data.Dataset, params *nn.Params, cpuRows, gpuRows, procs int) {
	grad := net.NewParams(nn.InitZero, nil)
	at := func(rows, workers int, name string) {
		if rows == 0 {
			return
		}
		rows = min(rows, ds.N())
		ws := net.NewWorkspace(rows)
		b := ds.View(0, rows)
		dt := r.time("nn:GradientX", func() { net.GradientX(params, ws, b.Input(), b.Y, grad, workers) })
		r.rc.set(name, us(dt)/float64(rows))
	}
	at(cpuRows, 1, "nn.grad_us_per_ex.cpu_batch")
	at(gpuRows, procs, "nn.grad_us_per_ex.gpu_batch")

	rows := min(max(cpuRows, 1), ds.N())
	ws := net.NewWorkspace(rows)
	b := ds.View(0, rows)
	const calls = 50
	mem := measureMem(func() {
		for i := 0; i < calls; i++ {
			net.GradientX(params, ws, b.Input(), b.Y, grad, 1)
		}
	})
	r.rc.set("nn.grad_alloc_bytes", float64(mem.allocBytes)/calls)
	r.rc.set("nn.grad_allocs", float64(mem.mallocs)/calls)
}

// sparse times the CSR first-layer kernels on a batch of the dataset's own
// rows and the column-restricted update its gradient produces.
func (r *replayer) sparse(net *nn.Network, ds *data.Dataset, params *nn.Params, rows, procs int) {
	rows = min(rows, ds.N())
	xs := ds.View(0, rows).XS
	w0 := params.Weights[0]
	out := tensor.NewMatrix(rows, w0.Rows)
	nnzWork := float64(xs.NNZ()) * float64(w0.Rows) // multiply-adds per call, in nnz × hidden units
	dt := r.time("tensor:SpMM", func() { tensor.SpMM(true, 1, xs, w0, 0, out, procs) })
	r.rc.set("tensor.spmm_mnnz_per_s", nnzWork/dt.Seconds()/1e6)
	deltaM, gw := randMatrix(rows, w0.Rows), tensor.NewMatrix(w0.Rows, w0.Cols)
	dt = r.time("tensor:SpMMT", func() { tensor.SpMMT(1/float64(rows), xs, deltaM, 1, gw, procs) })
	r.rc.set("tensor.spmmt_mnnz_per_s", nnzWork/dt.Seconds()/1e6)

	cols := xs.ActiveColumns(make([]bool, w0.Cols), nil)
	dst := w0.Clone()
	dt = r.time("tensor:ApplyUpdateCols", func() { tensor.ApplyUpdateCols(tensor.UpdateAtomic, dst, -1e-9, gw, cols) })
	// Computed bytes: read dst, read src, write dst, over the active columns.
	r.rc.set("tensor.apply_cols_gb_per_s", float64(3*8*w0.Rows*len(cols))/dt.Seconds()/1e9)
}

// queue times the message queue: a same-goroutine push+pop pair, and the
// hand-off to a goroutine blocked in PopWait.
func (r *replayer) queue() {
	const pairs = 1000
	q := msgq.New[int]()
	dt := r.time("msgq:Push+Pop", func() {
		for i := 0; i < pairs; i++ {
			q.Push(i)
			q.Pop()
		}
	})
	r.rc.set("msgq.push_pop_ns", float64(dt)/pairs)

	work, ack := msgq.New[time.Time](), msgq.New[time.Duration]()
	go func() {
		for {
			sent, st := work.PopWait(time.Second)
			if st != msgq.PopOK {
				return
			}
			ack.Push(time.Since(sent))
		}
	}()
	var handoffs []float64
	for i := 0; i < 200; i++ {
		id := r.rc.rec.begin("msgq:PopWait hand-off", r.parent)
		work.Push(time.Now())
		d, _ := ack.Pop()
		r.rc.rec.end(id)
		handoffs = append(handoffs, float64(d))
	}
	work.Close()
	r.rc.set("msgq.handoff_us", us(time.Duration(median(handoffs))))
}

// wire times what the cluster protocol does to the model on every dispatch:
// parameter serialisation, message encode/decode, frame write+read.
func (r *replayer) wire(net *nn.Network, params *nn.Params) {
	var buf bytes.Buffer
	r.rc.set("nn.write_params_ms", ms(r.time("nn:WriteParams", func() {
		buf.Reset()
		_ = nn.WriteParams(&buf, params) // bytes.Buffer writes cannot fail
	})))
	blob := append([]byte(nil), buf.Bytes()...)
	r.rc.set("nn.read_params_ms", ms(r.time("nn:ReadParams", func() {
		if _, err := nn.ReadParams(bytes.NewReader(blob), net); err != nil {
			r.rc.check(false, "ReadParams of WriteParams output: %v", err)
		}
	})))

	work := transport.Work{Seq: 1, Lo: 0, Hi: clusterBatch, LR: 0.01, Params: blob}
	var enc []byte
	r.rc.set("transport.encode_work_us", us(r.time("transport:EncodeWork", func() { enc = transport.EncodeWork(work) })))
	r.rc.set("transport.decode_work_us", us(r.time("transport:DecodeWork", func() {
		if _, err := transport.DecodeWork(enc); err != nil {
			r.rc.check(false, "DecodeWork of EncodeWork output: %v", err)
		}
	})))
	done := transport.Done{Worker: 1, Seq: 1, Updates: 1, Delta: blob}
	var encDone []byte
	r.rc.set("transport.encode_done_us", us(r.time("transport:EncodeDone", func() { encDone = transport.EncodeDone(done) })))
	r.rc.set("transport.decode_done_us", us(r.time("transport:DecodeDone", func() {
		if _, err := transport.DecodeDone(encDone); err != nil {
			r.rc.check(false, "DecodeDone of EncodeDone output: %v", err)
		}
	})))
	r.rc.set("transport.frame_rw_us", us(r.time("transport:WriteFrame+ReadFrame", func() {
		buf.Reset()
		if err := transport.WriteFrame(&buf, transport.KindWork, enc); err != nil {
			r.rc.check(false, "WriteFrame: %v", err)
		}
		if _, _, err := transport.ReadFrame(&buf); err != nil {
			r.rc.check(false, "ReadFrame of WriteFrame output: %v", err)
		}
	})))
}

// replayServing times the serving path's forward pass at batch 1 and at the
// batch ceiling, and the SIMD kernel under it.
func replayServing(rc *runCtx, env *serveEnv) {
	r := newReplayer(rc)
	defer r.done()
	net := env.train.cfg.Net
	params := env.sink.pub.Load().Params
	ws := net.NewServingWorkspace(serveMaxBatch)
	for _, b := range []struct {
		rows int
		name string
	}{{1, "nn.forward_us_per_ex.b1"}, {serveMaxBatch, "nn.forward_us_per_ex.b64"}} {
		x := nn.DenseInput(env.requests.RowView(0, b.rows))
		dt := r.time("nn:ForwardX", func() { net.ForwardX(params, ws, x, 1) })
		rc.set(b.name, us(dt)/float64(b.rows))
	}
	dims := net.Arch.LayerDims()
	k, n := dims[1], dims[2]
	in, wt, out := randMatrix(serveMaxBatch, k), randMatrix(n, k), tensor.NewMatrix(serveMaxBatch, n)
	dt := r.time("tensor:FastGemmTB", func() { tensor.FastGemmTB(1, in, wt, 0, out, 1) })
	rc.set("tensor.fastgemm_gflops", 2*float64(serveMaxBatch)*float64(k)*float64(n)/dt.Seconds()/1e9)
	rc.set("nn.params_bytes", float64(params.SizeBytes()))
	rc.set("nn.params_clone_us", us(r.time("nn:CloneAtomic", func() { params.CloneAtomic() })))
}

// randMatrix returns a rows×cols matrix of fixed pseudo-random values: the
// kernels' speed does not depend on the values, only on their being normal
// finite numbers.
func randMatrix(rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	m.Randomize(core.RunRNG(7), 1)
	return m
}

// timingCheckpointSink is a CheckpointSink that serialises each RunState
// with checkpoint.Write into a counting writer, timing the call: what a
// checkpoint costs the coordinator, without a disk in the measurement.
type timingCheckpointSink struct {
	rec    *recorder
	parent int
	times  []float64 // ms per write
	bytes  int64     // largest checkpoint seen
}

func (s *timingCheckpointSink) WriteState(st *core.RunState) error {
	var n countingWriter
	id := s.rec.begin("checkpoint:Write", s.parent)
	t0 := time.Now()
	err := checkpoint.Write(&n, st)
	s.times = append(s.times, ms(time.Since(t0)))
	s.rec.end(id)
	s.bytes = max(s.bytes, int64(n))
	return err
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
