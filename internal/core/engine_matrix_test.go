package core

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"heterosgd/internal/data"
	"heterosgd/internal/faults"
	"heterosgd/internal/nn"
	"heterosgd/internal/telemetry"
	"heterosgd/internal/tensor"
	"heterosgd/internal/transport"
)

// TestAlgorithmEngineMatrix walks every algorithm name the CLIs accept
// across all three engines. Each pair must either complete a tiny run — a
// finite loss on the in-process engines, the exactly-once invariant on the
// cluster — or be rejected by the engine-support table, so a combination is
// refused by rule, never by omission, and the engine agrees with its table.
func TestAlgorithmEngineMatrix(t *testing.T) {
	engines := []struct {
		name string
		e    engine
		run  func(t *testing.T, cfg Config) (*Result, error)
	}{
		{"sim", engineSim, func(t *testing.T, cfg Config) (*Result, error) {
			// A finite loss needs no long horizon, and the simulated
			// engine is slow under the race detector.
			return RunSim(context.Background(), cfg, simHorizon/10)
		}},
		{"real", engineReal, func(t *testing.T, cfg Config) (*Result, error) {
			// The default UpdateAtomic reads the model unsynchronized by
			// design (Hogwild); locked mode keeps the matrix race-clean.
			cfg.UpdateMode = tensor.UpdateLocked
			return RunReal(context.Background(), cfg, 100*time.Millisecond)
		}},
		{"cluster", engineCluster, func(t *testing.T, cfg Config) (*Result, error) {
			if cfg.supportedOn(engineCluster) != nil {
				// Rejection precedes the attach phase; no worker needs to dial.
				return RunCluster(context.Background(), cfg, time.Second, transport.NewLocal(1), ClusterOptions{})
			}
			return clusterHarness(t, cfg.Algorithm, faults.NewLinkPlan(7), 300*time.Millisecond), nil
		}},
	}
	// check runs one configuration on one engine and holds the engine to
	// its table.
	check := func(t *testing.T, cfg Config, eng int) {
		rule := cfg.supportedOn(engines[eng].e)
		res, err := engines[eng].run(t, cfg)
		if rule != nil {
			if err == nil {
				t.Fatalf("support table rejects the pair (%v) but the engine ran it", rule)
			}
			return
		}
		if err != nil {
			t.Fatalf("support table admits the pair but the engine refused: %v", err)
		}
		if !isFinite(res.FinalLoss) {
			t.Fatalf("final loss %v", res.FinalLoss)
		}
		if engines[eng].e == engineCluster && res.Health.Transport.AppliedExamples != res.ExamplesProcessed {
			t.Fatalf("exactly-once violated: applied %d examples, scheduled %d",
				res.Health.Transport.AppliedExamples, res.ExamplesProcessed)
		}
	}
	for _, name := range AlgorithmNames() {
		alg, err := ParseAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, eng := range engines {
			t.Run(name+"/"+eng.name, func(t *testing.T) { check(t, tinyConfig(t, alg), i) })
		}
	}
	// A Config field only one engine reads is refused on the others by the
	// same table, not silently ignored.
	for i, eng := range engines {
		t.Run("stale-damping/"+eng.name, func(t *testing.T) {
			cfg := tinyConfig(t, AlgCPUGPUHogbatch)
			cfg.StaleDamping = 0.5
			if rejected := cfg.supportedOn(eng.e) != nil; rejected == (eng.e == engineSim) {
				t.Fatalf("StaleDamping rejected on %s: %v, want it on the sim only", eng.name, rejected)
			}
			check(t, cfg, i)
		})
	}
}

// TestClusterAlgorithmNames: the cluster's -alg list is exactly the
// algorithms its support table admits on their NewConfig.
func TestClusterAlgorithmNames(t *testing.T) {
	listed := ClusterAlgorithmNames()
	for _, name := range AlgorithmNames() {
		alg, err := ParseAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := tinyConfig(t, alg)
		err = cfg.supportedOn(engineCluster)
		if in := slices.Contains(listed, name); in != (err == nil) {
			t.Errorf("%s: listed=%v but the cluster support check says %v", name, in, err)
		}
	}
}

// TestDispatchShapeAcrossEngines holds every engine to the one dispatch
// shape: a CPU dispatch lands min(Threads, size) updates and any other
// device's lands one — whether or not the GPU sets DeepReplica, and on the
// cluster with the lane count left to the coordinator, as a worker started
// without -threads runs. A deep-replica CPU's lanes all read the copy taken
// at dispatch.
func TestDispatchShapeAcrossEngines(t *testing.T) {
	rows := []struct {
		name string
		alg  Algorithm
		deep bool // the GPU's DeepReplica
	}{
		{"cpu+gpu", AlgCPUGPUHogbatch, true},
		{"gpu-without-deep-replica", AlgHogbatchGPU, false},
	}
	for _, row := range rows {
		gpuDeep := func(cfg *Config) {
			for i := range cfg.Workers {
				if cpuThreads(cfg.Workers[i]) == 0 {
					cfg.Workers[i].DeepReplica = row.deep
				}
			}
		}
		t.Run(row.name+"/sim", func(t *testing.T) {
			cfg := tinyConfig(t, row.alg)
			gpuDeep(&cfg)
			cfg.Tracer = NewRunTracer(&cfg, 1<<14)
			if _, err := RunSim(context.Background(), cfg, simHorizon/10); err != nil {
				t.Fatal(err)
			}
			checkSpanShape(t, cfg)
		})
		t.Run(row.name+"/real", func(t *testing.T) {
			cfg := tinyConfig(t, row.alg)
			gpuDeep(&cfg)
			cfg.UpdateMode = tensor.UpdateLocked
			cfg.Tracer = NewRunTracer(&cfg, 1<<16)
			if _, err := RunReal(context.Background(), cfg, 100*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			checkSpanShape(t, cfg)
		})
		t.Run(row.name+"/cluster", func(t *testing.T) {
			cfg := clusterConfig(row.alg)
			gpuDeep(&cfg)
			// The handshake sizes a worker's workspace for any lane's share.
			laneRows := ClusterTCPOptions(&cfg, time.Second, 0).Welcome.LaneRows
			for _, wc := range cfg.Workers {
				if per := max(cpuThreads(wc), 1); (wc.MaxBatch+per-1)/per > laneRows {
					t.Errorf("handshake LaneRows %d < %d rows of a %d-lane share of %d", laneRows, (wc.MaxBatch+per-1)/per, per, wc.MaxBatch)
				}
			}
			received := make([]atomic.Int64, len(cfg.Workers))
			res := clusterRun(t, cfg, faults.NewLinkPlan(7), 300*time.Millisecond, func(id int, o *ClusterWorkerOptions) {
				o.Threads = 0 // the coordinator's lane count for each dispatch
				o.OnDispatch = func(n int) { received[id].Store(int64(n)) }
			})
			updates := res.Updates
			// Every batch of the tiny problem is a multiple of the CPU's four
			// lanes, so each dispatch lands exactly per updates; an abandoned
			// straggler's never count.
			abandoned := int64(res.Health.Transport.Abandoned)
			for id, wc := range cfg.Workers {
				per := int64(max(cpuThreads(wc), 1))
				n, name := received[id].Load(), res.Health.Workers[id].Worker
				if got := updates[name]; n == 0 || got%per != 0 || got > per*n || got < per*(n-abandoned) {
					t.Errorf("%s: %d updates over %d dispatches, want %d each", name, got, n, per)
				}
			}
		})
	}
	t.Run("deep-replica-cpu/real", func(t *testing.T) {
		// On one P the two lanes run one after the other, so a lane reading
		// the live model would see the other's write: the check does not
		// rest on both lanes happening to read before either writes.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		spec := tinySpec()
		ds := data.Generate(spec, 42)
		cfg := NewConfig(AlgHogbatchCPU, nn.MustNetwork(spec.Arch()), ds, Preset{CPUThreads: 2, CPUMinPerThread: 1, CPUMaxPerThread: 1, GPUMin: 64, GPUMax: 64})
		cfg.Workers[0].DeepReplica = true
		cfg.UpdateMode = tensor.UpdateLocked
		cfg.EvalSubset = 64
		x, err := newLocalExec(context.Background(), &cfg, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		x.attach(context.Background())
		defer x.shutdown()
		w0 := x.l.global.Clone()
		const lr = 0.5
		if err := x.trans.Send(0, transport.Work{Seq: 1, Lo: 0, Hi: 2, LR: lr}); err != nil {
			t.Fatal(err)
		}
		if m, st := x.trans.Recv(30 * time.Second); st != transport.RecvOK || m.Done == nil || m.Done.Updates != 2 {
			t.Fatalf("Recv = %v, %+v", st, m.Done)
		}
		// Both lanes' gradients are taken at w₀; only the order of their two
		// writes is left to the race.
		ws := cfg.Net.NewWorkspace(1)
		var g [2]*nn.Params
		for i := range g {
			g[i] = cfg.Net.NewParams(nn.InitZero, nil)
			b := ds.View(i, i+1)
			cfg.Net.GradientX(w0, ws, b.Input(), b.Y, g[i], 1)
		}
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		for _, order := range [][2]int{{0, 1}, {1, 0}} {
			want := w0.Clone()
			for _, i := range order {
				want.ApplyUpdate(cfg.UpdateMode, -lr, g[i])
			}
			if slices.EqualFunc(want.Data, x.l.global.Data, same) {
				return
			}
		}
		t.Fatal("the model is neither add order of w₀ − lr·g₁(w₀) − lr·g₂(w₀): a lane read the live model, not the dispatch-time copy")
	})
}

// checkSpanShape pairs each worker's gradient spans (the dispatch's size)
// with its apply spans (the updates that landed), dispatch by dispatch, and
// holds every pair to the shape rule.
func checkSpanShape(t *testing.T, cfg Config) {
	t.Helper()
	if n := cfg.Tracer.Dropped(); n > 0 {
		t.Fatalf("%d spans overwritten; the pairing needs every one", n)
	}
	sizes := make([][]int64, len(cfg.Workers))
	landed := make([][]int64, len(cfg.Workers))
	for _, e := range cfg.Tracer.Snapshot() {
		if e.Worker >= len(cfg.Workers) {
			continue
		}
		switch e.Kind {
		case telemetry.KindGradient:
			sizes[e.Worker] = append(sizes[e.Worker], e.Arg)
		case telemetry.KindApply:
			landed[e.Worker] = append(landed[e.Worker], e.Arg)
		}
	}
	for id, wc := range cfg.Workers {
		if len(landed[id]) == 0 || len(landed[id]) != len(sizes[id]) {
			t.Fatalf("worker %d: %d gradient spans, %d apply spans", id, len(sizes[id]), len(landed[id]))
		}
		for i, got := range landed[id] {
			want := int64(1)
			if th := cpuThreads(wc); th > 0 {
				want = min(int64(th), sizes[id][i])
			}
			if got != want {
				t.Fatalf("worker %d dispatch %d of %d examples: %d updates, want %d", id, i, sizes[id][i], got, want)
			}
		}
	}
}
