package serve_test

// Race coverage for the snapshot publish/read path: both training engines
// publish into a Publisher while concurrent readers load snapshots and run
// forward passes. Under `go test -race` this proves the RCU discipline —
// there is no mutex shared between the Hogwild writers and the inference
// readers, only the atomic pointer swap and the engine-side deep copy.
// Training runs in UpdateLocked mode, matching the repo's convention for
// race-tagged engine coverage (the lock-free modes are unsynchronized by
// design and are exercised without the detector).

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heterosgd/internal/core"
	"heterosgd/internal/data"
	"heterosgd/internal/nn"
	"heterosgd/internal/serve"
	"heterosgd/internal/tensor"
)

func raceConfig(alg core.Algorithm) (core.Config, *nn.Network) {
	spec := data.SynthSpec{
		Name: "serve-race", N: 512, Dim: 10, Classes: 2,
		Density: 1.0, Separation: 2.5, Noise: 0.5,
		HiddenLayers: 2, HiddenUnits: 16,
	}
	ds := data.Generate(spec, 42)
	net := nn.MustNetwork(spec.Arch())
	cfg := core.NewConfig(alg, net, ds, core.Preset{
		CPUThreads: 4, CPUMinPerThread: 1, CPUMaxPerThread: 8, GPUMin: 32, GPUMax: 128,
	})
	cfg.BaseLR = 0.1
	cfg.RefBatch = 4
	cfg.EvalSubset = 256
	return cfg, net
}

// spinReaders launches readers that continuously load the current snapshot
// and run a forward pass on it until stop is closed. Returns a wait func
// and a counter of successful reads.
func spinReaders(t *testing.T, pub *serve.Publisher, n int, stop <-chan struct{}) (func(), *atomic.Int64) {
	t.Helper()
	var reads atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := pub.Net().NewInferenceWorkspace(1)
			x := tensor.NewMatrix(1, pub.Net().Arch.InputDim)
			for j := 0; j < x.Cols; j++ {
				x.Set(0, j, float64(j)*0.1)
			}
			var lastVersion uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := pub.Load()
				if snap == nil {
					continue
				}
				if snap.Version < lastVersion {
					t.Errorf("snapshot version went backwards: %d after %d", snap.Version, lastVersion)
					return
				}
				lastVersion = snap.Version
				out := pub.Net().ForwardX(snap.Params, ws, nn.DenseInput(x), 1)
				if len(out.Row(0)) == 0 {
					t.Error("empty forward output")
					return
				}
				reads.Add(1)
			}
		}()
	}
	return wg.Wait, &reads
}

func TestConcurrentPublishReadRealEngine(t *testing.T) {
	cfg, net := raceConfig(core.AlgCPUGPUHogbatch)
	cfg.UpdateMode = tensor.UpdateLocked
	pub := serve.NewPublisher(net)
	cfg.SnapshotSink = pub
	cfg.SnapshotEvery = 2 * time.Millisecond

	stop := make(chan struct{})
	wait, reads := spinReaders(t, pub, 4, stop)
	res, err := core.RunReal(context.Background(), cfg, 200*time.Millisecond)
	close(stop)
	wait()
	if err != nil {
		t.Fatal(err)
	}
	if pub.Version() == 0 {
		t.Fatal("training published no snapshots")
	}
	if reads.Load() == 0 {
		t.Fatal("readers completed no forward passes")
	}
	if res.FinalLoss >= res.Trace.Points[0].Loss {
		t.Fatalf("training under concurrent serving failed to learn: %v → %v",
			res.Trace.Points[0].Loss, res.FinalLoss)
	}
}

func TestConcurrentPublishReadSimEngine(t *testing.T) {
	cfg, net := raceConfig(core.AlgHogbatchCPU)
	pub := serve.NewPublisher(net)
	cfg.SnapshotSink = pub
	cfg.SnapshotEvery = time.Millisecond // simulated time

	stop := make(chan struct{})
	wait, reads := spinReaders(t, pub, 4, stop)
	_, err := core.RunSim(context.Background(), cfg, 20*time.Millisecond)
	close(stop)
	wait()
	if err != nil {
		t.Fatal(err)
	}
	if pub.Version() == 0 {
		t.Fatal("simulation published no snapshots")
	}
	_ = reads // readers may or may not land during a fast sim run
}

func TestConcurrentBatcherDuringTraining(t *testing.T) {
	// End-to-end: live training publishing snapshots while a batcher
	// serves micro-batched predictions from concurrent clients.
	cfg, net := raceConfig(core.AlgHogbatchCPU)
	cfg.UpdateMode = tensor.UpdateLocked
	pub := serve.NewPublisher(net)
	cfg.SnapshotSink = pub
	cfg.SnapshotEvery = 5 * time.Millisecond

	b := serve.NewBatcher(pub, serve.Options{MaxBatch: 8, MaxWait: time.Millisecond, QueueCap: 64, PoolWorkers: 4})
	defer b.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r := b.Predict(serve.Instance{Indices: []int{i % 10}, Values: []float64{1}})
				switch r.Err {
				case nil:
					served.Add(1)
				case serve.ErrNoModel, serve.ErrOverloaded:
					// Expected early in the run / under load.
				default:
					t.Errorf("predict: %v", r.Err)
					return
				}
			}
		}(i)
	}
	_, err := core.RunReal(context.Background(), cfg, 200*time.Millisecond)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if served.Load() == 0 {
		t.Fatal("no predictions served during training")
	}
}

// TestConcurrentPoolPublishReload races a multi-worker adaptive pool against
// two concurrent snapshot writers: a trainer-style publisher producing fresh
// deep copies at full speed, and a SIGHUP-style reloader republishing a
// baseline checkpoint out of band (hogserve's hot-reload path minus the
// signal plumbing). Under -race this proves the pool workers share no lock
// with the RCU publish path — every worker forwards against whatever
// snapshot was current when its batch formed, and neither writer ever waits
// on a serving mutex.
func TestConcurrentPoolPublishReload(t *testing.T) {
	net := nn.MustNetwork(nn.Arch{
		InputDim: 10, Hidden: []int{16, 16}, OutputDim: 2, Activation: nn.ActSigmoid,
	})
	rng := rand.New(rand.NewPCG(31, 37))
	base := net.NewParams(nn.InitXavier, rng)
	pub := serve.NewPublisher(net)
	pub.PublishParams(base.Clone())

	b := serve.NewBatcher(pub, serve.Options{
		MaxBatch: 8, MaxWait: 200 * time.Microsecond, QueueCap: 128,
		PoolWorkers: 4, Adaptive: true,
	})
	defer b.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Trainer-style writer: a fresh private deep copy per publish.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := base.Clone()
			p.Weights[0].Set(0, 0, float64(i)) // mutate the private copy only
			pub.PublishParams(p)
		}
	}()
	// SIGHUP-style reloader: republishes the baseline checkpoint.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			pub.PublishParams(base.Clone())
			time.Sleep(time.Millisecond)
		}
	}()
	// Telemetry poller: /statsz-shaped reads concurrent with everything.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rep := b.Report()
			if rep.BatchCeiling < 1 || rep.BatchCeiling > 8 {
				t.Errorf("batch ceiling %d outside [1,8]", rep.BatchCeiling)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var served atomic.Int64
	var clients sync.WaitGroup
	for i := 0; i < 8; i++ {
		clients.Add(1)
		go func(i int) {
			defer clients.Done()
			var lastVersion uint64
			for j := 0; j < 200; j++ {
				var inst serve.Instance
				if i%2 == 0 {
					inst = serve.Instance{Indices: []int{i % 10, (i + 3) % 10}, Values: []float64{1, 0.5}}
				} else {
					inst = serve.Instance{Dense: make([]float64, 10)}
				}
				r := b.Predict(inst)
				switch r.Err {
				case nil:
					if r.Version < lastVersion {
						t.Errorf("client %d: served version went backwards: %d after %d", i, r.Version, lastVersion)
						return
					}
					lastVersion = r.Version
					served.Add(1)
				case serve.ErrOverloaded:
					// Backpressure under the flood is expected.
				default:
					t.Errorf("client %d: %v", i, r.Err)
					return
				}
			}
		}(i)
	}
	clients.Wait()
	close(stop)
	wg.Wait()

	if served.Load() == 0 {
		t.Fatal("no predictions served")
	}
	if pub.Version() < 2 {
		t.Fatalf("writers published only %d snapshots", pub.Version())
	}
}
