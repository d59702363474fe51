package serve

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"heterosgd/internal/device"
	"heterosgd/internal/nn"
	"heterosgd/internal/tensor"
)

func testNet(t *testing.T) (*nn.Network, *nn.Params) {
	t.Helper()
	net := nn.MustNetwork(nn.Arch{
		InputDim: 6, Hidden: []int{8}, OutputDim: 3, Activation: nn.ActSigmoid,
	})
	params := net.NewParams(nn.InitXavier, rand.New(rand.NewPCG(7, 7)))
	return net, params
}

func TestPublisherRCUSemantics(t *testing.T) {
	net, params := testNet(t)
	pub := NewPublisher(net)
	if pub.Load() != nil || pub.Version() != 0 {
		t.Fatal("publisher not empty before first publish")
	}
	pub.PublishParams(params.Clone())
	first := pub.Load()
	if first == nil || first.Version != 1 {
		t.Fatalf("first snapshot version = %v", first)
	}
	pub.PublishParams(params.Clone())
	second := pub.Load()
	if second.Version != 2 || pub.Version() != 2 {
		t.Fatalf("second snapshot version = %d", second.Version)
	}
	// RCU: the old snapshot a reader holds stays valid after the swap.
	if first.Params == second.Params || first.Version != 1 {
		t.Fatal("old snapshot mutated by publish")
	}
}

// TestPublisherVersionsNeverGoBackwards: publishers racing each other (a
// trainer and a reload) while readers watch — no reader ever sees the
// served version decrease, and the final version equals the number of
// publishes. Each publisher also reads after every publish of its own, so a
// publish stored behind a newer one is seen at once.
func TestPublisherVersionsNeverGoBackwards(t *testing.T) {
	net, params := testNet(t)
	pub := NewPublisher(net)
	const publishers, each = 8, 4000
	// watch loads the current snapshot and reports whether its version is
	// at least *last, which it then advances.
	watch := func(last *uint64) bool {
		s := pub.Load()
		if s == nil {
			return true
		}
		if s.Version < *last {
			t.Errorf("served version went backwards: %d after %d", s.Version, *last)
			return false
		}
		*last = s.Version
		return true
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !watch(&last) {
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < publishers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for j := 0; j < each; j++ {
				pub.PublishParams(params)
				if !watch(&last) {
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if got := pub.Version(); got != publishers*each {
		t.Fatalf("version %d after %d publishes", got, publishers*each)
	}
}

// TestBatcherMatchesDirectForward: served predictions are the network's own
// forward. Serving runs training's forward kernels, so every response's
// scores equal, bit for bit, the softmax (or per-label sigmoid) of a one-row
// ForwardX on an inference workspace, whatever batch the request was
// coalesced into, its row in that batch, and whether the batch went through
// the dense or the sparse first layer.
func TestBatcherMatchesDirectForward(t *testing.T) {
	net, params := testNet(t)
	pub := NewPublisher(net)
	pub.PublishParams(params)
	b := NewBatcher(pub, Options{MaxBatch: 4, MaxWait: time.Millisecond})
	defer b.Close()

	x := tensor.NewMatrix(1, 6)
	for j := 0; j < 6; j++ {
		x.Set(0, j, float64(j)*0.3-0.7)
	}
	ws := net.NewWorkspace(1)
	want := net.PredictX(params, ws, nn.DenseInput(x), 1)[0]

	dense := b.Predict(Instance{Dense: append([]float64(nil), x.Row(0)...)})
	if dense.Err != nil || dense.Class != want {
		t.Fatalf("dense predict = (%d, %v), want class %d", dense.Class, dense.Err, want)
	}
	if len(dense.Scores) != 3 {
		t.Fatalf("got %d scores", len(dense.Scores))
	}
	sum := 0.0
	for _, s := range dense.Scores {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("softmax scores sum to %v", sum)
	}

	// The same row as sparse pairs — deliberately unsorted with a duplicate
	// (last wins) — must produce the identical prediction.
	sparse := b.Predict(Instance{
		Indices: []int{5, 1, 0, 3, 2, 4, 0},
		Values:  []float64{x.At(0, 5), x.At(0, 1), 99, x.At(0, 3), x.At(0, 2), x.At(0, 4), x.At(0, 0)},
	})
	if sparse.Err != nil || sparse.Class != want {
		t.Fatalf("sparse predict = (%d, %v), want class %d", sparse.Class, sparse.Err, want)
	}
	for j := range dense.Scores {
		if math.Abs(dense.Scores[j]-sparse.Scores[j]) > 1e-12 {
			t.Fatalf("score %d: dense %v vs sparse %v", j, dense.Scores[j], sparse.Scores[j])
		}
	}

	// Every layer of the last two nets has at least 8 inputs; the last is
	// multi-label. Rounds of 1–9 and 16 requests, submitted together, land
	// in batches of every size mod 4 and mod 8.
	for _, arch := range []nn.Arch{
		net.Arch,
		{InputDim: 24, Hidden: []int{32, 32}, OutputDim: 3, Activation: nn.ActSigmoid},
		{InputDim: 16, Hidden: []int{24, 24}, OutputDim: 5, Activation: nn.ActReLU, MultiLabel: true},
	} {
		net := nn.MustNetwork(arch)
		params := net.NewParams(nn.InitXavier, rand.New(rand.NewPCG(3, 5)))
		pub := NewPublisher(net)
		pub.PublishParams(params)
		b := NewBatcher(pub, Options{MaxBatch: 16, MaxWait: 10 * time.Millisecond, QueueCap: 16})
		ws := net.NewInferenceWorkspace(1)
		rng := rand.New(rand.NewPCG(7, 9))
		dim := arch.InputDim
		served, differ := 0, 0
		for _, mix := range []string{"dense", "sparse", "mixed"} {
			for _, size := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16} {
				insts := make([]Instance, size)
				chans := make([]<-chan Response, size)
				for i := range insts {
					if mix == "dense" || mix == "mixed" && i%2 == 0 {
						insts[i].Dense = make([]float64, dim)
						for j := range insts[i].Dense {
							insts[i].Dense[j] = rng.Float64()*2 - 1
						}
					} else {
						for j := i % 3; j < dim; j += 3 {
							insts[i].Indices = append(insts[i].Indices, j)
							insts[i].Values = append(insts[i].Values, rng.Float64()*2-1)
						}
					}
					ch, err := b.Submit(insts[i])
					if err != nil {
						t.Fatalf("%v %s round of %d: submit: %v", arch, mix, size, err)
					}
					chans[i] = ch
				}
				for i, ch := range chans {
					r := <-ch
					if r.Err != nil {
						t.Fatalf("%v %s round of %d: %v", arch, mix, size, r.Err)
					}
					x := tensor.NewMatrix(1, dim)
					copy(x.Row(0), insts[i].Dense)
					for k, idx := range insts[i].Indices {
						x.Set(0, idx, insts[i].Values[k])
					}
					logits := net.ForwardX(params, ws, nn.DenseInput(x), 1).Row(0)
					want := make([]float64, len(logits))
					if arch.MultiLabel {
						copy(want, logits)
						tensor.SigmoidSlice(want)
					} else {
						softmaxInto(logits, want)
					}
					served++
					for j := range want {
						if math.Float64bits(r.Scores[j]) != math.Float64bits(want[j]) {
							differ++
							if differ <= 3 {
								t.Errorf("%v %s round of %d, request %d in a batch of %d: score %d = %v, ForwardX gives %v",
									arch, mix, size, i, r.BatchSize, j, r.Scores[j], want[j])
							}
							break
						}
					}
				}
			}
		}
		b.Close()
		if differ > 0 {
			t.Errorf("%v: %d of %d responses differ from ForwardX in at least one bit", arch, differ, served)
		}
	}
}

func TestBatcherCoalescesConcurrentRequests(t *testing.T) {
	net, params := testNet(t)
	pub := NewPublisher(net)
	pub.PublishParams(params)
	const clients = 16
	b := NewBatcher(pub, Options{MaxBatch: clients, MaxWait: 50 * time.Millisecond, QueueCap: clients})
	defer b.Close()

	var wg sync.WaitGroup
	results := make([]Response, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = b.Predict(Instance{Indices: []int{i % 6}, Values: []float64{1}})
		}(i)
	}
	wg.Wait()
	maxBatch := 0
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("client %d: %v", i, r.Err)
		}
		if r.BatchSize > maxBatch {
			maxBatch = r.BatchSize
		}
	}
	if maxBatch < 2 {
		t.Fatalf("no coalescing: max batch size %d across %d concurrent clients", maxBatch, clients)
	}
	rep := b.Report()
	if rep.Requests != clients || rep.MeanBatch <= 1 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestBatcherAdmissionControl(t *testing.T) {
	// White-box: no aggregator goroutine, so the queue fills deterministically.
	net, params := testNet(t)
	pub := NewPublisher(net)
	pub.PublishParams(params)
	b := &Batcher{pub: pub, opts: Options{MaxBatch: 4}.withDefaults(net.Arch), stats: NewStatsIn(nil), queue: make(chan *request, 2), stop: make(chan struct{})}
	inst := Instance{Dense: make([]float64, 6)}
	for i := 0; i < 2; i++ {
		if _, err := b.Submit(inst); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := b.Submit(inst); err != ErrOverloaded {
		t.Fatalf("expected ErrOverloaded, got %v", err)
	}
	rep := b.stats.Snapshot(b.QueueDepth(), pub.Version())
	if rep.Requests != 2 || rep.Rejected != 1 || rep.QueueDepth != 2 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestBatcherErrorsWithoutModel(t *testing.T) {
	net, _ := testNet(t)
	b := NewBatcher(NewPublisher(net), Options{MaxBatch: 2, MaxWait: time.Millisecond})
	defer b.Close()
	if r := b.Predict(Instance{Dense: make([]float64, 6)}); r.Err != ErrNoModel {
		t.Fatalf("expected ErrNoModel, got %v", r.Err)
	}
}

func TestBatcherRejectsBadInstances(t *testing.T) {
	net, params := testNet(t)
	pub := NewPublisher(net)
	pub.PublishParams(params)
	b := NewBatcher(pub, Options{MaxBatch: 2, MaxWait: time.Millisecond})
	defer b.Close()
	for name, inst := range map[string]Instance{
		"wrong dense dim": {Dense: make([]float64, 5)},
		"index too large": {Indices: []int{6}, Values: []float64{1}},
		"negative index":  {Indices: []int{-1}, Values: []float64{1}},
		"length mismatch": {Indices: []int{1, 2}, Values: []float64{1}},
	} {
		if _, err := b.Submit(inst); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestBatcherClose(t *testing.T) {
	net, params := testNet(t)
	pub := NewPublisher(net)
	pub.PublishParams(params)
	b := NewBatcher(pub, Options{MaxBatch: 2, MaxWait: time.Millisecond})
	b.Close()
	b.Close() // idempotent
	if r := b.Predict(Instance{Dense: make([]float64, 6)}); r.Err != ErrClosed {
		t.Fatalf("expected ErrClosed, got %v", r.Err)
	}
}

func TestAutoMaxBatch(t *testing.T) {
	arch := nn.Arch{InputDim: 54, Hidden: []int{100, 50}, OutputDim: 7, Activation: nn.ActSigmoid}
	for _, dev := range []device.Device{device.NewXeon("cpu", 0), device.NewV100("gpu")} {
		got := AutoMaxBatch(dev, arch, 1024, 0.5)
		if got < 1 || got > 1024 || got&(got-1) != 0 {
			t.Fatalf("%s: AutoMaxBatch = %d, want a power of two in [1,1024]", dev.Name(), got)
		}
	}
	// The GPU's efficiency curve saturates slowly (b/(b+512)), so it should
	// demand a much larger micro-batch than the CPU.
	cpu := AutoMaxBatch(device.NewXeon("cpu", 0), arch, 1024, 0.5)
	gpu := AutoMaxBatch(device.NewV100("gpu"), arch, 1024, 0.5)
	if gpu <= cpu {
		t.Fatalf("GPU micro-batch %d should exceed CPU %d", gpu, cpu)
	}
	if AutoMaxBatch(device.NewXeon("cpu", 0), arch, 0, 0.5) != 1 {
		t.Fatal("degenerate ceiling should clamp to 1")
	}
}

func TestStatsQuantilesAndHistogram(t *testing.T) {
	s := NewStatsIn(nil)
	if s.Quantile(0.5) != 0 {
		t.Fatal("empty stats should report 0 latency")
	}
	for i := 0; i < 90; i++ {
		s.RecordLatency(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		s.RecordLatency(10 * time.Millisecond)
	}
	p50, p99 := s.Quantile(0.5), s.Quantile(0.99)
	if p50 >= p99 {
		t.Fatalf("p50 %v ≥ p99 %v", p50, p99)
	}
	if p50 < 0.05 || p50 > 0.2 {
		t.Fatalf("p50 %vms not near 0.1ms", p50)
	}
	if p99 < 5 || p99 > 20 {
		t.Fatalf("p99 %vms not near 10ms", p99)
	}
	mids, counts := s.Histogram()
	if len(mids) != len(counts) || len(mids) == 0 {
		t.Fatal("bad histogram shape")
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 100 {
		t.Fatalf("histogram holds %d samples", total)
	}
}

// softmaxInto writes the softmax of logits into out (numerically stabilized
// by max subtraction): the reference the served scores are checked against,
// kept apart from nn's output layer so the check stays independent.
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
