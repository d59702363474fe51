package serve

import (
	"math/rand/v2"
	"testing"
	"time"

	"heterosgd/internal/nn"
	"heterosgd/internal/tensor"
)

// Allocation regression guards for the pool worker's serving hot path. The
// pool's scaling story rests on workspace reuse: a worker must be able to
// stage and forward a micro-batch without touching the heap, so serving
// throughput never degrades into GC pressure as workers multiply. These
// tests pin that with testing.AllocsPerRun; if a refactor reintroduces a
// per-batch allocation in the forward path, they fail loudly.

// allocHarness builds a worker-less batcher (white-box, like the admission
// test) plus one pool worker and a ready-to-serve request batch.
func allocHarness(t *testing.T, sparse bool) (*poolWorker, []*request) {
	t.Helper()
	net := nn.MustNetwork(nn.Arch{
		InputDim: 24, Hidden: []int{32, 32}, OutputDim: 3, Activation: nn.ActSigmoid,
	})
	params := net.NewParams(nn.InitXavier, rand.New(rand.NewPCG(11, 13)))
	pub := NewPublisher(net)
	pub.PublishParams(params)
	b := &Batcher{
		pub:   pub,
		opts:  Options{MaxBatch: 8, QueueCap: 8}.withDefaults(net.Arch),
		stats: NewStatsIn(nil),
		queue: make(chan *request, 8),
		stop:  make(chan struct{}),
	}
	w := b.newPoolWorker()
	rng := rand.New(rand.NewPCG(17, 19))
	reqs := make([]*request, 8)
	for i := range reqs {
		inst := Instance{}
		if sparse {
			inst.Indices = []int{i % 24, (i + 7) % 24}
			inst.Values = []float64{rng.Float64(), rng.Float64()}
		} else {
			inst.Dense = make([]float64, 24)
			for j := range inst.Dense {
				inst.Dense[j] = rng.Float64() - 0.5
			}
		}
		reqs[i] = &request{inst: inst, enq: time.Now(), done: make(chan Response, 1)}
	}
	return w, reqs
}

// TestPoolWorkerForwardPathZeroAlloc pins the staging-plus-forward path —
// everything between dequeuing a batch and reading its logits — at zero heap
// allocations per batch: the dense staging view, the workspace activation
// views, and the GEMM scratch are all pre-allocated and reused.
func TestPoolWorkerForwardPathZeroAlloc(t *testing.T) {
	w, reqs := allocHarness(t, false)
	snap := w.b.pub.Load()
	n := len(reqs)
	forward := func() {
		x := w.dense.RowViewInto(&w.view, 0, n)
		x.Zero()
		for i, r := range reqs {
			copy(x.Row(i), r.inst.Dense)
		}
		snap.Net.ForwardX(snap.Params, w.ws, nn.DenseInput(x), 1)
	}
	forward() // warm up lazily-grown state before measuring
	if allocs := testing.AllocsPerRun(200, forward); allocs != 0 {
		t.Fatalf("forward path allocates %.1f objects per batch, want 0", allocs)
	}
}

// TestPoolWorkerServeBatchSingleAlloc pins the full serveBatch cycle at one
// allocation per batch: the score backing shared by every response (it must
// outlive the batch — clients keep their Scores — so it cannot be pooled).
// Amortized per request that is 1/MaxBatch, and crucially it is O(1) in
// batch count, not O(requests).
func TestPoolWorkerServeBatchSingleAlloc(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sparse bool
	}{{"dense", false}, {"sparse", true}} {
		t.Run(tc.name, func(t *testing.T) {
			w, reqs := allocHarness(t, tc.sparse)
			serve := func() {
				w.serveBatch(reqs)
				for _, r := range reqs {
					<-r.done
				}
			}
			serve() // warm-up: first run grows the reusable CSR buffers
			if allocs := testing.AllocsPerRun(200, serve); allocs > 1 {
				t.Fatalf("serveBatch allocates %.1f objects per batch, want ≤1 (score backing)", allocs)
			}
		})
	}
}

// TestRowViewIntoMatchesRowView pins the zero-allocation view variant the
// hot path depends on against the allocating original.
func TestRowViewIntoMatchesRowView(t *testing.T) {
	m := tensor.NewMatrix(6, 4)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	var dst tensor.Matrix
	for _, span := range [][2]int{{0, 6}, {0, 1}, {2, 3}, {5, 1}, {3, 0}} {
		want := m.RowView(span[0], span[1])
		got := m.RowViewInto(&dst, span[0], span[1])
		if got != &dst {
			t.Fatal("RowViewInto did not return dst")
		}
		if got.Rows != want.Rows || got.Cols != want.Cols || got.Stride != want.Stride || len(got.Data) != len(want.Data) {
			t.Fatalf("view [%d,%d): got %d×%d stride %d len %d, want %d×%d stride %d len %d",
				span[0], span[0]+span[1], got.Rows, got.Cols, got.Stride, len(got.Data),
				want.Rows, want.Cols, want.Stride, len(want.Data))
		}
		if want.Rows > 0 && &got.Data[0] != &want.Data[0] {
			t.Fatal("views alias different backing")
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { m.RowViewInto(&dst, 1, 4) }); allocs != 0 {
		t.Fatalf("RowViewInto allocates %.1f objects, want 0", allocs)
	}
}
