package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"time"

	"heterosgd/internal/data"
	"heterosgd/internal/nn"
)

// SparseBenchResult is one dense-vs-sparse gradient-throughput measurement,
// the JSON row of BENCH_sparse.json. Throughput counts full
// forward+backward passes (the training hot path); BytesPerOp is the mean
// heap allocation per iteration from runtime.MemStats deltas — steady-state
// training must not allocate per batch on either representation. The legs
// run in Pairs adjacent dense/sparse pairs; the Sec and per-second figures
// total every pair, and Speedup is the median of the pairs' ratios.
type SparseBenchResult struct {
	Dataset   string  `json:"dataset"`
	Examples  int     `json:"examples"`
	Dim       int     `json:"dim"`
	NNZ       int64   `json:"nnz"`
	Density   float64 `json:"density"`
	Batch     int     `json:"batch"`
	HiddenStr string  `json:"hidden"`

	Pairs       int     `json:"pairs"`
	DenseIters  int     `json:"dense_iters"`
	SparseIters int     `json:"sparse_iters"`
	DenseSec    float64 `json:"dense_sec"`
	SparseSec   float64 `json:"sparse_sec"`

	DenseExamplesPerSec  float64 `json:"dense_examples_per_sec"`
	SparseExamplesPerSec float64 `json:"sparse_examples_per_sec"`
	SparseNNZPerSec      float64 `json:"sparse_nnz_per_sec"`
	Speedup              float64 `json:"speedup"`

	DenseBytesPerOp  uint64 `json:"dense_bytes_per_op"`
	SparseBytesPerOp uint64 `json:"sparse_bytes_per_op"`
}

// sparseBenchShape is one benchmark workload: a paper dataset's feature
// shape at a bench-tractable example count and hidden stack.
type sparseBenchShape struct {
	spec         data.SynthSpec
	n            int // examples to generate
	hiddenLayers int
	hiddenUnits  int
	batch        int
	denseIters   int
	sparseIters  int
}

// sparseBenchShapes are the two sparse datasets of Table II. real-sim keeps
// its native 20,958-dim width — the workload the dense path had to cap at
// 2,048 dims — so its dense leg is deliberately expensive and runs few
// iterations; the CSR leg runs more for a stable nnz/s figure.
func sparseBenchShapes() []sparseBenchShape {
	return []sparseBenchShape{
		{spec: data.RealSim, n: 1024, hiddenLayers: 2, hiddenUnits: 64, batch: 128, denseIters: 4, sparseIters: 40},
		{spec: data.Delicious, n: 1024, hiddenLayers: 2, hiddenUnits: 64, batch: 128, denseIters: 16, sparseIters: 64},
	}
}

// benchGradient times iters full gradient computations over rotating batch
// views of ds and returns elapsed seconds plus mean heap bytes allocated
// per iteration.
func benchGradient(net *nn.Network, ds *data.Dataset, batch, iters int) (float64, uint64) {
	rng := rand.New(rand.NewPCG(1, 2))
	params := net.NewParams(nn.InitXavier, rng)
	grad := net.NewParams(nn.InitZero, rng)
	ws := net.NewWorkspace(batch)

	// One warm-up iteration so lazily-grown workspace buffers (column
	// scratch, activations) do not count against the steady state.
	warm := ds.View(0, batch)
	net.GradientX(params, ws, warm.Input(), warm.Y, grad, 1)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	cursor := 0
	for i := 0; i < iters; i++ {
		if cursor+batch > ds.N() {
			cursor = 0
		}
		v := ds.View(cursor, cursor+batch)
		net.GradientX(params, ws, v.Input(), v.Y, grad, 1)
		cursor += batch
	}
	sec := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	return sec, (m1.TotalAlloc - m0.TotalAlloc) / uint64(iters)
}

// sparseBenchPairs is how many adjacent dense/sparse pairs each shape runs,
// alternating which leg goes first. Host load that varies over time slows
// both legs of a pair alike, and one pair caught across a swing moves the
// median ratio by at most one rank.
const sparseBenchPairs = 3

// SparseBench measures dense-vs-sparse training throughput on the paper's
// sparse dataset shapes and renders the comparison; the same rows marshal
// to BENCH_sparse.json via SparseBenchJSON.
func SparseBench(seed uint64) ([]SparseBenchResult, string, error) {
	var rows []SparseBenchResult
	for _, sh := range sparseBenchShapes() {
		spec := sh.spec
		spec.N = sh.n
		spec.HiddenLayers, spec.HiddenUnits = sh.hiddenLayers, sh.hiddenUnits
		spec.Sparse = true // both legs come from one CSR generation
		sparse := data.GenerateCSR(spec, seed)
		dense := &data.Dataset{
			Name: sparse.Name, NumClasses: sparse.NumClasses, MultiLabel: sparse.MultiLabel,
			X: sparse.XS.ToDense(), Y: sparse.Y,
		}
		net, err := nn.NewNetwork(spec.Arch())
		if err != nil {
			return nil, "", err
		}

		var denseSec, sparseSec float64
		var denseBytes, sparseBytes uint64
		ratios := make([]float64, sparseBenchPairs)
		for pair := range ratios {
			var sec [2]float64 // dense, sparse
			for _, leg := range [2]int{pair % 2, 1 - pair%2} {
				if leg == 0 {
					sec[0], denseBytes = benchGradient(net, dense, sh.batch, sh.denseIters)
				} else {
					sec[1], sparseBytes = benchGradient(net, sparse, sh.batch, sh.sparseIters)
				}
			}
			denseSec, sparseSec = denseSec+sec[0], sparseSec+sec[1]
			ratios[pair] = sec[0] / float64(sh.denseIters) / (sec[1] / float64(sh.sparseIters))
		}

		nnz := int64(sparse.XS.NNZ())
		densePer := denseSec / float64(sparseBenchPairs*sh.denseIters*sh.batch)
		sparsePer := sparseSec / float64(sparseBenchPairs*sh.sparseIters*sh.batch)
		nnzPerExample := float64(nnz) / float64(sparse.N())
		rows = append(rows, SparseBenchResult{
			Dataset: spec.Name, Examples: sparse.N(), Dim: sparse.Dim(), NNZ: nnz,
			Density: sparse.Density(), Batch: sh.batch,
			HiddenStr: fmt.Sprintf("%d×%d", sh.hiddenLayers, sh.hiddenUnits),
			Pairs:     sparseBenchPairs, DenseIters: sh.denseIters, SparseIters: sh.sparseIters,
			DenseSec: denseSec, SparseSec: sparseSec,
			DenseExamplesPerSec:  1 / densePer,
			SparseExamplesPerSec: 1 / sparsePer,
			SparseNNZPerSec:      nnzPerExample / sparsePer,
			Speedup:              median(ratios),
			DenseBytesPerOp:      denseBytes, SparseBytesPerOp: sparseBytes,
		})
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Dense vs sparse gradient throughput (forward+backward, 1 worker; speedup: median of %d interleaved pairs)\n", sparseBenchPairs)
	b.WriteString("dataset     dim    nnz/ex  density   dense ex/s  sparse ex/s  speedup     nnz/s  dense B/op  sparse B/op\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %6d %8.1f %8.4f %12.0f %12.0f %8.1fx %9.3g %11d %12d\n",
			r.Dataset, r.Dim, float64(r.NNZ)/float64(r.Examples), r.Density,
			r.DenseExamplesPerSec, r.SparseExamplesPerSec, r.Speedup, r.SparseNNZPerSec,
			r.DenseBytesPerOp, r.SparseBytesPerOp)
	}
	return rows, b.String(), nil
}

// SparseBenchJSON renders the benchmark rows as the BENCH_sparse.json
// payload (indented, trailing newline).
func SparseBenchJSON(rows []SparseBenchResult) ([]byte, error) {
	buf, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
