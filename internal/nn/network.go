package nn

import (
	"fmt"
	"math/rand/v2"

	"heterosgd/internal/tensor"
)

// Arch describes a fully-connected MLP topology: InputDim → Hidden… →
// OutputDim. The paper's networks use 4–8 hidden layers of 512 units with
// sigmoid activations and a softmax (or, for delicious, per-label sigmoid)
// output whose nonlinearity is folded into the loss.
type Arch struct {
	// InputDim is d₁, the feature count.
	InputDim int
	// Hidden lists the width of each hidden layer.
	Hidden []int
	// OutputDim is the number of classes (multiclass) or labels
	// (multi-label).
	OutputDim int
	// Activation is the hidden-layer nonlinearity.
	Activation ActKind
	// MultiLabel selects the per-label sigmoid + binary cross-entropy
	// loss (delicious) instead of softmax + cross-entropy.
	MultiLabel bool
	// InputDensity is the expected nonzero fraction of the input features
	// (real-sim is ≈0.0025). Zero means dense (density 1). It scales the
	// first-layer terms of the device cost models so sim-engine timings
	// stay calibrated for sparse batches; it does not affect the math.
	InputDensity float64
}

// Density returns the effective input density in (0, 1], treating an unset
// InputDensity as fully dense.
func (a Arch) Density() float64 {
	if a.InputDensity <= 0 || a.InputDensity > 1 {
		return 1
	}
	return a.InputDensity
}

// Validate reports whether the architecture is well-formed.
func (a Arch) Validate() error {
	if a.InputDim <= 0 {
		return fmt.Errorf("nn: input dimension %d must be positive", a.InputDim)
	}
	if a.OutputDim <= 0 {
		return fmt.Errorf("nn: output dimension %d must be positive", a.OutputDim)
	}
	for i, h := range a.Hidden {
		if h <= 0 {
			return fmt.Errorf("nn: hidden layer %d has width %d", i, h)
		}
	}
	return nil
}

// LayerDims returns the full dimension sequence d₁…d_{P+1}.
func (a Arch) LayerDims() []int {
	dims := make([]int, 0, len(a.Hidden)+2)
	dims = append(dims, a.InputDim)
	dims = append(dims, a.Hidden...)
	return append(dims, a.OutputDim)
}

// NumLayers returns the number of weight layers P.
func (a Arch) NumLayers() int { return len(a.Hidden) + 1 }

// NumParameters returns the scalar parameter count of the architecture.
func (a Arch) NumParameters() int {
	dims := a.LayerDims()
	n := 0
	for l := 0; l+1 < len(dims); l++ {
		n += dims[l+1]*dims[l] + dims[l+1]
	}
	return n
}

// FlopsPerExample estimates the floating-point operations of one forward +
// backward pass for a single training example (the classic ≈3× forward cost:
// one GEMM forward, two backward). The first-layer term is scaled by the
// input density: sparse batches run SpMM/SpMMT kernels whose work is
// proportional to nnz, not to InputDim. Used by the device cost models.
func (a Arch) FlopsPerExample() float64 {
	dims := a.LayerDims()
	flops := 0.0
	for l := 0; l+1 < len(dims); l++ {
		term := 2 * float64(dims[l]) * float64(dims[l+1]) // forward GEMM
		if l == 0 {
			term *= a.Density()
		}
		flops += term
	}
	return 3 * flops
}

// InputBytesPerExample estimates the bytes one example's features occupy in
// transit (the PCIe term of the GPU cost model). Dense rows move 8·d bytes;
// CSR rows move a (column, value) pair — 16 bytes — per nonzero.
func (a Arch) InputBytesPerExample() float64 {
	d := a.Density()
	if d >= 1 {
		return 8 * float64(a.InputDim)
	}
	return 16 * float64(a.InputDim) * d
}

// String renders the topology, e.g. "54-512x6-7 (sigmoid)".
func (a Arch) String() string {
	return fmt.Sprintf("%d-%dx%d-%d (%s)", a.InputDim, widthOf(a.Hidden), len(a.Hidden), a.OutputDim, a.Activation)
}

func widthOf(hidden []int) int {
	if len(hidden) == 0 {
		return 0
	}
	return hidden[0]
}

// Network is an immutable MLP topology; parameters live in separate Params
// values so many replicas (shared global model, deep GPU copies) can use the
// same Network concurrently.
type Network struct {
	Arch Arch
	dims []int
}

// NewNetwork validates the architecture and returns a Network.
func NewNetwork(arch Arch) (*Network, error) {
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	return &Network{Arch: arch, dims: arch.LayerDims()}, nil
}

// MustNetwork is NewNetwork for statically-known architectures.
func MustNetwork(arch Arch) *Network {
	n, err := NewNetwork(arch)
	if err != nil {
		panic(err)
	}
	return n
}

// NewParams allocates parameters for the network, initialized per mode.
// Xavier initialization is scaled by the activation's gain (4 for sigmoid,
// whose maximum slope is ¼ — without the gain, gradients vanish through the
// paper's 6–8 sigmoid layers and nothing trains).
func (n *Network) NewParams(mode InitMode, rng *rand.Rand) *Params {
	p := newParams(n.dims)
	p.init(mode, rng, activationGain(n.Arch.Activation), n.Arch.Activation == ActSigmoid)
	return p
}

// activationGain returns the init-σ multiplier that preserves gradient
// magnitude through the given nonlinearity.
func activationGain(k ActKind) float64 {
	switch k {
	case ActSigmoid:
		return 4
	case ActReLU:
		return 1.4142135623730951 // √2
	default:
		return 1
	}
}

// Workspace holds the per-worker forward/backward scratch buffers for
// batches up to a capacity; Grow reallocates when a larger batch arrives.
// Every workspace runs the training kernels, so a forward on a serving
// (inference) workspace gives the bits a training forward gives.
// A Workspace must not be shared between concurrent gradient computations.
type Workspace struct {
	net *Network
	cap int
	// inferOnly marks a forward-only workspace: no delta buffers are
	// allocated, roughly halving the memory of a serving replica. Gradient
	// computations panic on such a workspace.
	inferOnly bool
	// acts[0] aliases the input batch (nil for sparse input); acts[l]
	// holds layer-l activations.
	acts   []*tensor.Matrix
	deltas []*tensor.Matrix
	// actViews and deltaViews cache per-layer row-view headers so the
	// forward and backward passes re-slice instead of allocating one per
	// layer per batch.
	actViews, deltaViews []tensor.Matrix
	// colMark/colBuf are scratch for collecting a sparse batch's active
	// feature columns; allocated lazily on the first sparse gradient.
	colMark []bool
	colBuf  []int
}

// NewWorkspace allocates scratch space for batches of up to maxBatch rows.
func (n *Network) NewWorkspace(maxBatch int) *Workspace {
	if maxBatch < 1 {
		maxBatch = 1
	}
	ws := &Workspace{net: n}
	ws.grow(maxBatch)
	return ws
}

// NewInferenceWorkspace allocates forward-only scratch for batches of up to
// maxBatch rows: activation buffers but no delta buffers. This is the
// serving path's workspace — Forward/Predict/Loss work normally, Gradient
// panics.
func (n *Network) NewInferenceWorkspace(maxBatch int) *Workspace {
	if maxBatch < 1 {
		maxBatch = 1
	}
	ws := &Workspace{net: n, inferOnly: true}
	ws.grow(maxBatch)
	return ws
}

// NewServingWorkspace is NewInferenceWorkspace. Its only caller is
// bench/replay.go.
func (n *Network) NewServingWorkspace(maxBatch int) *Workspace {
	return n.NewInferenceWorkspace(maxBatch)
}

func (ws *Workspace) grow(batch int) {
	n := ws.net
	ws.cap = batch
	ws.acts = make([]*tensor.Matrix, len(n.dims))
	ws.deltas = make([]*tensor.Matrix, len(n.dims))
	ws.actViews = make([]tensor.Matrix, len(n.dims))
	ws.deltaViews = make([]tensor.Matrix, len(n.dims))
	for l := 1; l < len(n.dims); l++ {
		ws.acts[l] = tensor.NewMatrix(batch, n.dims[l])
		if !ws.inferOnly {
			ws.deltas[l] = tensor.NewMatrix(batch, n.dims[l])
		}
	}
}

// actView returns a cached b-row view of layer l's activation buffer without
// allocating (the serving hot path runs one forward per micro-batch; header
// allocations per layer would otherwise be the only per-batch garbage).
func (ws *Workspace) actView(l, b int) *tensor.Matrix {
	return ws.acts[l].RowViewInto(&ws.actViews[l], 0, b)
}

// deltaView is actView for layer l's delta buffer (the backward pass).
func (ws *Workspace) deltaView(l, b int) *tensor.Matrix {
	return ws.deltas[l].RowViewInto(&ws.deltaViews[l], 0, b)
}

// ensure prepares the workspace for a batch of b rows and returns batch-sized
// views of the activation and delta buffers.
func (ws *Workspace) ensure(b int) {
	if b > ws.cap {
		ws.grow(b)
	}
}

// ForwardX computes logits for the batch x (rows = examples) using parameters
// p, with linear algebra parallelized over workers goroutines. Sparse input
// runs the first layer through the SpMM kernel; everything downstream of
// layer 1 is dense either way. The returned matrix aliases workspace storage
// and is valid until the next call.
func (n *Network) ForwardX(p *Params, ws *Workspace, x Input, workers int) *tensor.Matrix {
	if x.Cols() != n.Arch.InputDim {
		panic(fmt.Sprintf("nn: input has %d features, network expects %d", x.Cols(), n.Arch.InputDim))
	}
	b := x.Rows()
	ws.ensure(b)
	ws.acts[0] = x.Dense // nil for sparse batches; layer 0 reads x directly
	in := x.Dense
	for l := 0; l < n.Arch.NumLayers(); l++ {
		out := ws.actView(l+1, b)
		if l == 0 && x.Sparse != nil {
			// out = in · Wᵀ over the nonzeros only.
			tensor.SpMM(true, 1, x.Sparse, p.Weights[0], 0, out, workers)
		} else {
			// out = in · Wᵀ  (+ bias broadcast)
			tensor.ParallelGemm(false, true, 1, in, p.Weights[l], 0, out, workers)
		}
		bias := p.Biases[l]
		for i := 0; i < b; i++ {
			row := out.Row(i)
			for j := range row {
				row[j] += bias.Data[j]
			}
		}
		if l < n.Arch.NumLayers()-1 { // hidden layer
			applyActivation(n.Arch.Activation, out.Data[:b*out.Stride])
		}
		in = out
	}
	return ws.actView(n.Arch.NumLayers(), b)
}

// GradientX runs a forward and backward pass over the batch (x, y), writes
// the mean gradient into grad, and returns the mean loss. grad must have the
// network's shape; it is overwritten, not accumulated.
//
// For sparse input the first-layer weight gradient is accumulated with SpMMT
// over the batch's nonzero feature columns only, and grad.ActiveCols records
// that column set so downstream updates stay partial (grad.Weights[0] is
// exactly zero outside ActiveCols). Dense input clears ActiveCols.
func (n *Network) GradientX(p *Params, ws *Workspace, x Input, y Labels, grad *Params, workers int) float64 {
	if ws.inferOnly {
		panic("nn: GradientX on an inference-only workspace (use NewWorkspace)")
	}
	b := x.Rows()
	logits := n.ForwardX(p, ws, x, workers)
	P := n.Arch.NumLayers()
	outDelta := ws.deltaView(P, b)
	var loss float64
	if n.Arch.MultiLabel {
		loss = sigmoidBCEBackward(logits, y, outDelta)
	} else {
		loss = softmaxCEBackward(logits, y, outDelta)
	}
	invB := 1 / float64(b)
	for l := P - 1; l >= 0; l-- {
		delta := ws.deltaView(l+1, b)
		if l == 0 && x.Sparse != nil {
			n.sparseInputGrad(ws, x.Sparse, delta, invB, grad, workers)
		} else {
			in := x.Dense
			if l > 0 {
				in = ws.actView(l, b)
			}
			// dW = (1/b) deltaᵀ · in
			tensor.ParallelGemm(true, false, invB, delta, in, 0, grad.Weights[l], workers)
			if l == 0 {
				grad.ActiveCols = nil
			}
		}
		// db = (1/b) colsums(delta)
		tensor.ColSums(delta, grad.Biases[l])
		grad.Biases[l].Scale(invB)
		if l > 0 {
			// prevDelta = delta · W, then ⊙ f'(act)
			in := ws.actView(l, b)
			prev := ws.deltaView(l, b)
			tensor.ParallelGemm(false, false, 1, delta, p.Weights[l], 0, prev, workers)
			applyActivationGrad(n.Arch.Activation, in.Data[:b*in.Stride], prev.Data[:b*prev.Stride])
		}
	}
	return loss
}

// sparseInputGrad computes the first-layer weight gradient for a sparse
// batch: clear only the columns the previous gradient touched, accumulate
// dW = invB · deltaᵀ · xs with SpMMT(beta=1), and record the new active set.
func (n *Network) sparseInputGrad(ws *Workspace, xs *tensor.CSR, delta *tensor.Matrix, invB float64, grad *Params, workers int) {
	if len(ws.colMark) < n.Arch.InputDim {
		ws.colMark = make([]bool, n.Arch.InputDim)
	}
	cols := xs.ActiveColumns(ws.colMark, ws.colBuf)
	ws.colBuf = cols // keep the grown scratch
	w0 := grad.Weights[0]
	if grad.ActiveCols == nil {
		w0.Zero() // previous gradient was dense (or first use)
	} else {
		tensor.ZeroCols(w0, grad.ActiveCols)
	}
	tensor.SpMMT(invB, xs, delta, 1, w0, workers)
	grad.ActiveCols = append(grad.ActiveCols[:0], cols...)
}

// LossX computes the mean loss of the batch without producing gradients.
func (n *Network) LossX(p *Params, ws *Workspace, x Input, y Labels, workers int) float64 {
	logits := n.ForwardX(p, ws, x, workers)
	if n.Arch.MultiLabel {
		return sigmoidBCELoss(logits, y)
	}
	return softmaxCELoss(logits, y)
}

// PredictX returns the argmax class for each row of x (multiclass networks).
func (n *Network) PredictX(p *Params, ws *Workspace, x Input, workers int) []int {
	logits := n.ForwardX(p, ws, x, workers)
	out := make([]int, x.Rows())
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}

// AccuracyX returns the fraction of rows whose argmax prediction matches the
// class label.
func (n *Network) AccuracyX(p *Params, ws *Workspace, x Input, y Labels, workers int) float64 {
	if x.Rows() == 0 {
		return 0
	}
	pred := n.PredictX(p, ws, x, workers)
	correct := 0
	for i, c := range pred {
		if c == y.Class[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}

// PrecisionAtKX evaluates a multi-label model the way the extreme-
// classification literature evaluates delicious: for each example, take the
// k highest-scoring labels and count how many are in the true label set.
// Returns the mean fraction over the batch.
func (n *Network) PrecisionAtKX(p *Params, ws *Workspace, x Input, y Labels, k, workers int) float64 {
	if !n.Arch.MultiLabel {
		panic("nn: PrecisionAtKX requires a multi-label network")
	}
	if k < 1 || x.Rows() == 0 {
		return 0
	}
	logits := n.ForwardX(p, ws, x, workers)
	total := 0.0
	top := make([]int, k)
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		topK(row, top)
		truth := make(map[int32]bool, len(y.Multi[i]))
		for _, l := range y.Multi[i] {
			truth[l] = true
		}
		hits := 0
		for _, j := range top {
			if truth[int32(j)] {
				hits++
			}
		}
		total += float64(hits) / float64(k)
	}
	return total / float64(logits.Rows)
}

// topK fills out with the indices of the largest values in row (simple
// selection — k is small).
func topK(row []float64, out []int) {
	for slot := range out {
		best := -1
		for j, v := range row {
			taken := false
			for _, prev := range out[:slot] {
				if prev == j {
					taken = true
					break
				}
			}
			if taken {
				continue
			}
			if best < 0 || v > row[best] {
				best = j
			}
		}
		out[slot] = best
	}
}
