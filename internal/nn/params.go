package nn

import (
	"fmt"
	"math"
	"math/rand/v2"

	"heterosgd/internal/tensor"
)

// InitMode selects the weight-initialization scheme.
type InitMode int

const (
	// InitXavier draws weights from N(0, 1/fan_in), the standard choice
	// for sigmoid networks. Default.
	InitXavier InitMode = iota
	// InitPaper follows the paper's §VII-A description ("standard
	// deviation equal to the number of units in the current layer"),
	// interpreted as σ = 1/units — the literal reading (σ = units)
	// saturates every sigmoid and is unusable; see DESIGN.md §6.
	InitPaper
	// InitZero zeroes all parameters (used for gradient accumulators).
	InitZero
)

var initModeNames = [...]string{InitXavier: "xavier", InitPaper: "paper", InitZero: "zero"}

// String returns the init-mode name.
func (m InitMode) String() string {
	if m >= 0 && int(m) < len(initModeNames) && initModeNames[m] != "" {
		return initModeNames[m]
	}
	return "unknown"
}

// Params holds the model W = {W¹ … Wᴾ} plus biases as one flat vector.
// Weights[l] has shape d_{l+1}×d_l, matching the paper's Wˡ ∈ ℝ^{d_{l+1}×d_l}:
// row r holds the incoming weights of unit r in layer l+1.
//
// Data is the whole model in wire order — W¹ row-major, b¹, W², b², … — and
// Weights[l] and Biases[l] are views of their spans of it, capacity-capped so
// an append never runs into the next layer. A whole-model operation is one
// loop over Data; only ApplyUpdate and CloneAtomic walk the views, a row at
// a time, because a row is the unit the shared-model stripe lock guards.
type Params struct {
	Data    []float64
	Weights []*tensor.Matrix
	Biases  []*tensor.Vector
	// ActiveCols, when non-nil, marks p as a sparse first-layer gradient:
	// Weights[0] is exactly zero outside these (sorted) columns, so model
	// updates may restrict themselves to them — the partial Hogwild write
	// for sparse batches. Values are always exact either way; ActiveCols
	// is a performance hint, never a correctness requirement. It is set by
	// Network.GradientX and cleared by dense gradients, Zero, and any
	// operation that may densify Weights[0].
	ActiveCols []int
}

// newParams allocates a zeroed model for the layer widths dims (d₁…d_{P+1})
// and carves its views. Every Params is built here.
func newParams(dims []int) *Params {
	n := 0
	for l := 1; l < len(dims); l++ {
		n += dims[l]*dims[l-1] + dims[l]
	}
	p := &Params{
		Data:    make([]float64, n),
		Weights: make([]*tensor.Matrix, len(dims)-1),
		Biases:  make([]*tensor.Vector, len(dims)-1),
	}
	off := 0
	carve := func(k int) []float64 {
		off += k
		return p.Data[off-k : off : off]
	}
	for l := range p.Weights {
		p.Weights[l] = tensor.NewMatrixFrom(dims[l+1], dims[l], carve(dims[l+1]*dims[l]))
		p.Biases[l] = tensor.NewVectorFrom(carve(dims[l+1]))
	}
	return p
}

// dims returns the layer widths d₁…d_{P+1} p is shaped for.
func (p *Params) dims() []int {
	dims := []int{p.Weights[0].Cols}
	for _, w := range p.Weights {
		dims = append(dims, w.Rows)
	}
	return dims
}

// NumParameters returns the total scalar parameter count.
func (p *Params) NumParameters() int { return len(p.Data) }

// Clone returns a deep copy (the paper's "deep replica" used by GPU workers).
func (p *Params) Clone() *Params {
	out := newParams(p.dims())
	copy(out.Data, p.Data)
	if p.ActiveCols != nil {
		out.ActiveCols = append([]int(nil), p.ActiveCols...)
	}
	return out
}

// CopyFrom copies src's values into p. Shapes must match.
func (p *Params) CopyFrom(src *Params) {
	if !p.sameShape(src) {
		panic(fmt.Sprintf("nn: params shape mismatch %v vs %v", p.dims(), src.dims()))
	}
	copy(p.Data, src.Data)
	if src.ActiveCols == nil {
		p.ActiveCols = nil
	} else {
		p.ActiveCols = append(p.ActiveCols[:0], src.ActiveCols...)
	}
}

// sameShape reports whether p and q have the same layer shapes.
func (p *Params) sameShape(q *Params) bool {
	if len(p.Weights) != len(q.Weights) {
		return false
	}
	for l, w := range p.Weights {
		if w.Rows != q.Weights[l].Rows || w.Cols != q.Weights[l].Cols {
			return false
		}
	}
	return true
}

// Zero clears all parameters (useful for gradient accumulators).
func (p *Params) Zero() {
	clear(p.Data)
	p.ActiveCols = nil
}

// AddScaled performs p += a·src with plain (unsynchronized) writes. It may
// densify Weights[0], so p's ActiveCols hint is conservatively dropped.
func (p *Params) AddScaled(a float64, src *Params) {
	addScaled(p.Data, a, src.Data)
	p.ActiveCols = nil
}

// addScaled performs dst += a·src element-wise.
func addScaled(dst []float64, a float64, src []float64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += float64(a * src[i])
	}
}

// AddDecay adds a·model into p (the weight-decay term of the gradient),
// restricted to p's active first-layer columns when p is a sparse gradient.
// This is the truncated/lazy decay from the sparse-training literature: the
// regularizer only touches the features the batch touched, which keeps the
// Hogwild update partial instead of densifying every gradient.
func (p *Params) AddDecay(a float64, model *Params) {
	if a == 0 {
		return
	}
	dense := 0 // where the dense part of Data starts
	if p.ActiveCols != nil {
		tensor.AddScaledCols(p.Weights[0], a, model.Weights[0], p.ActiveCols)
		dense = len(p.Weights[0].Data)
	}
	addScaled(p.Data[dense:], a, model.Data[dense:])
}

// ApplyUpdate performs p += a·src under the given shared-write discipline.
// With tensor.UpdateAtomic the write is race-free against concurrent
// ApplyUpdate calls and loses none of them: each row is added under its
// stripe lock (not lock-free — one row's stripe at a time, never the model);
// tensor.UpdateRacy is the paper-exact unsynchronized Hogwild update. When src is a sparse
// gradient (ActiveCols set), the first-layer write touches only the active
// columns — the partial update that makes sparse Hogbatch CPU-friendly.
func (p *Params) ApplyUpdate(mode tensor.UpdateMode, a float64, src *Params) {
	for i := range p.Weights {
		if i == 0 && src.ActiveCols != nil {
			tensor.ApplyUpdateCols(mode, p.Weights[0], a, src.Weights[0], src.ActiveCols)
		} else {
			tensor.ApplyUpdate(mode, p.Weights[i], a, src.Weights[i])
		}
		tensor.ApplyUpdateVec(mode, p.Biases[i], a, src.Biases[i])
	}
}

// DelayCompensate applies the DC-ASGD first-order correction to the
// gradient p in place: p += λ·p⊙p⊙(now − then), where then is the model p
// was computed against and now is the model it is about to be applied to.
// The Hessian is approximated by its cheap diagonal surrogate g⊙g, so a
// stale gradient is steered toward the value it would have at the current
// parameters. Sparse first-layer gradients stay sparse for free: entries
// outside ActiveCols are zero, and a zero gradient gets a zero correction
// regardless of how far the weights drifted.
func (p *Params) DelayCompensate(lambda float64, now, then *Params) {
	if lambda == 0 {
		return
	}
	g, nw, tw := p.Data, now.Data[:len(p.Data)], then.Data[:len(p.Data)]
	for i, gv := range g {
		g[i] = gv + float64(lambda*gv*gv*(nw[i]-tw[i]))
	}
}

// MaxAbsDiff returns the maximum absolute element-wise difference between
// p and other (diagnostic; used to measure replica staleness).
func (p *Params) MaxAbsDiff(other *Params) float64 {
	max := 0.0
	b := other.Data[:len(p.Data)]
	for i, a := range p.Data {
		if d := math.Abs(a - b[i]); d > max {
			max = d
		}
	}
	return max
}

// AllFinite reports whether every parameter is finite (no NaN or ±Inf) —
// the divergence-guard predicate applied to gradients before they reach
// the shared model.
func (p *Params) AllFinite() bool { return allFinite(p.Data) }

func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// GradNorm returns the Euclidean norm over all parameters.
func (p *Params) GradNorm() float64 {
	sum := 0.0
	for _, v := range p.Data {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// SizeBytes returns the in-memory footprint of the parameters, used by the
// GPU simulator's PCIe transfer model.
func (p *Params) SizeBytes() int64 {
	return int64(p.NumParameters()) * 8
}

// init draws the weights of a freshly allocated (zeroed) p per mode.
func (p *Params) init(mode InitMode, rng *rand.Rand, gain float64, centerBias bool) {
	if mode == InitZero {
		return
	}
	for i, w := range p.Weights {
		if mode == InitPaper {
			// σ scaled by the unit count of the current (input) layer.
			w.Randomize(rng, 1/float64(w.Cols))
		} else { // InitXavier (scaled by the activation gain)
			w.Randomize(rng, gain/math.Sqrt(float64(w.Cols)))
		}
		if centerBias && i > 0 {
			// Sigmoid activations have mean ≈ ½, not 0; without
			// compensation the pre-activation mean performs a random
			// walk that saturates deep sigmoid stacks. Initialize each
			// bias to −½·Σⱼwᵢⱼ so initial pre-activations are centered.
			for r := 0; r < w.Rows; r++ {
				sum := 0.0
				for _, v := range w.Row(r) {
					sum += v
				}
				p.Biases[i].Set(r, -0.5*sum)
			}
		}
	}
}
