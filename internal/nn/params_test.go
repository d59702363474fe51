package nn

import (
	"bytes"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"heterosgd/internal/tensor"
)

// TestParamsLayout pins the flat layout: Data is the model in wire order
// (W¹ row-major, b¹, W², b², …), every Weights[l]/Biases[l] is a view of its
// span with the capacity capped at the span's end, and the codec's float
// payload for each layer is that layer's span of Data.
func TestParamsLayout(t *testing.T) {
	net := MustNetwork(testArch(false, ActSigmoid))
	p := net.NewParams(InitXavier, rand.New(rand.NewPCG(28, 1)))
	blob := AppendParams(nil, p)
	off, wire := 0, paramsHeaderLen
	var starts []int // where each weight span begins in Data
	for l, w := range p.Weights {
		if len(w.Data) != w.Rows*w.Cols || p.Biases[l].Len() != w.Rows {
			t.Fatalf("layer %d: weight view holds %d of %d×%d, bias %d", l, len(w.Data), w.Rows, w.Cols, p.Biases[l].Len())
		}
		starts = append(starts, off)
		wire += paramsShapeLen
		for _, view := range [][]float64{w.Data, p.Biases[l].Data} {
			n := len(view)
			if cap(view) != n || &view[0] != &p.Data[off] {
				t.Fatalf("layer %d: a view of %d (cap %d) is not Data[%d:%d:%d]", l, n, cap(view), off, off+n, off+n)
			}
			if !bytes.Equal(blob[wire:wire+8*n], leFloats(p.Data[off:off+n])) {
				t.Fatalf("layer %d: the wire payload is not Data[%d:%d]", l, off, off+n)
			}
			off, wire = off+n, wire+8*n
		}
	}
	if off != len(p.Data) || len(p.Data) != net.Arch.NumParameters() {
		t.Fatalf("views cover %d of %d values; the architecture has %d", off, len(p.Data), net.Arch.NumParameters())
	}

	// A write through a view is a write to Data.
	p.Weights[1].Set(2, 3, 42)
	if got := p.Data[starts[1]+2*p.Weights[1].Cols+3]; got != 42 {
		t.Fatalf("Weights[1](2,3) is not Data[%d]: read %v", starts[1]+2*p.Weights[1].Cols+3, got)
	}
	p.Biases[2].Set(1, -7)
	if got := p.Data[starts[2]+len(p.Weights[2].Data)+1]; got != -7 {
		t.Fatalf("Biases[2][1] is not its Data slot: read %v", got)
	}

	// Appending to a full view must not spill into the next layer.
	next := p.Biases[0].At(0)
	_ = append(p.Weights[0].Data, 99)
	if p.Biases[0].At(0) != next || p.Data[len(p.Weights[0].Data)] != next {
		t.Fatal("an append to Weights[0] overwrote Biases[0]")
	}
}

// specials are the values an element-wise rewrite is likeliest to change the
// bits of: both zeros, NaN and the infinities.
var specials = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}

// mixedParams returns a model of net's shape holding normals, one in every
// oneIn of them (none when oneIn is 0) replaced by a special value.
func mixedParams(net *Network, rng *rand.Rand, oneIn int) *Params {
	p := net.NewParams(InitZero, nil)
	for i := range p.Data {
		p.Data[i] = rng.NormFloat64()
		if oneIn > 0 && rng.IntN(oneIn) == 0 {
			p.Data[i] = specials[rng.IntN(len(specials))]
		}
	}
	return p
}

// sparsify turns p into a sparse first-layer gradient: ActiveCols is a random
// sorted column set, and Weights[0] is zero everywhere else.
func sparsify(p *Params, rng *rand.Rand) {
	w := p.Weights[0]
	p.ActiveCols = []int{}
	for j := 0; j < w.Cols; j++ {
		if rng.IntN(2) == 0 {
			p.ActiveCols = append(p.ActiveCols, j)
			continue
		}
		for r := 0; r < w.Rows; r++ {
			w.Set(r, j, 0)
		}
	}
}

// The per-layer reference: each whole-model operation as the per-matrix code
// ran it before Params became one vector, layer by layer and row by row.

// refUpdate performs p += a·q a row at a time, the first layer restricted to
// cols0 when it is non-nil, skipping zero terms when skipZero is set (the
// shared-model write of every update mode).
func refUpdate(p *Params, a float64, q *Params, cols0 []int, skipZero bool) {
	add := func(d, s []float64, cols []int) {
		if cols == nil {
			cols = make([]int, len(d))
			for j := range cols {
				cols[j] = j
			}
		}
		for _, j := range cols {
			if v := a * s[j]; v != 0 || !skipZero {
				d[j] += v
			}
		}
	}
	for l, w := range p.Weights {
		var cols []int
		if l == 0 {
			cols = cols0
		}
		for r := 0; r < w.Rows; r++ {
			add(w.Row(r), q.Weights[l].Row(r), cols)
		}
		add(p.Biases[l].Data, q.Biases[l].Data, nil)
	}
}

// refSpans calls f on every weight span and then bias span of the models, in
// the order W¹, b¹, W², b², …, passing each model's slice of the span.
func refSpans(f func(s ...[]float64), ps ...*Params) {
	for l := range ps[0].Weights {
		ws, bs := make([][]float64, len(ps)), make([][]float64, len(ps))
		for i, p := range ps {
			ws[i], bs[i] = p.Weights[l].Data, p.Biases[l].Data
		}
		f(ws...)
		f(bs...)
	}
}

// paramsOps pairs every rewritten in-place Params operation with its
// per-layer reference; p is updated, q and r are read.
var paramsOps = []struct {
	name      string
	flat, ref func(p, q, r *Params, a float64)
}{
	{"Zero", func(p, _, _ *Params, _ float64) { p.Zero() }, func(p, _, _ *Params, _ float64) {
		refSpans(func(s ...[]float64) { clear(s[0]) }, p)
		p.ActiveCols = nil
	}},
	{"AddScaled", func(p, q, _ *Params, a float64) { p.AddScaled(a, q) }, func(p, q, _ *Params, a float64) {
		refUpdate(p, a, q, nil, false)
		p.ActiveCols = nil
	}},
	{"AddDecay", func(p, q, _ *Params, a float64) { p.AddDecay(a, q) }, func(p, q, _ *Params, a float64) {
		if a != 0 {
			refUpdate(p, a, q, p.ActiveCols, false)
		}
	}},
	{"ApplyUpdate/atomic", func(p, q, _ *Params, a float64) { p.ApplyUpdate(tensor.UpdateAtomic, a, q) }, func(p, q, _ *Params, a float64) {
		refUpdate(p, a, q, q.ActiveCols, true)
	}},
	{"ApplyUpdate/racy", func(p, q, _ *Params, a float64) { p.ApplyUpdate(tensor.UpdateRacy, a, q) }, func(p, q, _ *Params, a float64) {
		refUpdate(p, a, q, q.ActiveCols, true) // every mode skips a zero term
	}},
	{"DelayCompensate", func(p, q, r *Params, a float64) { p.DelayCompensate(a, q, r) }, func(p, q, r *Params, a float64) {
		if a != 0 {
			refSpans(func(s ...[]float64) {
				for i, g := range s[0] {
					s[0][i] = g + a*g*g*(s[1][i]-s[2][i])
				}
			}, p, q, r)
		}
	}},
	{"CopyFrom", func(p, q, _ *Params, _ float64) { p.CopyFrom(q) }, func(p, q, _ *Params, _ float64) {
		refSpans(func(s ...[]float64) { copy(s[0], s[1]) }, p, q)
		p.ActiveCols = nil
		if q.ActiveCols != nil {
			p.ActiveCols = append([]int{}, q.ActiveCols...)
		}
	}},
}

// sameBits reports whether a and b hold the same float64 bit patterns, any
// NaN matching any NaN: when both operands of an add are NaN the hardware
// returns the one the compiler happened to put first, so a payload says
// nothing about the operations that made it.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	})
}

// sameCols reports whether two ActiveCols hints are equal, nil-ness included.
func sameCols(a, b []int) bool { return (a == nil) == (b == nil) && slices.Equal(a, b) }

// TestParamsFlatOpsMatchPerLayerReference checks every operation that became
// one loop over Data against the per-layer code it replaced, bit for bit,
// with ±0, NaN and ±Inf among the values and the scalars, dense and with
// sparse ActiveCols gradients (AddDecay's receiver, ApplyUpdate's source).
func TestParamsFlatOpsMatchPerLayerReference(t *testing.T) {
	nets := []*Network{
		MustNetwork(testArch(false, ActSigmoid)),
		MustNetwork(Arch{InputDim: 9, OutputDim: 3, Activation: ActSigmoid}),
	}
	rng := rand.New(rand.NewPCG(28, 3))
	for trial := 0; trial < 200; trial++ {
		net := nets[trial%len(nets)]
		oneIn := []int{0, 5, 2}[trial%3]
		p, q, r := mixedParams(net, rng, oneIn), mixedParams(net, rng, oneIn), mixedParams(net, rng, oneIn)
		sparse := trial%4 >= 2
		if sparse {
			sparsify(p, rng)
			sparsify(q, rng)
		}
		a := rng.NormFloat64()
		if trial%5 == 0 {
			a = specials[rng.IntN(len(specials))]
		}
		for _, op := range paramsOps {
			got, want := p.Clone(), p.Clone()
			op.flat(got, q, r, a)
			op.ref(want, q, r, a)
			if !sameBits(got.Data, want.Data) || !sameCols(got.ActiveCols, want.ActiveCols) {
				t.Fatalf("trial %d (sparse %v, a=%v): %s differs from the per-layer reference", trial, sparse, a, op.name)
			}
		}

		var max, sum float64
		finite, n := true, 0
		refSpans(func(s ...[]float64) {
			for i, v := range s[0] {
				if d := math.Abs(v - s[1][i]); d > max {
					max = d
				}
				finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
				sum += v * v
				n++
			}
		}, p, q)
		if !sameBits([]float64{p.MaxAbsDiff(q), p.GradNorm()}, []float64{max, math.Sqrt(sum)}) ||
			p.AllFinite() != finite || p.NumParameters() != n {
			t.Fatalf("trial %d: reductions differ: MaxAbsDiff %v/%v GradNorm %v/%v AllFinite %v/%v NumParameters %d/%d",
				trial, p.MaxAbsDiff(q), max, p.GradNorm(), math.Sqrt(sum), p.AllFinite(), finite, p.NumParameters(), n)
		}

		for name, c := range map[string]*Params{"Clone": p.Clone(), "CloneAtomic": p.CloneAtomic()} {
			if !sameBits(c.Data, p.Data) || &c.Data[0] == &p.Data[0] {
				t.Fatalf("trial %d: %s is not a deep bit-exact copy", trial, name)
			}
		}
		if !slices.Equal(p.Clone().ActiveCols, p.ActiveCols) {
			t.Fatalf("trial %d: Clone lost ActiveCols", trial)
		}
	}
}
