package nn

import (
	"math/rand/v2"
	"testing"

	"heterosgd/internal/tensor"
)

// sparseBatch draws a random batch with the given density and returns both
// representations plus class labels.
func sparseBatch(rng *rand.Rand, b, dim, classes int, density float64) (*tensor.Matrix, *tensor.CSR, Labels) {
	x := tensor.NewMatrix(b, dim)
	for i := 0; i < b; i++ {
		row := x.Row(i)
		for j := range row {
			if rng.Float64() < density {
				row[j] = rng.NormFloat64()
			}
		}
	}
	y := Labels{Class: make([]int, b)}
	for i := range y.Class {
		y.Class[i] = rng.IntN(classes)
	}
	return x, tensor.CSRFromDense(x), y
}

// The sparse forward/backward path must agree with the dense path bit-for-
// nearly-bit: same logits, same loss, same gradient — including when the
// gradient buffer is reused across batches with different active columns
// (the stale-column zeroing path) and after a dense gradient densified it.
func TestSparseGradientMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 1))
	net := MustNetwork(Arch{InputDim: 120, Hidden: []int{17, 9}, OutputDim: 5, Activation: ActSigmoid})
	p := net.NewParams(InitXavier, rng)
	wsD := net.NewWorkspace(16)
	wsS := net.NewWorkspace(16)
	gradD := net.NewParams(InitZero, rng)
	gradS := net.NewParams(InitZero, rng)

	for trial := 0; trial < 20; trial++ {
		b := 1 + rng.IntN(16)
		x, xs, y := sparseBatch(rng, b, net.Arch.InputDim, net.Arch.OutputDim, 0.05)
		outD := net.ForwardX(p, wsD, DenseInput(x), 1)
		outS := net.ForwardX(p, wsS, SparseInput(xs), 1)
		if !outS.Equal(outD, 1e-12) {
			t.Fatalf("trial %d: sparse logits deviate from dense", trial)
		}
		lossD := net.GradientX(p, wsD, DenseInput(x), y, gradD, 1)
		lossS := net.GradientX(p, wsS, SparseInput(xs), y, gradS, 2)
		if d := lossD - lossS; d > 1e-12 || d < -1e-12 {
			t.Fatalf("trial %d: loss %v vs %v", trial, lossD, lossS)
		}
		if gradS.ActiveCols == nil && xs.NNZ() > 0 {
			t.Fatalf("trial %d: sparse gradient did not record active columns", trial)
		}
		for l := range gradD.Weights {
			if !gradS.Weights[l].Equal(gradD.Weights[l], 1e-12) {
				t.Fatalf("trial %d: layer %d weight gradient deviates", trial, l)
			}
			if d := gradS.Biases[l]; !tensor.NewMatrixFrom(1, d.Len(), d.Data).Equal(
				tensor.NewMatrixFrom(1, d.Len(), gradD.Biases[l].Data), 1e-12) {
				t.Fatalf("trial %d: layer %d bias gradient deviates", trial, l)
			}
		}
		// Occasionally densify gradS so the next sparse call takes the
		// full-Zero path instead of ZeroCols.
		if trial%5 == 4 {
			net.GradientX(p, wsS, DenseInput(x), y, gradS, 1)
			if gradS.ActiveCols != nil {
				t.Fatal("dense gradient must clear ActiveCols")
			}
		}
	}
}

// ApplyUpdate and AddDecay with a sparse gradient must equal their dense
// counterparts applied to the same values.
func TestSparseApplyUpdateAndDecay(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 2))
	net := MustNetwork(Arch{InputDim: 80, Hidden: []int{11}, OutputDim: 3, Activation: ActSigmoid})
	p := net.NewParams(InitXavier, rng)
	ws := net.NewWorkspace(8)
	grad := net.NewParams(InitZero, rng)
	_, xs, y := sparseBatch(rng, 8, 80, 3, 0.1)
	net.GradientX(p, ws, SparseInput(xs), y, grad, 1)

	wantUpd := p.Clone()
	gotUpd := p.Clone()
	dense := grad.Clone()
	dense.ActiveCols = nil
	wantUpd.ApplyUpdate(tensor.UpdateRacy, -0.1, dense)
	gotUpd.ApplyUpdate(tensor.UpdateAtomic, -0.1, grad)
	if wantUpd.MaxAbsDiff(gotUpd) > 1e-15 {
		t.Fatal("column-restricted ApplyUpdate deviates from dense update")
	}

	// AddDecay restricted to active columns == dense AddScaled of a model
	// zeroed outside them.
	gDecay := grad.Clone()
	gDecay.AddDecay(1e-3, p)
	gWant := dense.Clone()
	masked := p.Clone()
	keep := map[int]bool{}
	for _, j := range grad.ActiveCols {
		keep[j] = true
	}
	w0 := masked.Weights[0]
	for i := 0; i < w0.Rows; i++ {
		row := w0.Row(i)
		for j := range row {
			if !keep[j] {
				row[j] = 0
			}
		}
	}
	gWant.AddScaled(1e-3, masked)
	if gWant.MaxAbsDiff(gDecay) > 1e-15 {
		t.Fatal("AddDecay deviates from masked dense decay")
	}
	// The invariant survives decay: still zero outside ActiveCols.
	for i := 0; i < gDecay.Weights[0].Rows; i++ {
		row := gDecay.Weights[0].Row(i)
		for j, v := range row {
			if !keep[j] && v != 0 {
				t.Fatalf("decay densified column %d", j)
			}
		}
	}
}

// Density-aware cost terms: density scales only the first layer's FLOPs and
// the input transfer bytes.
func TestArchDensityCostTerms(t *testing.T) {
	dense := Arch{InputDim: 1000, Hidden: []int{100}, OutputDim: 10, Activation: ActSigmoid}
	sparse := dense
	sparse.InputDensity = 0.01
	if dense.Density() != 1 || sparse.Density() != 0.01 {
		t.Fatalf("Density() = %v, %v", dense.Density(), sparse.Density())
	}
	first := 3 * 2.0 * 1000 * 100
	if got := dense.FlopsPerExample() - sparse.FlopsPerExample(); got != first*(1-0.01) {
		t.Fatalf("density FLOP reduction = %v, want %v", got, first*(1-0.01))
	}
	if dense.InputBytesPerExample() != 8*1000 {
		t.Fatalf("dense bytes %v", dense.InputBytesPerExample())
	}
	if sparse.InputBytesPerExample() != 16*1000*0.01 {
		t.Fatalf("sparse bytes %v", sparse.InputBytesPerExample())
	}
	if sparse.NumParameters() != dense.NumParameters() {
		t.Fatal("density must not change parameter count")
	}
}
