package nn

import (
	"math"
	"math/rand/v2"
	"testing"

	"heterosgd/internal/tensor"
)

func testArch(multiLabel bool, act ActKind) Arch {
	return Arch{InputDim: 5, Hidden: []int{7, 6}, OutputDim: 4, Activation: act, MultiLabel: multiLabel}
}

func randomBatch(rng *rand.Rand, n, d, classes int, multiLabel bool) (*tensor.Matrix, Labels) {
	x := tensor.NewMatrix(n, d)
	x.Randomize(rng, 1)
	y := Labels{}
	if multiLabel {
		y.Multi = make([][]int32, n)
		for i := range y.Multi {
			k := 1 + rng.IntN(2)
			seen := map[int32]bool{}
			for len(y.Multi[i]) < k {
				l := int32(rng.IntN(classes))
				if !seen[l] {
					seen[l] = true
					y.Multi[i] = append(y.Multi[i], l)
				}
			}
		}
	} else {
		y.Class = make([]int, n)
		for i := range y.Class {
			y.Class[i] = rng.IntN(classes)
		}
	}
	return x, y
}

func TestArchValidate(t *testing.T) {
	good := testArch(false, ActSigmoid)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Arch{
		{InputDim: 0, OutputDim: 2},
		{InputDim: 3, OutputDim: 0},
		{InputDim: 3, Hidden: []int{0}, OutputDim: 2},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
	if _, err := NewNetwork(bad[0]); err == nil {
		t.Fatal("NewNetwork must reject invalid arch")
	}
}

func TestArchDerivedQuantities(t *testing.T) {
	a := testArch(false, ActSigmoid)
	dims := a.LayerDims()
	want := []int{5, 7, 6, 4}
	for i, d := range want {
		if dims[i] != d {
			t.Fatalf("dims[%d] = %d, want %d", i, dims[i], d)
		}
	}
	if a.NumLayers() != 3 {
		t.Fatalf("NumLayers = %d, want 3", a.NumLayers())
	}
	wantParams := 7*5 + 7 + 6*7 + 6 + 4*6 + 4
	if got := a.NumParameters(); got != wantParams {
		t.Fatalf("NumParameters = %d, want %d", got, wantParams)
	}
	wantFlops := 3.0 * 2 * (5*7 + 7*6 + 6*4)
	if got := a.FlopsPerExample(); got != wantFlops {
		t.Fatalf("FlopsPerExample = %v, want %v", got, wantFlops)
	}
	if a.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestParamsShape(t *testing.T) {
	net := MustNetwork(testArch(false, ActSigmoid))
	rng := rand.New(rand.NewPCG(1, 1))
	p := net.NewParams(InitXavier, rng)
	if len(p.Weights) != 3 {
		t.Fatalf("%d weight layers, want 3", len(p.Weights))
	}
	if p.Weights[0].Rows != 7 || p.Weights[0].Cols != 5 {
		t.Fatalf("W¹ shape %d×%d, want 7×5 (d₂×d₁)", p.Weights[0].Rows, p.Weights[0].Cols)
	}
	if p.NumParameters() != net.Arch.NumParameters() {
		t.Fatal("parameter count disagreement between Arch and Params")
	}
	if p.SizeBytes() != int64(p.NumParameters())*8 {
		t.Fatal("SizeBytes wrong")
	}
}

func TestParamsCloneAndCopy(t *testing.T) {
	net := MustNetwork(testArch(false, ActSigmoid))
	rng := rand.New(rand.NewPCG(1, 2))
	p := net.NewParams(InitXavier, rng)
	q := p.Clone()
	if p.MaxAbsDiff(q) != 0 {
		t.Fatal("clone differs from source")
	}
	q.Weights[0].Set(0, 0, 99)
	if p.Weights[0].At(0, 0) == 99 {
		t.Fatal("clone shares storage")
	}
	p.CopyFrom(q)
	if p.Weights[0].At(0, 0) != 99 {
		t.Fatal("CopyFrom did not copy")
	}
	p.Zero()
	if p.GradNorm() != 0 {
		t.Fatal("Zero did not clear")
	}
}

func TestParamsApplyUpdateModes(t *testing.T) {
	net := MustNetwork(testArch(false, ActSigmoid))
	rng := rand.New(rand.NewPCG(3, 1))
	grad := net.NewParams(InitXavier, rng)
	for _, mode := range []tensor.UpdateMode{tensor.UpdateAtomic, tensor.UpdateRacy} {
		p := net.NewParams(InitZero, rng)
		p.ApplyUpdate(mode, -0.5, grad)
		q := net.NewParams(InitZero, rng)
		q.AddScaled(-0.5, grad)
		if p.MaxAbsDiff(q) > 1e-15 {
			t.Fatalf("mode %v: ApplyUpdate differs from AddScaled", mode)
		}
	}
}

func TestForwardShapesAndDeterminism(t *testing.T) {
	net := MustNetwork(testArch(false, ActSigmoid))
	rng := rand.New(rand.NewPCG(5, 1))
	p := net.NewParams(InitXavier, rng)
	ws := net.NewWorkspace(8)
	x, _ := randomBatch(rng, 8, 5, 4, false)
	out1 := net.ForwardX(p, ws, DenseInput(x), 1).Clone()
	out2 := net.ForwardX(p, ws, DenseInput(x), 4).Clone()
	if out1.Rows != 8 || out1.Cols != 4 {
		t.Fatalf("logit shape %d×%d", out1.Rows, out1.Cols)
	}
	if !out1.Equal(out2, 1e-12) {
		t.Fatal("forward result depends on worker count")
	}
}

func TestWorkspaceGrowsForLargerBatch(t *testing.T) {
	net := MustNetwork(testArch(false, ActSigmoid))
	rng := rand.New(rand.NewPCG(5, 2))
	p := net.NewParams(InitXavier, rng)
	ws := net.NewWorkspace(2)
	x, y := randomBatch(rng, 32, 5, 4, false)
	grad := net.NewParams(InitZero, rng)
	loss := net.GradientX(p, ws, DenseInput(x), y, grad, 1)
	if math.IsNaN(loss) || loss <= 0 {
		t.Fatalf("suspicious loss %v", loss)
	}
}

func TestForwardInputMismatchPanics(t *testing.T) {
	net := MustNetwork(testArch(false, ActSigmoid))
	rng := rand.New(rand.NewPCG(5, 3))
	p := net.NewParams(InitXavier, rng)
	ws := net.NewWorkspace(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong input dim")
		}
	}()
	net.ForwardX(p, ws, DenseInput(tensor.NewMatrix(2, 9)), 1)
}

// gradientCheck compares the analytic gradient of every parameter against a
// central finite difference.
func gradientCheck(t *testing.T, arch Arch, seed uint64) {
	t.Helper()
	net := MustNetwork(arch)
	rng := rand.New(rand.NewPCG(seed, 77))
	p := net.NewParams(InitXavier, rng)
	ws := net.NewWorkspace(6)
	x, y := randomBatch(rng, 6, arch.InputDim, arch.OutputDim, arch.MultiLabel)
	grad := net.NewParams(InitZero, rng)
	net.GradientX(p, ws, DenseInput(x), y, grad, 1)

	const eps = 1e-6
	checkOne := func(get func() *float64, analytic float64, what string) {
		v := get()
		orig := *v
		*v = orig + eps
		lp := net.LossX(p, ws, DenseInput(x), y, 1)
		*v = orig - eps
		lm := net.LossX(p, ws, DenseInput(x), y, 1)
		*v = orig
		numeric := (lp - lm) / (2 * eps)
		scale := math.Max(1, math.Abs(numeric))
		if math.Abs(numeric-analytic) > 2e-5*scale {
			t.Fatalf("%s: analytic %.8g vs numeric %.8g", what, analytic, numeric)
		}
	}
	// Spot-check a spread of weights and biases in every layer.
	for l := range p.Weights {
		w := p.Weights[l]
		for _, idx := range []int{0, len(w.Data) / 2, len(w.Data) - 1} {
			i := idx
			checkOne(func() *float64 { return &w.Data[i] }, grad.Weights[l].Data[i], "weight")
		}
		bvec := p.Biases[l]
		for _, idx := range []int{0, bvec.Len() - 1} {
			i := idx
			checkOne(func() *float64 { return &bvec.Data[i] }, grad.Biases[l].Data[i], "bias")
		}
	}
}

func TestGradientCheckSigmoidSoftmax(t *testing.T) {
	gradientCheck(t, testArch(false, ActSigmoid), 11)
}

func TestGradientCheckReLU(t *testing.T) {
	gradientCheck(t, testArch(false, ActReLU), 12)
}

func TestGradientCheckTanh(t *testing.T) {
	gradientCheck(t, testArch(false, ActTanh), 13)
}

func TestGradientCheckMultiLabel(t *testing.T) {
	gradientCheck(t, testArch(true, ActSigmoid), 14)
}

func TestGradientCheckNoHiddenLayers(t *testing.T) {
	gradientCheck(t, Arch{InputDim: 4, OutputDim: 3, Activation: ActSigmoid}, 15)
}

func TestSGDStepReducesLoss(t *testing.T) {
	net := MustNetwork(testArch(false, ActSigmoid))
	rng := rand.New(rand.NewPCG(21, 1))
	p := net.NewParams(InitXavier, rng)
	ws := net.NewWorkspace(16)
	x, y := randomBatch(rng, 16, 5, 4, false)
	grad := net.NewParams(InitZero, rng)
	before := net.GradientX(p, ws, DenseInput(x), y, grad, 1)
	p.AddScaled(-0.5, grad)
	after := net.LossX(p, ws, DenseInput(x), y, 1)
	if after >= before {
		t.Fatalf("gradient step did not reduce loss: %v → %v", before, after)
	}
}

func TestAccuracyAndPredict(t *testing.T) {
	// A linear 2-class problem the network can fit quickly.
	arch := Arch{InputDim: 2, Hidden: []int{8}, OutputDim: 2, Activation: ActTanh}
	net := MustNetwork(arch)
	rng := rand.New(rand.NewPCG(31, 1))
	p := net.NewParams(InitXavier, rng)
	n := 128
	x := tensor.NewMatrix(n, 2)
	y := Labels{Class: make([]int, n)}
	for i := 0; i < n; i++ {
		c := i % 2
		x.Set(i, 0, rng.NormFloat64()+float64(4*c-2))
		x.Set(i, 1, rng.NormFloat64())
		y.Class[i] = c
	}
	ws := net.NewWorkspace(n)
	grad := net.NewParams(InitZero, rng)
	for it := 0; it < 200; it++ {
		net.GradientX(p, ws, DenseInput(x), y, grad, 1)
		p.AddScaled(-0.5, grad)
	}
	if acc := net.AccuracyX(p, ws, DenseInput(x), y, 1); acc < 0.95 {
		t.Fatalf("trained accuracy %v < 0.95", acc)
	}
	if got := len(net.PredictX(p, ws, DenseInput(x), 1)); got != n {
		t.Fatalf("Predict returned %d rows", got)
	}
}

func TestInitModes(t *testing.T) {
	net := MustNetwork(testArch(false, ActSigmoid))
	rng := rand.New(rand.NewPCG(41, 1))
	z := net.NewParams(InitZero, rng)
	if z.GradNorm() != 0 {
		t.Fatal("InitZero produced nonzero params")
	}
	x := net.NewParams(InitXavier, rng)
	if x.GradNorm() == 0 {
		t.Fatal("InitXavier produced zero params")
	}
	pp := net.NewParams(InitPaper, rng)
	if pp.GradNorm() == 0 {
		t.Fatal("InitPaper produced zero params")
	}
	for _, m := range []InitMode{InitXavier, InitPaper, InitZero, InitMode(9)} {
		if m.String() == "" {
			t.Fatal("empty InitMode name")
		}
	}
}

func TestPrecisionAtK(t *testing.T) {
	arch := Arch{InputDim: 2, OutputDim: 4, Activation: ActIdentity, MultiLabel: true}
	net := MustNetwork(arch)
	p := net.NewParams(InitZero, nil)
	// Logits = x·Wᵀ; craft W so example scores are the inputs broadcast.
	p.Weights[0].Set(0, 0, 1) // label 0 scores x[0]
	p.Weights[0].Set(1, 1, 1) // label 1 scores x[1]
	p.Biases[0].Set(2, -10)   // labels 2,3 always low
	p.Biases[0].Set(3, -20)
	ws := net.NewWorkspace(2)
	x := tensor.NewMatrixFrom(2, 2, []float64{5, 1, 1, 5})
	y := Labels{Multi: [][]int32{{0}, {0, 1}}}
	// Example 0: top-1 = label 0 ∈ truth → 1. Example 1: top-1 = label 1 ∈ truth → 1.
	if got := net.PrecisionAtKX(p, ws, DenseInput(x), y, 1, 1); got != 1 {
		t.Fatalf("P@1 = %v, want 1", got)
	}
	// P@2: example 0 hits {0} of {0,1} → 0.5; example 1 hits both → 1.
	if got := net.PrecisionAtKX(p, ws, DenseInput(x), y, 2, 1); got != 0.75 {
		t.Fatalf("P@2 = %v, want 0.75", got)
	}
	if got := net.PrecisionAtKX(p, ws, DenseInput(x), y, 0, 1); got != 0 {
		t.Fatal("k=0 must be 0")
	}
}

func TestPrecisionAtKPanicsOnMulticlass(t *testing.T) {
	net := MustNetwork(testArch(false, ActSigmoid))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.PrecisionAtKX(net.NewParams(InitZero, nil), net.NewWorkspace(1), DenseInput(tensor.NewMatrix(1, 5)), Labels{}, 1, 1)
}

// TestGradientDoesNotAllocate pins nn.grad_allocs at zero: a gradient on a
// workspace that has seen the batch size re-slices cached view headers and
// reuses its column scratch, dense or CSR (whose first call sizes that
// scratch). Before the delta-view cache one call on this 8-hidden-layer
// network allocated 34 headers.
func TestGradientDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 29))
	arch := Arch{InputDim: 60, Hidden: []int{16, 16, 16, 16, 16, 16, 16, 16}, OutputDim: 3, Activation: ActSigmoid}
	net := MustNetwork(arch)
	p := net.NewParams(InitXavier, rng)
	grad := net.NewParams(InitZero, nil)
	ws := net.NewWorkspace(4)
	dense, sparse, y := sparseBatch(rng, 4, arch.InputDim, arch.OutputDim, 0.1)
	for name, x := range map[string]Input{"dense": DenseInput(dense), "csr": SparseInput(sparse)} {
		net.GradientX(p, ws, x, y, grad, 1)
		if allocs := testing.AllocsPerRun(50, func() { net.GradientX(p, ws, x, y, grad, 1) }); allocs != 0 {
			t.Errorf("%s: GradientX allocates %.0f times per call, want 0", name, allocs)
		}
	}
}
