package nn

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"heterosgd/internal/tensor"
)

func TestSigmoidStable(t *testing.T) {
	cases := map[float64]float64{0: 0.5, 1000: 1, -1000: 0}
	for in, want := range cases {
		if got := Sigmoid(in); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Sigmoid(%v) = %v, want %v", in, got, want)
		}
	}
	if got := Sigmoid(2); math.Abs(got-1/(1+math.Exp(-2))) > 1e-15 {
		t.Fatalf("Sigmoid(2) = %v", got)
	}
}

func TestSoftmaxCEKnownValue(t *testing.T) {
	// Uniform logits over k classes → loss = log(k), grad = 1/k − onehot.
	k := 4
	logits := tensor.NewMatrix(1, k)
	delta := tensor.NewMatrix(1, k)
	y := Labels{Class: []int{2}}
	loss := softmaxCEBackward(logits, y, delta)
	if math.Abs(loss-math.Log(float64(k))) > 1e-12 {
		t.Fatalf("loss = %v, want log(%d)", loss, k)
	}
	for j := 0; j < k; j++ {
		want := 0.25
		if j == 2 {
			want -= 1
		}
		if math.Abs(delta.At(0, j)-want) > 1e-12 {
			t.Fatalf("delta[%d] = %v, want %v", j, delta.At(0, j), want)
		}
	}
	if l2 := softmaxCELoss(logits, y); math.Abs(l2-loss) > 1e-12 {
		t.Fatal("softmaxCELoss disagrees with backward variant")
	}
}

func TestSoftmaxCEStableAtExtremeLogits(t *testing.T) {
	logits := tensor.NewMatrixFrom(1, 3, []float64{1e4, -1e4, 0})
	delta := tensor.NewMatrix(1, 3)
	loss := softmaxCEBackward(logits, Labels{Class: []int{0}}, delta)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("unstable loss %v", loss)
	}
	if loss > 1e-6 {
		t.Fatalf("confident correct prediction should have ~0 loss, got %v", loss)
	}
	lossWrong := softmaxCELoss(tensor.NewMatrixFrom(1, 2, []float64{-5e3, 5e3}), Labels{Class: []int{0}})
	if math.IsInf(lossWrong, 0) || math.Abs(lossWrong-1e4) > 1 {
		t.Fatalf("wrong-class extreme loss = %v, want ≈1e4", lossWrong)
	}
}

func TestSigmoidBCEKnownValue(t *testing.T) {
	// Zero logits, one active label of two → loss = 2·log 2, grads ±0.5.
	logits := tensor.NewMatrix(1, 2)
	delta := tensor.NewMatrix(1, 2)
	y := Labels{Multi: [][]int32{{1}}}
	loss := sigmoidBCEBackward(logits, y, delta)
	if math.Abs(loss-2*math.Ln2) > 1e-12 {
		t.Fatalf("loss = %v, want 2ln2", loss)
	}
	if math.Abs(delta.At(0, 0)-0.5) > 1e-12 || math.Abs(delta.At(0, 1)+0.5) > 1e-12 {
		t.Fatalf("delta = [%v %v], want [0.5 −0.5]", delta.At(0, 0), delta.At(0, 1))
	}
	if l2 := sigmoidBCELoss(logits, y); math.Abs(l2-loss) > 1e-12 {
		t.Fatal("sigmoidBCELoss disagrees with backward variant")
	}
}

func TestSigmoidBCEStableAtExtremeLogits(t *testing.T) {
	logits := tensor.NewMatrixFrom(1, 2, []float64{1e4, -1e4})
	delta := tensor.NewMatrix(1, 2)
	loss := sigmoidBCEBackward(logits, Labels{Multi: [][]int32{{0}}}, delta)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("unstable BCE loss: %v", loss)
	}
	if loss > 1e-6 {
		t.Fatalf("perfect prediction should have ~0 loss, got %v", loss)
	}
}

func TestLabelsSliceAndLen(t *testing.T) {
	y := Labels{Class: []int{0, 1, 2, 3}}
	s := y.Slice(1, 3)
	if s.Len() != 2 || s.Class[0] != 1 {
		t.Fatalf("bad class slice: %+v", s)
	}
	m := Labels{Multi: [][]int32{{0}, {1}, {2}}}
	sm := m.Slice(2, 3)
	if sm.Len() != 1 || sm.Multi[0][0] != 2 {
		t.Fatalf("bad multi slice: %+v", sm)
	}
}

// Property: softmax gradient rows always sum to 0 (softmax sums to 1, onehot
// sums to 1) and the loss is non-negative.
func TestQuickSoftmaxGradientRowSum(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 1))
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 3))
		k := 2 + r.IntN(6)
		logits := tensor.NewMatrix(1, k)
		logits.Randomize(rng, 5)
		delta := tensor.NewMatrix(1, k)
		loss := softmaxCEBackward(logits, Labels{Class: []int{r.IntN(k)}}, delta)
		if loss < -1e-12 {
			return false
		}
		sum := 0.0
		for _, v := range delta.Row(0) {
			sum += v
		}
		return math.Abs(sum) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: BCE delta entries are finite and lie in [−1, 1]: σ(z) ∈ [0, 1]
// and labels are 0/1. The interval is closed because σ(z) rounds to exactly
// 1 for z ≥ 36.8 (and 1 − σ(z) to exactly 1 for z ≤ −36.8), so ±1 is the
// correct float64 delta of a saturated logit.
func TestQuickBCEDeltaRange(t *testing.T) {
	inRange := func(logits *tensor.Matrix, label int32) bool {
		delta := tensor.NewMatrix(1, logits.Cols)
		sigmoidBCEBackward(logits, Labels{Multi: [][]int32{{label}}}, delta)
		for _, v := range delta.Row(0) {
			if math.IsNaN(v) || v < -1 || v > 1 {
				return false
			}
		}
		return true
	}
	// The boundary, every run: σ(40) − 0 is 1 and σ(−40) − 1 is −1.
	if !inRange(tensor.NewMatrixFrom(1, 2, []float64{40, -40}), 1) {
		t.Fatal("saturated logits ±40 give a delta outside [−1, 1]")
	}
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 5))
		k := 2 + r.IntN(6)
		logits := tensor.NewMatrix(1, k)
		logits.Randomize(r, 10)
		return inRange(logits, int32(r.IntN(k)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
