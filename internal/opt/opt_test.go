package opt

import (
	"math"
	"math/rand/v2"
	"testing"

	"heterosgd/internal/nn"
)

func protoParams(t *testing.T) (*nn.Network, *nn.Params) {
	t.Helper()
	net := nn.MustNetwork(nn.Arch{InputDim: 3, Hidden: []int{4}, OutputDim: 2, Activation: nn.ActTanh})
	rng := rand.New(rand.NewPCG(1, 1))
	return net, net.NewParams(nn.InitXavier, rng)
}

func TestKindNamesAndParsing(t *testing.T) {
	for _, k := range []Kind{KindSGD, KindMomentum, KindAdaGrad, KindAdam} {
		name := k.String()
		if name == "unknown" || name == "" {
			t.Fatalf("bad name for kind %d", int(k))
		}
		got, err := ParseKind(name)
		if err != nil || got != k {
			t.Fatalf("round trip %q: %v %v", name, got, err)
		}
	}
	if got, err := ParseKind(""); err != nil || got != KindSGD {
		t.Fatal("empty name should default to sgd")
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("expected error")
	}
	if Kind(99).String() != "unknown" {
		t.Fatal("unknown kind name")
	}
}

func TestSGDStepIsScaledNegativeGradient(t *testing.T) {
	_, proto := protoParams(t)
	o := New(KindSGD, proto, HyperParams{})
	grad := proto.Clone()
	delta := proto.Clone()
	o.Step(grad, delta, 0.5)
	want := proto.Clone()
	want.Zero()
	want.AddScaled(-0.5, grad)
	if delta.MaxAbsDiff(want) > 1e-15 {
		t.Fatal("sgd delta wrong")
	}
	o.Reset() // must not panic on stateless optimizer
}

func TestMomentumAccumulates(t *testing.T) {
	_, proto := protoParams(t)
	o := New(KindMomentum, proto, HyperParams{Momentum: 0.5})
	grad := proto.Clone()
	delta := proto.Clone()
	// First step: v = g → delta = −lr·g.
	o.Step(grad, delta, 1)
	if diff := delta.Weights[0].At(0, 0) + grad.Weights[0].At(0, 0); math.Abs(diff) > 1e-15 {
		t.Fatalf("first momentum step wrong: %v", diff)
	}
	// Second step: v = 0.5g + g = 1.5g → delta = −1.5g.
	o.Step(grad, delta, 1)
	if diff := delta.Weights[0].At(0, 0) + 1.5*grad.Weights[0].At(0, 0); math.Abs(diff) > 1e-15 {
		t.Fatalf("second momentum step wrong: %v", diff)
	}
	o.Reset()
	o.Step(grad, delta, 1)
	if diff := delta.Weights[0].At(0, 0) + grad.Weights[0].At(0, 0); math.Abs(diff) > 1e-15 {
		t.Fatal("reset did not clear velocity")
	}
}

func TestAdaGradShrinksRepeatedCoordinates(t *testing.T) {
	_, proto := protoParams(t)
	o := New(KindAdaGrad, proto, HyperParams{})
	grad := proto.Clone()
	grad.Zero()
	grad.Weights[0].Set(0, 0, 1)
	delta := proto.Clone()
	o.Step(grad, delta, 1)
	first := math.Abs(delta.Weights[0].At(0, 0))
	o.Step(grad, delta, 1)
	second := math.Abs(delta.Weights[0].At(0, 0))
	if second >= first {
		t.Fatalf("adagrad must shrink repeated steps: %v → %v", first, second)
	}
	if delta.Weights[0].At(1, 1) != 0 {
		t.Fatal("untouched coordinates must stay zero")
	}
}

func TestAdamBiasCorrection(t *testing.T) {
	_, proto := protoParams(t)
	o := New(KindAdam, proto, HyperParams{})
	grad := proto.Clone()
	grad.Zero()
	grad.Weights[0].Set(0, 0, 0.3)
	delta := proto.Clone()
	o.Step(grad, delta, 0.1)
	// With bias correction the first step is ≈ −lr·sign(g) for any g.
	got := delta.Weights[0].At(0, 0)
	if math.Abs(got+0.1) > 1e-6 {
		t.Fatalf("first adam step %v, want ≈ −0.1", got)
	}
}

// Every optimizer must minimize a separable quadratic.
func TestAllOptimizersMinimizeQuadratic(t *testing.T) {
	for _, kind := range []Kind{KindSGD, KindMomentum, KindAdaGrad, KindAdam} {
		_, proto := protoParams(t)
		target := proto.Clone() // minimize ‖p − target‖²/2 starting from 0
		p := proto.Clone()
		p.Zero()
		o := New(kind, proto, HyperParams{})
		grad := proto.Clone()
		delta := proto.Clone()
		lr := 0.1
		if kind == KindAdaGrad {
			lr = 0.5
		}
		for it := 0; it < 500; it++ {
			// grad = p − target.
			grad.Zero()
			grad.AddScaled(1, p)
			grad.AddScaled(-1, target)
			o.Step(grad, delta, lr)
			p.AddScaled(1, delta)
		}
		if d := p.MaxAbsDiff(target); d > 0.05 {
			t.Fatalf("%v: distance to optimum %v after 500 steps", kind, d)
		}
	}
}

func TestOptimizerStateIsIndependent(t *testing.T) {
	_, proto := protoParams(t)
	a := New(KindMomentum, proto, HyperParams{})
	b := New(KindMomentum, proto, HyperParams{})
	grad := proto.Clone()
	delta := proto.Clone()
	a.Step(grad, delta, 1)
	a.Step(grad, delta, 1)
	// b's first step must be unaffected by a's history.
	b.Step(grad, delta, 1)
	if diff := delta.Weights[0].At(0, 0) + grad.Weights[0].At(0, 0); math.Abs(diff) > 1e-15 {
		t.Fatal("optimizers share state")
	}
}

// refOptimizer is each update rule as it ran when its state was a Params per
// buffer: the same expressions, walked a weight or bias span at a time. It is
// the reference the flat loops must match bit for bit.
type refOptimizer struct {
	kind   Kind
	hp     HyperParams
	t      int
	s1, s2 *nn.Params // velocity or accumulator; Adam's m and v
}

func newRefOptimizer(kind Kind, proto *nn.Params, hp HyperParams) *refOptimizer {
	r := &refOptimizer{kind: kind, hp: hp, s1: proto.Clone(), s2: proto.Clone()}
	for _, s := range []*nn.Params{r.s1, r.s2} {
		for l := range s.Weights {
			clear(s.Weights[l].Data)
			clear(s.Biases[l].Data)
		}
	}
	return r
}

func (r *refOptimizer) step(grad, delta *nn.Params, lr float64) {
	r.t++
	b1, b2, eps := r.hp.Beta1, r.hp.Beta2, r.hp.Eps
	c1, c2 := 1-math.Pow(b1, float64(r.t)), 1-math.Pow(b2, float64(r.t))
	span := func(g, s1, s2, d []float64) {
		switch r.kind {
		case KindSGD:
			clear(d)
			for i := range d {
				d[i] += -lr * g[i]
			}
		case KindMomentum:
			for i := range s1 {
				s1[i] *= r.hp.Momentum
			}
			for i := range s1 {
				s1[i] += 1 * g[i]
			}
			clear(d)
			for i := range d {
				d[i] += -lr * s1[i]
			}
		case KindAdaGrad:
			for i := range g {
				s1[i] += g[i] * g[i]
				d[i] = -lr * g[i] / (math.Sqrt(s1[i]) + eps)
			}
		case KindAdam:
			for i, gi := range g {
				s1[i] = b1*s1[i] + (1-b1)*gi
				s2[i] = b2*s2[i] + (1-b2)*gi*gi
				d[i] = -lr * (s1[i] / c1) / (math.Sqrt(s2[i]/c2) + eps)
			}
		}
	}
	for l := range grad.Weights {
		span(grad.Weights[l].Data, r.s1.Weights[l].Data, r.s2.Weights[l].Data, delta.Weights[l].Data)
		span(grad.Biases[l].Data, r.s1.Biases[l].Data, r.s2.Biases[l].Data, delta.Biases[l].Data)
	}
}

// TestFlatStepsMatchPerLayerReference: every rule's loop over the flat
// vector writes exactly the deltas the per-layer code wrote, over steps
// whose gradients carry ±0, NaN and ±Inf (so the state carries them too),
// and again after a Reset.
func TestFlatStepsMatchPerLayerReference(t *testing.T) {
	_, proto := protoParams(t)
	hp := HyperParams{Momentum: 0.7, Beta1: 0.8, Beta2: 0.99, Eps: 1e-6}
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewPCG(28, 4))
	for _, kind := range []Kind{KindSGD, KindMomentum, KindAdaGrad, KindAdam} {
		o, ref := New(kind, proto, hp), newRefOptimizer(kind, proto, hp)
		delta, want := proto.Clone(), proto.Clone()
		for step := 0; step < 12; step++ {
			if step == 8 {
				o.Reset()
				ref = newRefOptimizer(kind, proto, hp)
			}
			grad := proto.Clone()
			for i := range grad.Data {
				grad.Data[i] = rng.NormFloat64()
				if step%2 == 1 && rng.IntN(4) == 0 {
					grad.Data[i] = specials[rng.IntN(len(specials))]
				}
			}
			lr := []float64{0.1, 0, 3}[step%3]
			o.Step(grad, delta, lr)
			ref.step(grad, want, lr)
			for i, d := range delta.Data {
				if w := want.Data[i]; math.Float64bits(d) != math.Float64bits(w) && !(math.IsNaN(d) && math.IsNaN(w)) {
					t.Fatalf("%v step %d: delta[%d] = %v (%#x), per-layer reference %v (%#x)",
						kind, step, i, d, math.Float64bits(d), w, math.Float64bits(w))
				}
			}
		}
	}
}
