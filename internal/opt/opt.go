// Package opt implements the gradient-descent update rules the framework's
// workers can apply: plain SGD (the paper's default), momentum SGD,
// AdaGrad, and Adam. The paper's framework section (§V) claims support for
// "most existing SGD algorithms [15]"; this package is that extension
// point: an Optimizer turns a gradient into a parameter delta, and the
// engines apply the delta to the shared model under the configured write
// discipline.
//
// Optimizer state (momentum buffers, second moments) is worker-private:
// each worker adapts its own trajectory while the model itself stays
// shared, which is the only coherent option under asynchronous updates.
package opt

import (
	"fmt"
	"math"

	"heterosgd/internal/nn"
)

// Kind names an update rule.
type Kind int

const (
	// KindSGD is plain stochastic gradient descent (the paper's rule).
	KindSGD Kind = iota
	// KindMomentum is SGD with heavy-ball momentum.
	KindMomentum
	// KindAdaGrad scales each coordinate by accumulated squared gradients.
	KindAdaGrad
	// KindAdam combines first- and second-moment estimates.
	KindAdam
)

var kindNames = [...]string{KindSGD: "sgd", KindMomentum: "momentum", KindAdaGrad: "adagrad", KindAdam: "adam"}

// String returns the optimizer name.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// ParseKind maps a name to a Kind.
func ParseKind(name string) (Kind, error) {
	for k, n := range kindNames {
		if n == name || name == "" && Kind(k) == KindSGD {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("opt: unknown optimizer %q", name)
}

// Optimizer transforms gradients into model updates. Implementations are
// stateful and must not be shared between concurrent workers.
type Optimizer interface {
	// Name identifies the rule.
	Name() string
	// Step writes the parameter delta for the given gradient and learning
	// rate into delta (delta = −lr·adjusted(grad)); the caller applies it
	// to the shared model. grad and delta may not alias.
	Step(grad, delta *nn.Params, lr float64)
	// Reset clears optimizer state.
	Reset()
}

// New builds an optimizer of the given kind with state shaped like proto.
func New(kind Kind, proto *nn.Params, cfg HyperParams) Optimizer {
	n := proto.NumParameters()
	switch kind {
	case KindMomentum:
		return &momentum{mu: cfg.momentumOrDefault(), velocity: make([]float64, n)}
	case KindAdaGrad:
		return &adagrad{eps: cfg.epsOrDefault(), accum: make([]float64, n)}
	case KindAdam:
		return &adam{
			beta1: cfg.beta1OrDefault(), beta2: cfg.beta2OrDefault(), eps: cfg.epsOrDefault(),
			m: make([]float64, n), v: make([]float64, n),
		}
	default:
		return sgd{}
	}
}

// HyperParams carries optimizer hyperparameters; zero values select the
// standard defaults.
type HyperParams struct {
	// Momentum is the heavy-ball coefficient (default 0.9).
	Momentum float64
	// Beta1, Beta2 are Adam's moment decays (defaults 0.9, 0.999).
	Beta1, Beta2 float64
	// Eps is the denominator floor (default 1e-8).
	Eps float64
}

func (h HyperParams) momentumOrDefault() float64 {
	if h.Momentum == 0 {
		return 0.9
	}
	return h.Momentum
}

func (h HyperParams) beta1OrDefault() float64 {
	if h.Beta1 == 0 {
		return 0.9
	}
	return h.Beta1
}

func (h HyperParams) beta2OrDefault() float64 {
	if h.Beta2 == 0 {
		return 0.999
	}
	return h.Beta2
}

func (h HyperParams) epsOrDefault() float64 {
	if h.Eps == 0 {
		return 1e-8
	}
	return h.Eps
}

// sgd is the stateless plain-SGD rule: delta = −lr·grad.
type sgd struct{}

func (sgd) Name() string { return "sgd" }

func (sgd) Step(grad, delta *nn.Params, lr float64) {
	delta.Zero()
	delta.AddScaled(-lr, grad)
}

func (sgd) Reset() {}

// momentum is heavy-ball SGD: v ← µv + grad; delta = −lr·v.
type momentum struct {
	mu       float64
	velocity []float64
}

func (m *momentum) Name() string { return "momentum" }

// Step writes delta as 0 + (−lr·v), not −lr·v: the two differ where −lr·v
// is −0, and the pinned trajectories were made with the former. The
// conversion rounds µv on its own, so no port fuses it into the add.
func (m *momentum) Step(grad, delta *nn.Params, lr float64) {
	v, d := m.velocity, delta.Data[:len(m.velocity)]
	for i, g := range grad.Data[:len(v)] {
		v[i] = float64(v[i]*m.mu) + g
		d[i] = 0 + float64(-lr*v[i])
	}
	delta.ActiveCols = nil
}

func (m *momentum) Reset() { clear(m.velocity) }

// adagrad scales coordinates by accumulated squared gradients.
type adagrad struct {
	eps   float64
	accum []float64
}

func (a *adagrad) Name() string { return "adagrad" }

func (a *adagrad) Step(grad, delta *nn.Params, lr float64) {
	acc, d := a.accum, delta.Data[:len(a.accum)]
	for i, g := range grad.Data[:len(acc)] {
		acc[i] += float64(g * g)
		d[i] = -lr * g / (math.Sqrt(acc[i]) + a.eps)
	}
}

func (a *adagrad) Reset() { clear(a.accum) }

// adam keeps exponential first and second gradient moments with bias
// correction.
type adam struct {
	beta1, beta2, eps float64
	t                 int
	m, v              []float64
}

func (a *adam) Name() string { return "adam" }

func (a *adam) Step(grad, delta *nn.Params, lr float64) {
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	b1, b2 := a.beta1, a.beta2
	m, v, d := a.m, a.v, delta.Data[:len(a.m)]
	for i, gi := range grad.Data[:len(m)] {
		m[i] = float64(b1*m[i]) + float64((1-b1)*gi)
		v[i] = float64(b2*v[i]) + float64((1-b2)*gi*gi)
		mHat := m[i] / c1
		vHat := v[i] / c2
		d[i] = -lr * mHat / (math.Sqrt(vHat) + a.eps)
	}
}

func (a *adam) Reset() {
	a.t = 0
	clear(a.m)
	clear(a.v)
}
