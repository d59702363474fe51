// Package nn implements the fully-connected deep neural networks trained by
// the heterosgd framework: dense layers, element-wise activations, and the
// numerically-stable softmax / sigmoid cross-entropy losses from the paper
// (§III). Forward and backward passes operate on mini-batches held in
// Input values (a dense tensor.Matrix or a CSR matrix) and reuse per-worker
// Workspace buffers so the steady-state training loop performs no
// allocation.
package nn

import (
	"math"

	"heterosgd/internal/tensor"
)

// ActKind identifies an element-wise activation function.
type ActKind int

const (
	// ActSigmoid is the logistic function, the paper's hidden-layer
	// activation.
	ActSigmoid ActKind = iota
	// ActReLU is max(0, x).
	ActReLU
	// ActTanh is the hyperbolic tangent.
	ActTanh
	// ActIdentity applies no nonlinearity (used for the output layer,
	// whose nonlinearity is folded into the loss).
	ActIdentity
)

var actKindNames = [...]string{ActSigmoid: "sigmoid", ActReLU: "relu", ActTanh: "tanh", ActIdentity: "identity"}

// String returns the activation name.
func (k ActKind) String() string {
	if k >= 0 && int(k) < len(actKindNames) && actKindNames[k] != "" {
		return actKindNames[k]
	}
	return "unknown"
}

// applyActivation transforms pre-activations z into activations in place.
func applyActivation(k ActKind, data []float64) {
	switch k {
	case ActSigmoid:
		tensor.SigmoidSlice(data)
	case ActReLU:
		for i, v := range data {
			if v < 0 {
				data[i] = 0
			}
		}
	case ActTanh:
		for i, v := range data {
			data[i] = math.Tanh(v)
		}
	case ActIdentity:
	}
}

// applyActivationGrad multiplies delta by f'(z) expressed in terms of the
// activations a = f(z), in place. All supported activations admit this form:
// sigmoid' = a(1-a), tanh' = 1-a², relu' = 1{a>0}.
func applyActivationGrad(k ActKind, activations, delta []float64) {
	switch k {
	case ActSigmoid:
		for i, a := range activations {
			delta[i] *= a * (1 - a)
		}
	case ActReLU:
		for i, a := range activations {
			if a <= 0 {
				delta[i] = 0
			}
		}
	case ActTanh:
		for i, a := range activations {
			delta[i] *= 1 - float64(a*a)
		}
	case ActIdentity:
	}
}
