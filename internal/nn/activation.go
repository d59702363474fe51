// Package nn implements the fully-connected deep neural networks trained by
// the heterosgd framework: dense layers, element-wise activations, and the
// numerically-stable softmax / sigmoid cross-entropy losses from the paper
// (§III). Forward and backward passes operate on mini-batches held in
// tensor.Matrix values and reuse per-worker Workspace buffers so the
// steady-state training loop performs no allocation.
package nn

import (
	"fmt"
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

// String returns the activation name.
func (k ActKind) String() string {
	switch k {
	case ActSigmoid:
		return "sigmoid"
	case ActReLU:
		return "relu"
	case ActTanh:
		return "tanh"
	case ActIdentity:
		return "identity"
	default:
		return "unknown"
	}
}

// ParseActKind converts a name to an ActKind.
func ParseActKind(name string) (ActKind, error) {
	switch name {
	case "sigmoid":
		return ActSigmoid, nil
	case "relu":
		return ActReLU, nil
	case "tanh":
		return ActTanh, nil
	case "identity":
		return ActIdentity, nil
	default:
		return 0, fmt.Errorf("nn: unknown activation %q", name)
	}
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
			delta[i] *= 1 - a*a
		}
	case ActIdentity:
	}
}
