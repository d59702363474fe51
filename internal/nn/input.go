package nn

import (
	"fmt"

	"heterosgd/internal/tensor"
)

// Input is a batch of examples in either dense (row-major Matrix) or sparse
// (CSR) form. Exactly one field is set. The network's forward and backward
// passes dispatch on the representation: sparse input replaces the
// first-layer GEMMs with SpMM/SpMMT kernels and produces a gradient that
// touches only the batch's nonzero feature columns.
type Input struct {
	Dense  *tensor.Matrix
	Sparse *tensor.CSR
}

// DenseInput wraps a dense matrix as an Input.
func DenseInput(m *tensor.Matrix) Input { return Input{Dense: m} }

// SparseInput wraps a CSR matrix as an Input.
func SparseInput(a *tensor.CSR) Input { return Input{Sparse: a} }

// Rows returns the number of examples.
func (in Input) Rows() int {
	if in.Sparse != nil {
		return in.Sparse.Rows
	}
	if in.Dense != nil {
		return in.Dense.Rows
	}
	return 0
}

// Cols returns the feature dimension.
func (in Input) Cols() int {
	if in.Sparse != nil {
		return in.Sparse.Cols
	}
	if in.Dense != nil {
		return in.Dense.Cols
	}
	return 0
}

// RowView returns a zero-copy view of rows [i, i+n), preserving the
// representation.
func (in Input) RowView(i, n int) Input {
	if in.Sparse != nil {
		return Input{Sparse: in.Sparse.RowView(i, n)}
	}
	if in.Dense == nil {
		panic(fmt.Sprintf("nn: row view [%d,%d) of empty input", i, i+n))
	}
	return Input{Dense: in.Dense.RowView(i, n)}
}
