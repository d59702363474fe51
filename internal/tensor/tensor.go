// Package tensor provides the dense linear-algebra kernels used by the
// heterosgd framework: row-major matrices, vectors, cache-blocked and
// goroutine-parallel GEMM, and the in-place updates that implement
// Hogwild-style shared-model writes (row-striped locks by default, plain
// stores in the paper-exact racy mode).
//
// Everything operates on float64. The kernels are Go loops with AVX2
// assembly twins on amd64 that produce the same bits (the module is
// dependency-free); they stand in for Intel MKL on the CPU side of the
// paper's framework and for cuBLAS inside the GPU simulator.
package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	// Data holds the elements in row-major order: element (i, j) is
	// Data[i*Stride+j]. Stride is always Cols for matrices created by this
	// package; it is kept explicit so views can share backing arrays.
	Stride int
	Data   []float64
}

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: invalid matrix dimensions %d×%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: make([]float64, r*c)}
}

// NewMatrixFrom returns an r×c matrix backed by data (not copied).
// len(data) must be exactly r*c.
func NewMatrixFrom(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: backing slice has %d elements, need %d", len(data), r*c))
	}
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Stride+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Stride+j] = v }

// Row returns a slice aliasing row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Stride : i*m.Stride+m.Cols] }

// RowView returns a Matrix view of rows [i, i+n) sharing m's backing array.
func (m *Matrix) RowView(i, n int) *Matrix {
	return m.RowViewInto(new(Matrix), i, n)
}

// RowViewInto is RowView writing the view header into dst instead of
// allocating one — the zero-allocation variant used by per-request hot paths
// (serving workspaces re-slice the same cached header every batch). Returns
// dst for chaining.
func (m *Matrix) RowViewInto(dst *Matrix, i, n int) *Matrix {
	if i < 0 || n < 0 || i+n > m.Rows {
		panic(fmt.Sprintf("tensor: row view [%d,%d) out of range for %d rows", i, i+n, m.Rows))
	}
	dst.Rows, dst.Cols, dst.Stride = n, m.Cols, m.Stride
	dst.Data = m.Data[i*m.Stride : (i+n-1)*m.Stride+m.Cols]
	return dst
}

// Clone returns a deep copy of m with a compact stride.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	out.CopyFrom(m)
	return out
}

// CopyFrom copies src into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: copy shape mismatch %d×%d vs %d×%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	if m.Stride == m.Cols && src.Stride == src.Cols {
		copy(m.Data, src.Data[:src.Rows*src.Cols])
		return
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Row(i), src.Row(i))
	}
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	if m.Stride == m.Cols {
		clear(m.Data[:m.Rows*m.Cols])
		return
	}
	for i := 0; i < m.Rows; i++ {
		clear(m.Row(i))
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = v
		}
	}
}

// AddScaled performs m += a*src element-wise. Shapes must match.
func (m *Matrix) AddScaled(a float64, src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: addScaled shape mismatch %d×%d vs %d×%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		dst, s := m.Row(i), src.Row(i)
		for j := range dst {
			dst[j] += a * s[j]
		}
	}
}

// Equal reports whether m and other have the same shape and elements within tol.
func (m *Matrix) Equal(other *Matrix, tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		a, b := m.Row(i), other.Row(i)
		for j := range a {
			if math.Abs(a[j]-b[j]) > tol {
				return false
			}
		}
	}
	return true
}

// FrobeniusNorm returns sqrt(sum of squared elements).
func (m *Matrix) FrobeniusNorm() float64 {
	sum := 0.0
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			sum += float64(v * v)
		}
	}
	return math.Sqrt(sum)
}

// Randomize fills m with samples from N(0, stddev²) drawn from rng.
func (m *Matrix) Randomize(rng *rand.Rand, stddev float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64() * stddev
		}
	}
}

// String renders small matrices for debugging; large ones are summarized.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%d×%d, ‖·‖F=%.4g)", m.Rows, m.Cols, m.FrobeniusNorm())
	}
	s := fmt.Sprintf("Matrix(%d×%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}

// Vector is a dense vector.
type Vector struct {
	Data []float64
}

// NewVectorFrom wraps data (not copied) as a Vector.
func NewVectorFrom(data []float64) *Vector { return &Vector{Data: data} }

// Len returns the number of elements.
func (v *Vector) Len() int { return len(v.Data) }

// At returns element i.
func (v *Vector) At(i int) float64 { return v.Data[i] }

// Set assigns element i.
func (v *Vector) Set(i int, x float64) { v.Data[i] = x }

// Zero sets every element to 0.
func (v *Vector) Zero() { clear(v.Data) }

// Scale multiplies every element by a.
func (v *Vector) Scale(a float64) {
	for i := range v.Data {
		v.Data[i] *= a
	}
}

// Randomize fills v with samples from N(0, stddev²).
func (v *Vector) Randomize(rng *rand.Rand, stddev float64) {
	for i := range v.Data {
		v.Data[i] = rng.NormFloat64() * stddev
	}
}

// Sigmoid returns 1/(1+e^-x) computed in a branch that avoids overflow for
// large negative inputs.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// SigmoidSlice sets every d[i] to Sigmoid(d[i]): the AVX2 kernel
// (sigmoidAVX) over whole quads, bit for bit, and Sigmoid itself for the rest
// and for any quad the kernel stops at.
func SigmoidSlice(d []float64) {
	for i := 0; i < len(d); {
		if exactKernels {
			i += sigmoidAVX(&d[i], (len(d)-i)&^3)
		}
		for end := min(i+4, len(d)); i < end; i++ {
			d[i] = Sigmoid(d[i])
		}
	}
}
