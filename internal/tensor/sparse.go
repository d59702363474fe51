package tensor

import (
	"fmt"
	"math"
	"sort"
)

// CSR is a compressed sparse row matrix. It is the storage format for the
// paper's sparse datasets (delicious, real-sim) and feeds the SpMM/SpMMT
// kernels that replace the first-layer GEMMs when training on sparse input.
//
// Row i's entries live at ColIdx[RowPtr[i]:RowPtr[i+1]] with matching values
// in Val. RowPtr holds ABSOLUTE offsets into ColIdx/Val, so RowPtr[0] need
// not be zero: a row-range view subslices RowPtr while sharing ColIdx and
// Val with its parent, which preserves the framework's zero-copy
// "reference to a range" batch model for sparse data.
//
// Column indices within a row are sorted ascending with no duplicates.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// Check validates the CSR invariants: RowPtr length and monotonicity, entry
// bounds, and sorted duplicate-free column indices within each row.
func (a *CSR) Check() error {
	if a.Rows < 0 || a.Cols < 0 {
		return fmt.Errorf("csr: invalid dimensions %d×%d", a.Rows, a.Cols)
	}
	if len(a.RowPtr) != a.Rows+1 {
		return fmt.Errorf("csr: RowPtr has %d entries, need %d", len(a.RowPtr), a.Rows+1)
	}
	if a.RowPtr[0] < 0 || a.RowPtr[a.Rows] > len(a.ColIdx) || len(a.ColIdx) != len(a.Val) {
		return fmt.Errorf("csr: RowPtr range [%d,%d) outside %d col/%d val entries",
			a.RowPtr[0], a.RowPtr[a.Rows], len(a.ColIdx), len(a.Val))
	}
	for i := 0; i < a.Rows; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		if lo > hi {
			return fmt.Errorf("csr: RowPtr decreases at row %d (%d > %d)", i, lo, hi)
		}
		prev := -1
		for _, j := range a.ColIdx[lo:hi] {
			if j < 0 || j >= a.Cols {
				return fmt.Errorf("csr: row %d has column %d outside [0,%d)", i, j, a.Cols)
			}
			if j <= prev {
				return fmt.Errorf("csr: row %d columns not strictly ascending at %d", i, j)
			}
			prev = j
		}
	}
	return nil
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return a.RowPtr[a.Rows] - a.RowPtr[0] }

// Density returns NNZ / (Rows*Cols), or 0 for an empty matrix.
func (a *CSR) Density() float64 {
	if a.Rows == 0 || a.Cols == 0 {
		return 0
	}
	return float64(a.NNZ()) / (float64(a.Rows) * float64(a.Cols))
}

// RowView returns a CSR view of rows [i, i+n) sharing a's backing arrays.
// Only RowPtr is re-sliced; ColIdx and Val alias the parent, so views are
// as cheap as dense Matrix.RowView.
func (a *CSR) RowView(i, n int) *CSR {
	return a.RowViewInto(new(CSR), i, n)
}

// RowViewInto is RowView writing the view header into dst instead of
// allocating one, like Matrix.RowViewInto. Returns dst.
func (a *CSR) RowViewInto(dst *CSR, i, n int) *CSR {
	if i < 0 || n < 0 || i+n > a.Rows {
		panic(fmt.Sprintf("tensor: csr row view [%d,%d) out of range for %d rows", i, i+n, a.Rows))
	}
	*dst = CSR{Rows: n, Cols: a.Cols, RowPtr: a.RowPtr[i : i+n+1], ColIdx: a.ColIdx, Val: a.Val}
	return dst
}

// At returns element (i, j) with a binary search over row i.
func (a *CSR) At(i, j int) float64 {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	cols := a.ColIdx[lo:hi]
	t := sort.SearchInts(cols, j)
	if t < len(cols) && cols[t] == j {
		return a.Val[lo+t]
	}
	return 0
}

// Clone returns a compact deep copy with RowPtr rebased to zero.
func (a *CSR) Clone() *CSR {
	base := a.RowPtr[0]
	out := &CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: make([]int, a.Rows+1),
		ColIdx: make([]int, a.NNZ()),
		Val:    make([]float64, a.NNZ()),
	}
	for i := range a.RowPtr {
		out.RowPtr[i] = a.RowPtr[i] - base
	}
	copy(out.ColIdx, a.ColIdx[base:a.RowPtr[a.Rows]])
	copy(out.Val, a.Val[base:a.RowPtr[a.Rows]])
	return out
}

// CSRFromDense converts m to CSR, keeping only nonzero entries.
func CSRFromDense(m *Matrix) *CSR {
	out := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, m.Rows+1)}
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			if v != 0 {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, v)
			}
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}

// ToDense materializes a as a dense matrix.
func (a *CSR) ToDense() *Matrix {
	out := NewMatrix(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := out.Row(i)
		for t := a.RowPtr[i]; t < a.RowPtr[i+1]; t++ {
			row[a.ColIdx[t]] = a.Val[t]
		}
	}
	return out
}

// ActiveColumns appends the distinct columns touched by a to out[:0] and
// returns it sorted ascending. mark is caller-provided scratch with
// len(mark) >= a.Cols; it must be all-false on entry and is restored to
// all-false on return. This is the column set a sparse batch's gradient
// touches — the Hogwild-friendly partial update from the companion papers.
func (a *CSR) ActiveColumns(mark []bool, out []int) []int {
	out = out[:0]
	for _, j := range a.ColIdx[a.RowPtr[0]:a.RowPtr[a.Rows]] {
		if !mark[j] {
			mark[j] = true
			out = append(out, j)
		}
	}
	for _, j := range out {
		mark[j] = false
	}
	sort.Ints(out)
	return out
}

// String summarizes the matrix for debugging.
func (a *CSR) String() string {
	return fmt.Sprintf("CSR(%d×%d, nnz=%d, density=%.4g)", a.Rows, a.Cols, a.NNZ(), a.Density())
}

// SpMM computes C = alpha * A * op(B) + beta * C for sparse A and dense B,
// where op(B) is B or Bᵀ according to transB. With transB=true it is the
// sparse forward kernel out = in * Wᵀ: each output element gathers W's row
// at the input row's nonzero positions. Output rows are partitioned across
// at most workers goroutines with the same chunking as ParallelGemm.
func SpMM(transB bool, alpha float64, a *CSR, b *Matrix, beta float64, c *Matrix, workers int) {
	kb, n := b.Rows, b.Cols
	if transB {
		kb, n = b.Cols, b.Rows
	}
	if a.Cols != kb {
		panic(fmt.Sprintf("tensor: spmm inner dimension mismatch %d vs %d", a.Cols, kb))
	}
	if c.Rows != a.Rows || c.Cols != n {
		panic(fmt.Sprintf("tensor: spmm output shape %d×%d, need %d×%d", c.Rows, c.Cols, a.Rows, n))
	}
	forkJoin(a.Rows, a.NNZ()*n, workers, 1, job{run: runSpMM, transB: transB, alpha: alpha, sparse: a, b: b, beta: beta, c: c})
}

func runSpMM(j job) { spmmRange(j.transB, j.alpha, j.sparse, j.b, j.beta, j.c, j.lo, j.hi) }

// spmmRange computes rows [i0, i1) of the SpMM output.
func spmmRange(transB bool, alpha float64, a *CSR, b *Matrix, beta float64, c *Matrix, i0, i1 int) {
	scaleRows(c, beta, i0, i1, c.Cols)
	if transB {
		// C[i][j] += alpha * Σ_t vals[t] * B[j][cols[t]] — a gather over
		// row j of B. Units are outermost so that one row of B stays in
		// cache while every batch row of the chunk gathers from it; each
		// C[i][j] still sums its terms from zero in ascending t, each term
		// one fused multiply-add as in the dense forward, so a sparse row
		// gets the bits of its densified twin (serving relies on it).
		for j := 0; j < c.Cols; j++ {
			brow := b.Row(j)
			if exactKernels && i0 < i1 && len(a.ColIdx) > 0 {
				spmmDotFMA(&c.Data[i0*c.Stride+j], c.Stride*8, &a.RowPtr[i0], &a.ColIdx[0], &a.Val[0], &brow[0], i1-i0, alpha)
				continue
			}
			for i := i0; i < i1; i++ {
				lo, hi := a.RowPtr[i], a.RowPtr[i+1]
				cols, vals := a.ColIdx[lo:hi], a.Val[lo:hi]
				sum := 0.0
				for t, p := range cols {
					sum = math.FMA(vals[t], brow[p], sum)
				}
				c.Data[i*c.Stride+j] += float64(alpha * sum)
			}
		}
		return
	}
	for i := i0; i < i1; i++ {
		crow := c.Row(i)
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		cols, vals := a.ColIdx[lo:hi], a.Val[lo:hi]
		// C[i][:] += alpha * vals[t] * B[cols[t]][:] — axpy per nonzero.
		for t, p := range cols {
			s := alpha * vals[t]
			if s == 0 {
				continue
			}
			brow := b.Row(p)
			for j, bv := range brow {
				crow[j] += float64(s * bv)
			}
		}
	}
}

// SpMMT computes C = alpha * Dᵀ * A + beta * C for dense D (batch×units)
// and sparse A (batch×features): the input-layer weight gradient
// dW = deltaᵀ · in. Work is partitioned over output ROWS (units), so
// goroutines never write the same row. With beta == 1 only columns where A
// has nonzeros are written — callers exploiting that must pre-clear stale
// columns (see ZeroCols).
func SpMMT(alpha float64, a *CSR, d *Matrix, beta float64, c *Matrix, workers int) {
	if d.Rows != a.Rows {
		panic(fmt.Sprintf("tensor: spmmt batch mismatch %d vs %d", d.Rows, a.Rows))
	}
	if c.Rows != d.Cols || c.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: spmmt output shape %d×%d, need %d×%d", c.Rows, c.Cols, d.Cols, a.Cols))
	}
	forkJoin(c.Rows, a.NNZ()*c.Rows, workers, 1, job{run: runSpMMT, alpha: alpha, sparse: a, b: d, beta: beta, c: c})
}

func runSpMMT(j job) { spmmtRange(j.alpha, j.sparse, j.b, j.beta, j.c, j.lo, j.hi) }

// spmmtRange computes rows [j0, j1) of the SpMMT output. Units are
// outermost so that one gradient row stays in cache while every batch row
// scatters into it; each C[j][p] still takes its terms in ascending i.
func spmmtRange(alpha float64, a *CSR, d *Matrix, beta float64, c *Matrix, j0, j1 int) {
	scaleRows(c, beta, j0, j1, c.Cols)
	for j := j0; j < j1; j++ {
		crow := c.Row(j)
		for i := 0; i < a.Rows; i++ {
			lo, hi := a.RowPtr[i], a.RowPtr[i+1]
			if lo == hi {
				continue
			}
			s := alpha * d.At(i, j)
			if s == 0 {
				continue
			}
			cols, vals := a.ColIdx[lo:hi], a.Val[lo:hi]
			for t, p := range cols {
				crow[p] += float64(s * vals[t])
			}
		}
	}
}

// ZeroCols clears the given columns of m in every row. Together with
// SpMMT(beta=1) it lets a sparse gradient reuse its buffer touching only
// the union of the previous and current batches' nonzero columns.
func ZeroCols(m *Matrix, cols []int) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for _, j := range cols {
			row[j] = 0
		}
	}
}

// AddScaledCols performs dst += a*src restricted to the given columns.
func AddScaledCols(dst *Matrix, a float64, src *Matrix, cols []int) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("tensor: addScaledCols shape mismatch")
	}
	for i := 0; i < dst.Rows; i++ {
		d, s := dst.Row(i), src.Row(i)
		for _, j := range cols {
			d[j] += float64(a * s[j])
		}
	}
}
