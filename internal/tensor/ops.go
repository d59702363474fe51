package tensor

import "fmt"

// Gemm computes C = alpha * op(A) * op(B) + beta * C, where op(X) is X or
// Xᵀ according to transA/transB. It panics on shape mismatch.
//
// Every output element is built by the same operations in the same order on
// every path — beta·C first, then the terms in ascending inner index p, each
// a separately rounded multiply and add — so the AVX2 and AVX-512F kernels
// (gemmexact.go, chosen by CPUID) and the Go loops below agree bit for bit.
func Gemm(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	m, _ := gemmShape(transA, transB, a, b, c)
	gemmRange(transA, transB, alpha, a, b, beta, c, 0, m)
}

// gemmShape returns the output row count and the inner dimension of
// C = op(A)·op(B), panicking on a shape mismatch.
func gemmShape(transA, transB bool, a, b, c *Matrix) (m, k int) {
	m, k = a.Rows, a.Cols
	if transA {
		m, k = a.Cols, a.Rows
	}
	kb, n := b.Rows, b.Cols
	if transB {
		kb, n = b.Cols, b.Rows
	}
	if k != kb {
		panic(fmt.Sprintf("tensor: gemm inner dimension mismatch %d vs %d", k, kb))
	}
	if c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("tensor: gemm output shape %d×%d, need %d×%d", c.Rows, c.Cols, m, n))
	}
	return m, k
}

// gemmRange computes rows [i0, i1) of the GEMM output: the unit of work
// ParallelGemm hands to each goroutine. The platform picks the path — the
// AVX-512F or AVX2 kernels where the CPU has them (gemmexact.go picks the
// width), the Go loops elsewhere and under the race detector, which cannot
// see into assembly. Aᵀ·Bᵀ (no caller in nn) and an empty A (nothing to
// accumulate, only beta to apply) stay in Go too.
func gemmRange(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix, i0, i1 int) {
	switch {
	case !exactKernels || transA && transB || a.Rows*a.Cols == 0:
		gemmRangeGo(transA, transB, alpha, a, b, beta, c, i0, i1)
	case transB:
		dotRangeAVX(alpha, a, b, beta, c, i0, i1)
	default:
		axpyRangeAVX(transA, alpha, a, b, beta, c, i0, i1)
	}
}

// scaleRows multiplies the first cols columns of rows [i0, i1) of c by beta;
// beta == 0 overwrites whatever the rows held, NaN included.
func scaleRows(c *Matrix, beta float64, i0, i1, cols int) {
	if beta == 1 {
		return
	}
	for i := i0; i < i1; i++ {
		row := c.Row(i)[:cols]
		if beta == 0 {
			clear(row)
			continue
		}
		for j := range row {
			row[j] *= beta
		}
	}
}

// gemmRangeGo is gemmRange in portable Go: the reference the kernels are
// tested against, and the path for their row and column remainders.
func gemmRangeGo(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix, i0, i1 int) {
	k := a.Cols
	if transA {
		k = a.Rows
	}
	scaleRows(c, beta, i0, i1, c.Cols)
	switch {
	case !transA && !transB:
		for i := i0; i < i1; i++ {
			arow, crow := a.Row(i), c.Row(i)
			for p, av := range arow {
				// The skip is part of the order: -0 + (+0·bv) is +0 and
				// 0·Inf is NaN, so a zero term is not a no-op.
				s := alpha * av
				if s == 0 {
					continue
				}
				for j, bv := range b.Row(p) {
					crow[j] += s * bv
				}
			}
		}
	case transA && !transB:
		// op(A) row i is column i of A.
		for p := 0; p < k; p++ {
			arow, brow := a.Row(p), b.Row(p)
			for i := i0; i < i1; i++ {
				s := alpha * arow[i]
				if s == 0 {
					continue
				}
				crow := c.Row(i)
				for j, bv := range brow {
					crow[j] += s * bv
				}
			}
		}
	case !transA && transB:
		// C[i][j] += alpha * dot(A row i, B row j). Rows are register-
		// blocked in fours: each loaded B element feeds four independent
		// accumulator chains, which amortizes B's memory traffic across
		// rows and hides add latency (a single-row dot product is bound by
		// its one serial dependency chain). Per-element accumulation order
		// is unchanged, so results stay bit-identical to the plain loop.
		i := i0
		for ; i+4 <= i1; i += 4 {
			a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
			c0, c1, c2, c3 := c.Row(i), c.Row(i+1), c.Row(i+2), c.Row(i+3)
			for j := 0; j < c.Cols; j++ {
				brow := b.Row(j)
				var s0, s1, s2, s3 float64
				for p, bv := range brow {
					s0 += a0[p] * bv
					s1 += a1[p] * bv
					s2 += a2[p] * bv
					s3 += a3[p] * bv
				}
				c0[j] += alpha * s0
				c1[j] += alpha * s1
				c2[j] += alpha * s2
				c3[j] += alpha * s3
			}
		}
		for ; i < i1; i++ {
			arow, crow := a.Row(i), c.Row(i)
			for j := 0; j < c.Cols; j++ {
				brow := b.Row(j)
				sum := 0.0
				for p, av := range arow {
					sum += av * brow[p]
				}
				crow[j] += alpha * sum
			}
		}
	default: // transA && transB
		for i := i0; i < i1; i++ {
			crow := c.Row(i)
			for j := 0; j < c.Cols; j++ {
				brow := b.Row(j)
				sum := 0.0
				for p := 0; p < k; p++ {
					sum += a.At(p, i) * brow[p]
				}
				crow[j] += alpha * sum
			}
		}
	}
}

// gemmTerms scales a dense GEMM's work estimate for forkJoin: an output
// element of 256 terms counts as one, so the serial cut-off sits where it
// always has for a 256-wide layer and a thin inner dimension (a weight
// gradient over a two-row batch) no longer forks for a few microseconds.
const gemmTerms = 256

// ParallelGemm is Gemm with the output rows partitioned across at most
// workers goroutines (forkJoin). workers <= 1 falls back to the serial
// kernel. It is the stand-in for a multithreaded BLAS (MKL on CPU, cuBLAS in
// the GPU simulator).
func ParallelGemm(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix, workers int) {
	m, k := gemmShape(transA, transB, a, b, c)
	forkJoin(m, m*c.Cols*k/gemmTerms, workers, 4, job{run: runGemm, transA: transA, transB: transB, alpha: alpha, a: a, b: b, beta: beta, c: c})
}

func runGemm(j job) { gemmRange(j.transA, j.transB, j.alpha, j.a, j.b, j.beta, j.c, j.lo, j.hi) }

// FastGemmTB is ParallelGemm(false, true, …). Its only caller is
// bench/replay.go, which names one of its timed rows after it.
func FastGemmTB(alpha float64, a, b *Matrix, beta float64, c *Matrix, workers int) {
	ParallelGemm(false, true, alpha, a, b, beta, c, workers)
}

// ColSums accumulates the column sums of m into out (out[j] = Σ_i m[i][j]).
func ColSums(m *Matrix, out *Vector) {
	if out.Len() != m.Cols {
		panic(fmt.Sprintf("tensor: colSums out length %d, need %d", out.Len(), m.Cols))
	}
	out.Zero()
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j] += v
		}
	}
}
