package tensor

import "fmt"

// fastKernelAvailable is set by platform init when the CPU (and OS) support
// the AVX2+FMA microkernel. Non-amd64 builds leave it false.
var fastKernelAvailable bool

// FastKernel reports whether the SIMD inference GEMM microkernel is active on
// this CPU. When false, FastGemmTB is exactly ParallelGemm.
func FastKernel() bool { return fastKernelAvailable }

// FastGemmTB computes C = alpha·A·Bᵀ + beta·C (the inference forward shape:
// activations × weightsᵀ) through the AVX2+FMA register-tiled microkernel
// when the CPU supports it, falling back to the portable scalar kernel
// otherwise.
//
// Unlike the scalar kernels, the SIMD path accumulates each dot product in
// four parallel lanes, so results differ from Gemm in the last ulps — it is
// therefore reserved for the serving/inference path and never used in
// training, whose golden traces pin bit-exact trajectories. Within the
// serving path the kernel is deterministic: the same inputs always produce
// the same outputs.
func FastGemmTB(alpha float64, a, b *Matrix, beta float64, c *Matrix, workers int) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: gemm inner dimension mismatch %d vs %d", a.Cols, b.Cols))
	}
	if c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: gemm output shape %d×%d, need %d×%d", c.Rows, c.Cols, a.Rows, b.Rows))
	}
	// Tiny inner dimensions leave no room for a 4-wide chunk plus tail to
	// win; hand them (and non-SIMD hosts) to the scalar path.
	if !fastKernelAvailable || a.Cols < 8 {
		ParallelGemm(false, true, alpha, a, b, beta, c, workers)
		return
	}
	// Chunks are multiples of 4 rows so only the last one handles a partial
	// row quad.
	forkJoin(a.Rows, a.Rows*c.Cols*a.Cols/gemmTerms, workers, 4, job{run: runFastGemmTB, alpha: alpha, a: a, b: b, beta: beta, c: c})
}

func runFastGemmTB(j job) { fastGemmTBRange(j.alpha, j.a, j.b, j.beta, j.c, j.lo, j.hi) }

// fastGemmTBRange computes rows [i0, i1) of C = alpha·A·Bᵀ + beta·C with the
// 4×2 SIMD tile; row and column remainders run the scalar kernel.
func fastGemmTBRange(alpha float64, a, b *Matrix, beta float64, c *Matrix, i0, i1 int) {
	k := a.Cols
	n4 := k &^ 3
	chunks := n4 / 4
	var out [8]float64
	i := i0
	for ; i+4 <= i1; i += 4 {
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		c0, c1, c2, c3 := c.Row(i), c.Row(i+1), c.Row(i+2), c.Row(i+3)
		j := 0
		for ; j+2 <= c.Cols; j += 2 {
			b0, b1 := b.Row(j), b.Row(j+1)
			fmaDot4x2(&a0[0], &a1[0], &a2[0], &a3[0], &b0[0], &b1[0], chunks, &out)
			for p := n4; p < k; p++ {
				bv0, bv1 := b0[p], b1[p]
				out[0] += a0[p] * bv0
				out[1] += a0[p] * bv1
				out[2] += a1[p] * bv0
				out[3] += a1[p] * bv1
				out[4] += a2[p] * bv0
				out[5] += a2[p] * bv1
				out[6] += a3[p] * bv0
				out[7] += a3[p] * bv1
			}
			if beta == 0 {
				c0[j], c0[j+1] = alpha*out[0], alpha*out[1]
				c1[j], c1[j+1] = alpha*out[2], alpha*out[3]
				c2[j], c2[j+1] = alpha*out[4], alpha*out[5]
				c3[j], c3[j+1] = alpha*out[6], alpha*out[7]
			} else {
				c0[j] = beta*c0[j] + alpha*out[0]
				c0[j+1] = beta*c0[j+1] + alpha*out[1]
				c1[j] = beta*c1[j] + alpha*out[2]
				c1[j+1] = beta*c1[j+1] + alpha*out[3]
				c2[j] = beta*c2[j] + alpha*out[4]
				c2[j+1] = beta*c2[j+1] + alpha*out[5]
				c3[j] = beta*c3[j] + alpha*out[6]
				c3[j+1] = beta*c3[j+1] + alpha*out[7]
			}
		}
		if j < c.Cols { // odd trailing column: plain dots
			brow := b.Row(j)
			for r, arow := range [4][]float64{a0, a1, a2, a3} {
				sum := 0.0
				for p, av := range arow {
					sum += av * brow[p]
				}
				crow := c.Row(i + r)
				if beta == 0 {
					crow[j] = alpha * sum
				} else {
					crow[j] = beta*crow[j] + alpha*sum
				}
			}
		}
	}
	if i < i1 { // remainder rows: scalar kernel
		gemmRange(false, true, alpha, a, b, beta, c, i, i1)
	}
}
