package tensor

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
	gemmShape(false, true, a, b, c)
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
// 4×2 SIMD tile; row and column remainders run the scalar kernel. beta is
// applied first, as Gemm applies it (scaleRows: beta == 0 overwrites).
func fastGemmTBRange(alpha float64, a, b *Matrix, beta float64, c *Matrix, i0, i1 int) {
	k := a.Cols
	n4 := k &^ 3
	chunks := n4 / 4
	var out [8]float64
	i := i0
	for ; i+4 <= i1; i += 4 {
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		c0, c1, c2, c3 := c.Row(i), c.Row(i+1), c.Row(i+2), c.Row(i+3)
		scaleRows(c, beta, i, i+4, c.Cols)
		j := 0
		for ; j+2 <= c.Cols; j += 2 {
			b0, b1 := b.Row(j), b.Row(j+1)
			fmaDot4x2(&a0[0], &a1[0], &a2[0], &a3[0], &b0[0], &b1[0], chunks, &out)
			for p := n4; p < k; p++ {
				for r, av := range [4]float64{a0[p], a1[p], a2[p], a3[p]} {
					out[2*r] += av * b0[p]
					out[2*r+1] += av * b1[p]
				}
			}
			c0[j], c0[j+1] = c0[j]+alpha*out[0], c0[j+1]+alpha*out[1]
			c1[j], c1[j+1] = c1[j]+alpha*out[2], c1[j+1]+alpha*out[3]
			c2[j], c2[j+1] = c2[j]+alpha*out[4], c2[j+1]+alpha*out[5]
			c3[j], c3[j+1] = c3[j]+alpha*out[6], c3[j+1]+alpha*out[7]
		}
		if j < c.Cols { // odd trailing column: plain dots, the scalar kernel's
			bt := Matrix{Rows: 1, Cols: k, Stride: b.Stride, Data: b.Data[j*b.Stride:]}
			ct := Matrix{Rows: c.Rows, Cols: 1, Stride: c.Stride, Data: c.Data[j:]}
			gemmRangeGo(false, true, alpha, a, &bt, 1, &ct, i, i+4)
		}
	}
	if i < i1 { // remainder rows: scalar kernel
		gemmRange(false, true, alpha, a, b, beta, c, i, i1)
	}
}
