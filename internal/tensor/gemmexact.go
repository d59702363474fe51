package tensor

// Glue for the order-preserving training kernels (gemmexact_amd64.s), four
// lanes wide on AVX2 and eight on AVX-512F. They produce exactly the bits of
// gemmRangeGo: they vectorise across the independent outputs c[i][j], never
// across the reduction over p, and take each term as one fused multiply-add.
// Only the n mod 4 columns run the Go loops; the dot form's rows that do not
// fill a tile take the one-row kernel.

// exactKernels is set by platform init when the CPU has AVX2 and the build is
// not a race build: assembly is invisible to the race detector, so under
// -race every GEMM and shared-model write stays in Go where it can be watched.
// wideKernels is set beside it when the CPU also has AVX512F and the OS saves
// ZMM state: axpyRangeAVX and dotRangeAVX then run the eight-lane kernels.
var exactKernels, wideKernels bool

const (
	// axpyTerms bounds how many p terms one axpyRowAVX call accumulates.
	axpyTerms = 64
	// axpyPanel is the B panel (terms × columns, in doubles) the row loop
	// sweeps per block of p: 24 KiB, so it stays in L1 across all rows.
	axpyPanel = 3072
	// axpyRows is how many C rows pass over B before the next ones start, so
	// the rows being accumulated stay in L2 between their blocks of p.
	axpyRows = 32
	// dotPanel is the B panel (rows × k, in doubles) of the dot form: 128 KiB.
	dotPanel = 16384
)

// axpyRangeAVX computes rows [i0, i1) of C = alpha·op(A)·B + beta·C for the
// two forms whose inner loop is crow += s·brow (op(A) = A: backward data;
// op(A) = Aᵀ: weight gradient). p runs in blocks with i inside, so a C row
// tile is loaded and stored once per block rather than once per term, and
// beta == 0 starts the first block from zero registers instead of clearing.
func axpyRangeAVX(transA bool, alpha float64, a, b *Matrix, beta float64, c *Matrix, i0, i1 int) {
	k, rowStep, colStep := a.Cols, a.Stride, 1 // op(A)[i][p] = a.Data[i*rowStep+p*colStep]
	if transA {
		k, rowStep, colStep = a.Rows, 1, a.Stride
	}
	n4 := c.Cols &^ 3
	if n4 < c.Cols {
		bt := Matrix{Rows: b.Rows, Cols: c.Cols - n4, Stride: b.Stride, Data: b.Data[n4:]}
		ct := Matrix{Rows: c.Rows, Cols: c.Cols - n4, Stride: c.Stride, Data: c.Data[n4:]}
		gemmRangeGo(transA, false, alpha, a, &bt, beta, &ct, i0, i1)
	}
	if n4 == 0 {
		return
	}
	if beta != 0 {
		scaleRows(c, beta, i0, i1, n4)
	}
	var (
		s   [axpyTerms]float64
		off [axpyTerms]int
	)
	block := max(8, min(axpyTerms, axpyPanel/n4))
	for ; i0 < i1; i0 += axpyRows {
		for p0 := 0; p0 < k; p0 += block {
			p1 := min(p0+block, k)
			zero := beta == 0 && p0 == 0
			for i := i0; i < min(i0+axpyRows, i1); i++ {
				// Dropping the s == 0 terms here is the Go loop's `continue`.
				cnt, at := 0, i*rowStep+p0*colStep
				for p := p0; p < p1; p++ {
					if v := alpha * a.Data[at]; v != 0 {
						s[cnt], off[cnt] = v, p*b.Stride
						cnt++
					}
					at += colStep
				}
				if wideKernels && (cnt > 0 || zero) {
					axpyRowAVX512(&c.Data[i*c.Stride], n4, &s[0], &off[0], &b.Data[0], cnt, zero)
				} else if cnt > 0 || zero {
					axpyRowAVX(&c.Data[i*c.Stride], n4, &s[0], &off[0], &b.Data[0], cnt, zero)
				}
			}
		}
	}
}

// dotRangeAVX computes rows [i0, i1) of C = alpha·A·Bᵀ + beta·C (forward and
// every loss evaluation): rows in eights as 8×8 tiles where the eight-lane
// kernels run (dotTilesAVX512), the rest in fours as 4×4 tiles (dotTilesAVX),
// and the rows that do not come in fours one at a time (dotRowAVX512 or
// dotRowAVX). B is walked in panels of rows small enough to stay in L2 while
// every row of A passes over them.
func dotRangeAVX(alpha float64, a, b *Matrix, beta float64, c *Matrix, i0, i1 int) {
	k, n4 := a.Cols, c.Cols&^3
	i8, i4 := i0, i0+(i1-i0)&^3
	if wideKernels {
		i8 += (i1 - i0) &^ 7
	}
	scaleRows(c, beta, i0, i1, c.Cols)
	panel := max(4, dotPanel/k&^3)
	for j0 := 0; j0 < n4; j0 += panel {
		cols := min(panel, n4-j0)
		for i := i0; i < i8; i += 8 {
			dotTilesAVX512(&a.Data[i*a.Stride], a.Stride*8, &b.Data[j0*b.Stride], b.Stride*8, k,
				&c.Data[i*c.Stride+j0], c.Stride*8, cols, alpha)
		}
		for i := i8; i < i4; i += 4 {
			dotTilesAVX(&a.Data[i*a.Stride], a.Stride*8, &b.Data[j0*b.Stride], b.Stride*8, k,
				&c.Data[i*c.Stride+j0], c.Stride*8, cols/4, alpha)
		}
		for i := i4; i < i1; i++ {
			if wideKernels {
				dotRowAVX512(&a.Data[i*a.Stride], &b.Data[j0*b.Stride], b.Stride*8, k, &c.Data[i*c.Stride+j0], cols, alpha)
				continue
			}
			dotRowAVX(&a.Data[i*a.Stride], &b.Data[j0*b.Stride], b.Stride*8, k, &c.Data[i*c.Stride+j0], cols, alpha)
		}
	}
	if n4 < c.Cols {
		bt := Matrix{Rows: c.Cols - n4, Cols: k, Stride: b.Stride, Data: b.Data[n4*b.Stride:]}
		ct := Matrix{Rows: c.Rows, Cols: c.Cols - n4, Stride: c.Stride, Data: c.Data[n4:]}
		gemmRangeGo(false, true, alpha, a, &bt, 1, &ct, i0, i1)
	}
}
