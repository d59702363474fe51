package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// randomCSR builds a random rows×cols CSR with the given density and returns
// it alongside its dense equivalent.
func randomCSR(rng *rand.Rand, rows, cols int, density float64) (*CSR, *Matrix) {
	dense := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		row := dense.Row(i)
		for j := range row {
			if rng.Float64() < density {
				row[j] = rng.NormFloat64()
			}
		}
	}
	return CSRFromDense(dense), dense
}

func TestCSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 3))
	for trial := 0; trial < 50; trial++ {
		rows, cols := 1+rng.IntN(40), 1+rng.IntN(60)
		a, dense := randomCSR(rng, rows, cols, 0.05+0.4*rng.Float64())
		if err := a.Check(); err != nil {
			t.Fatal(err)
		}
		// ToDense ∘ FromDense round-trips exactly.
		if !a.ToDense().Equal(dense, 0) {
			t.Fatalf("trial %d: ToDense(FromDense(m)) != m", trial)
		}
		// Clone compacts but preserves contents, and At matches dense.
		cl := a.Clone()
		if cl.RowPtr[0] != 0 || !cl.ToDense().Equal(dense, 0) {
			t.Fatalf("trial %d: Clone mismatch", trial)
		}
		i, j := rng.IntN(rows), rng.IntN(cols)
		if a.At(i, j) != dense.At(i, j) {
			t.Fatalf("trial %d: At(%d,%d) = %v, dense has %v", trial, i, j, a.At(i, j), dense.At(i, j))
		}
	}
}

// Property: SpMM agrees with Gemm on the densified operand within 1e-12,
// for both transB settings, random alpha/beta, and random worker counts.
func TestSpMMMatchesDenseGemm(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	for trial := 0; trial < 60; trial++ {
		m, k, n := 1+rng.IntN(30), 1+rng.IntN(50), 1+rng.IntN(20)
		transB := rng.IntN(2) == 0
		a, aDense := randomCSR(rng, m, k, 0.02+0.3*rng.Float64())
		br, bc := k, n
		if transB {
			br, bc = n, k
		}
		b := NewMatrix(br, bc)
		b.Randomize(rng, 1)
		alpha, beta := rng.NormFloat64(), rng.NormFloat64()
		if trial%3 == 0 {
			beta = 0 // exercise the clear path
		}
		want := NewMatrix(m, n)
		want.Randomize(rng, 1)
		got := want.Clone()
		workers := 1 + rng.IntN(4)
		Gemm(false, transB, alpha, aDense, b, beta, want)
		SpMM(transB, alpha, a, b, beta, got, workers)
		if !got.Equal(want, 1e-12) {
			t.Fatalf("trial %d (transB=%v, workers=%d): SpMM deviates from dense Gemm", trial, transB, workers)
		}
	}
}

// Property: SpMMT agrees with Gemm(transA=true) on the densified operand.
func TestSpMMTMatchesDenseGemm(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 4))
	for trial := 0; trial < 60; trial++ {
		batch, units, feat := 1+rng.IntN(30), 1+rng.IntN(20), 1+rng.IntN(50)
		a, aDense := randomCSR(rng, batch, feat, 0.02+0.3*rng.Float64())
		d := NewMatrix(batch, units)
		d.Randomize(rng, 1)
		alpha, beta := rng.NormFloat64(), rng.NormFloat64()
		if trial%3 == 0 {
			beta = 0
		}
		want := NewMatrix(units, feat)
		want.Randomize(rng, 1)
		got := want.Clone()
		workers := 1 + rng.IntN(4)
		Gemm(true, false, alpha, d, aDense, beta, want)
		SpMMT(alpha, a, d, beta, got, workers)
		if !got.Equal(want, 1e-12) {
			t.Fatalf("trial %d (workers=%d): SpMMT deviates from dense Gemmᵀ", trial, workers)
		}
	}
}

// Property: a CSR row-range view agrees with the corresponding dense slice,
// shares backing arrays, and kernels applied to views match full-matrix runs.
func TestCSRRowViewMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 13))
	for trial := 0; trial < 40; trial++ {
		rows, cols := 2+rng.IntN(40), 1+rng.IntN(40)
		a, dense := randomCSR(rng, rows, cols, 0.3)
		lo := rng.IntN(rows)
		n := 1 + rng.IntN(rows-lo)
		v := a.RowView(lo, n)
		if err := v.Check(); err != nil {
			t.Fatal(err)
		}
		if !v.ToDense().Equal(dense.RowView(lo, n), 0) {
			t.Fatalf("trial %d: view [%d,%d) != dense slice", trial, lo, lo+n)
		}
		if v.NNZ() != a.RowPtr[lo+n]-a.RowPtr[lo] {
			t.Fatalf("trial %d: view NNZ %d", trial, v.NNZ())
		}
		// Zero-copy: mutating a view value must show through the parent.
		if v.NNZ() > 0 {
			t0 := v.RowPtr[0]
			old := a.Val[t0]
			v.Val[t0] = old + 1
			if a.Val[t0] != old+1 {
				t.Fatal("view does not alias parent storage")
			}
			v.Val[t0] = old
		}
		// SpMM on the view == SpMM on the full matrix, sliced.
		units := 1 + rng.IntN(8)
		w := NewMatrix(units, cols)
		w.Randomize(rng, 1)
		full := NewMatrix(rows, units)
		SpMM(true, 1, a, w, 0, full, 2)
		part := NewMatrix(n, units)
		SpMM(true, 1, v, w, 0, part, 2)
		if !part.Equal(full.RowView(lo, n), 0) {
			t.Fatalf("trial %d: kernel on view != kernel on full matrix", trial)
		}
	}
}

func TestActiveColumnsAndColOps(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	a, dense := randomCSR(rng, 25, 40, 0.15)
	mark := make([]bool, a.Cols)
	cols := a.ActiveColumns(mark, nil)
	inSet := map[int]bool{}
	prev := -1
	for _, j := range cols {
		if j <= prev {
			t.Fatalf("ActiveColumns not sorted/unique: %v", cols)
		}
		prev = j
		inSet[j] = true
	}
	for j := 0; j < a.Cols; j++ {
		nonzero := false
		for i := 0; i < a.Rows; i++ {
			if dense.At(i, j) != 0 {
				nonzero = true
			}
		}
		if nonzero != inSet[j] {
			t.Fatalf("column %d: nonzero=%v but in active set=%v", j, nonzero, inSet[j])
		}
	}
	for _, m := range mark {
		if m {
			t.Fatal("scratch mark not restored to false")
		}
	}

	// ZeroCols / AddScaledCols / ApplyUpdateCols touch exactly those columns.
	m1 := NewMatrix(6, a.Cols)
	m1.Fill(3)
	ZeroCols(m1, cols)
	src := NewMatrix(6, a.Cols)
	src.Fill(2)
	AddScaledCols(m1, 0.5, src, cols)
	ApplyUpdateCols(UpdateAtomic, m1, 0.5, src, cols)
	for i := 0; i < m1.Rows; i++ {
		for j := 0; j < m1.Cols; j++ {
			want := 3.0
			if inSet[j] {
				want = 2.0 // 0 + 0.5*2 + 0.5*2
			}
			if m1.At(i, j) != want {
				t.Fatalf("(%d,%d) = %v, want %v", i, j, m1.At(i, j), want)
			}
		}
	}
}

// Concurrent SpMM stress test: many goroutines hammer the kernels on shared
// inputs (reads) with private outputs, mimicking the real engine's CPU lanes.
// Guarded by -short because it is pure load, not a property.
func TestConcurrentSpMMStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	rng := rand.New(rand.NewPCG(17, 6))
	const rows, feat, units = 512, 2048, 96
	a, aDense := randomCSR(rng, rows, feat, 0.01)
	w := NewMatrix(units, feat)
	w.Randomize(rng, 0.1)
	want := NewMatrix(rows, units)
	Gemm(false, true, 1, aDense, w, 0, want)

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := NewMatrix(rows, units)
			grad := NewMatrix(units, feat)
			for iter := 0; iter < 20; iter++ {
				lo := (g * 31) % (rows / 2)
				n := rows/2 + (iter % (rows / 2))
				v := a.RowView(lo, n)
				SpMM(true, 1, v, w, 0, out.RowView(lo, n), 4)
				if !out.RowView(lo, n).Equal(want.RowView(lo, n), 1e-12) {
					errs <- "concurrent SpMM result corrupted"
					return
				}
				SpMMT(1, v, want.RowView(lo, n), 0, grad, 4)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// sameSlice reports whether a and b are the same slice header: same backing
// position, length and capacity.
func sameSlice[T any](a, b []T) bool {
	return unsafe.SliceData(a) == unsafe.SliceData(b) && len(a) == len(b) && cap(a) == cap(b)
}

// TestCSRRowViewIntoMatchesRowView pins the header-storing view against the
// allocating one, field for field, and at zero allocations.
func TestCSRRowViewIntoMatchesRowView(t *testing.T) {
	a, _ := randomCSR(rand.New(rand.NewPCG(4, 4)), 9, 14, 0.3)
	var dst CSR
	for _, span := range [][2]int{{0, 9}, {0, 1}, {3, 4}, {8, 1}, {5, 0}, {9, 0}} {
		want := a.RowView(span[0], span[1])
		got := a.RowViewInto(&dst, span[0], span[1])
		if got != &dst {
			t.Fatal("RowViewInto did not return dst")
		}
		if got.Rows != want.Rows || got.Cols != want.Cols || !sameSlice(got.RowPtr, want.RowPtr) ||
			!sameSlice(got.ColIdx, want.ColIdx) || !sameSlice(got.Val, want.Val) {
			t.Fatalf("view [%d,%d): got %+v, want %+v", span[0], span[0]+span[1], got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { a.RowViewInto(&dst, 2, 5) }); allocs != 0 {
		t.Fatalf("RowViewInto allocates %.0f times per call, want 0", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range RowViewInto did not panic")
		}
	}()
	a.RowViewInto(&dst, 5, 5)
}

// refSpMM and refSpMMT are the row-major loops the unit-major
// kernels replaced, kept as the order those kernels must reproduce bit for
// bit: batch row outermost, scaling each output row just before filling it.
// The forward's terms are fused multiply-adds, as in the dense forward.
func refSpMM(alpha float64, a *CSR, b *Matrix, beta float64, c *Matrix) {
	for i := 0; i < a.Rows; i++ {
		crow := c.Row(i)
		scaleRows(c, beta, i, i+1, c.Cols)
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		cols, vals := a.ColIdx[lo:hi], a.Val[lo:hi]
		for j := range crow {
			brow := b.Row(j)
			sum := 0.0
			for t, p := range cols {
				sum = math.FMA(vals[t], brow[p], sum)
			}
			crow[j] += float64(alpha * sum)
		}
	}
}

func refSpMMT(alpha float64, a *CSR, d *Matrix, beta float64, c *Matrix) {
	scaleRows(c, beta, 0, c.Rows, c.Cols)
	for i := 0; i < a.Rows; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		if lo == hi {
			continue
		}
		cols, vals := a.ColIdx[lo:hi], a.Val[lo:hi]
		drow := d.Row(i)
		for j := 0; j < c.Rows; j++ {
			s := alpha * drow[j]
			if s == 0 {
				continue
			}
			crow := c.Row(j)
			for t, p := range cols {
				crow[p] += s * vals[t]
			}
		}
	}
}

// specialValue draws a normal value, or now and then one of ±0, NaN and
// ±Inf, the values whose handling depends on the order of operations.
func specialValue(rng *rand.Rand) float64 {
	switch rng.IntN(12) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.NaN()
	case 3:
		return math.Inf(1)
	case 4:
		return math.Inf(-1)
	}
	return rng.NormFloat64()
}

// stridedSpecial returns a rows×cols matrix with a wider stride whose
// elements come from specialValue; the padding past each row holds a
// sentinel that no kernel may write.
func stridedSpecial(rng *rand.Rand, rows, cols int) *Matrix {
	stride := cols + rng.IntN(3)
	m := &Matrix{Rows: rows, Cols: cols, Stride: stride, Data: make([]float64, rows*stride)}
	for i := range m.Data {
		if i%stride < cols {
			m.Data[i] = specialValue(rng)
		} else {
			m.Data[i] = 12345
		}
	}
	return m
}

// handCSR builds a rows×cols CSR entry by entry, with explicit zero values
// (which CSRFromDense would drop), empty rows, specials in Val, and a junk
// prefix in ColIdx/Val so that RowPtr[0] is not zero.
func handCSR(rng *rand.Rand, rows, cols int) *CSR {
	a := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for range rng.IntN(4) {
		a.ColIdx = append(a.ColIdx, rng.IntN(cols))
		a.Val = append(a.Val, math.NaN())
	}
	a.RowPtr[0] = len(a.ColIdx)
	density := rng.Float64() * 0.5
	for i := 0; i < rows; i++ {
		if rng.IntN(4) > 0 {
			for p := 0; p < cols; p++ {
				if rng.Float64() < density {
					a.ColIdx = append(a.ColIdx, p)
					a.Val = append(a.Val, specialValue(rng))
				}
			}
		}
		a.RowPtr[i+1] = len(a.ColIdx)
	}
	return a
}

// TestSpMMUnitMajorBitExact pins the unit-major SpMM(transB) and SpMMT
// against the row-major loops they replaced: every output element, padding
// included, has the same bits, over ±0, NaN and ±Inf in every operand,
// explicit zeros, empty rows, RowPtr[0] ≠ 0, strided operands, beta 0, 1 or
// random, and 1–4 workers. Any NaN matches any NaN: which of two NaN
// operands an add returns is the compiler's choice, not the loop order's.
func TestSpMMUnitMajorBitExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(36, 1))
	for trial := 0; trial < 300; trial++ {
		batch, feat, units := rng.IntN(40), 1+rng.IntN(60), 1+rng.IntN(24)
		a := handCSR(rng, batch, feat)
		if err := a.Check(); err != nil {
			t.Fatal(err)
		}
		alpha := []float64{1, 0, rng.NormFloat64()}[rng.IntN(3)]
		beta := []float64{0, 1, rng.NormFloat64()}[trial%3]
		workers := 1 + rng.IntN(4)

		w := stridedSpecial(rng, units, feat)
		out := stridedSpecial(rng, batch, units)
		want := &Matrix{Rows: out.Rows, Cols: out.Cols, Stride: out.Stride, Data: slices.Clone(out.Data)}
		refSpMM(alpha, a, w, beta, want)
		SpMM(true, alpha, a, w, beta, out, workers)
		if !sameBits(out.Data, want.Data) {
			t.Fatalf("trial %d: SpMM %d×%d·%dᵀ alpha=%v beta=%v workers=%d differs from the row-major order",
				trial, batch, feat, units, alpha, beta, workers)
		}

		d := stridedSpecial(rng, batch, units)
		grad := stridedSpecial(rng, units, feat)
		want = &Matrix{Rows: grad.Rows, Cols: grad.Cols, Stride: grad.Stride, Data: slices.Clone(grad.Data)}
		refSpMMT(alpha, a, d, beta, want)
		SpMMT(alpha, a, d, beta, grad, workers)
		if !sameBits(grad.Data, want.Data) {
			t.Fatalf("trial %d: SpMMT %d×%d·%d alpha=%v beta=%v workers=%d differs from the row-major order",
				trial, batch, units, feat, alpha, beta, workers)
		}
	}
}

// BenchmarkSpMM times the sparse first layer at sparse-hybrid's shape —
// 20 958 features at 0.25 % density into 128 units — on one worker: the
// forward SpMM(transB) and the weight gradient SpMMT(beta=1), for a CPU
// lane's single row and a GPU batch of 1024.
func BenchmarkSpMM(b *testing.B) {
	const feat, units, density = 20958, 128, 0.0025
	rng := rand.New(rand.NewPCG(20958, 128))
	w := randomMatrix(rng, units, feat)
	grad := NewMatrix(units, feat)
	for _, batch := range []int{1, 1024} {
		a := &CSR{Rows: batch, Cols: feat, RowPtr: make([]int, batch+1)}
		for i := 0; i < batch; i++ {
			for p := 0; p < feat; p++ {
				if rng.Float64() < density {
					a.ColIdx = append(a.ColIdx, p)
					a.Val = append(a.Val, rng.NormFloat64())
				}
			}
			a.RowPtr[i+1] = len(a.ColIdx)
		}
		out, delta := NewMatrix(batch, units), randomMatrix(rng, batch, units)
		b.Run(fmt.Sprintf("fwd/b%d", batch), func(b *testing.B) {
			for range b.N {
				SpMM(true, 1, a, w, 0, out, 1)
			}
		})
		b.Run(fmt.Sprintf("wgrad/b%d", batch), func(b *testing.B) {
			for range b.N {
				SpMMT(1/float64(batch), a, delta, 1, grad, 1)
			}
		})
	}
}
