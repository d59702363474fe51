package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	m.Randomize(rng, 1)
	return m
}

func TestGemmAllTransposeCombos(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	dims := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 2}, {17, 9, 33}, {64, 64, 64}, {65, 130, 7},
	}
	for _, d := range dims {
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				ar, ac := d.m, d.k
				if ta {
					ar, ac = d.k, d.m
				}
				br, bc := d.k, d.n
				if tb {
					br, bc = d.n, d.k
				}
				a := randomMatrix(rng, ar, ac)
				b := randomMatrix(rng, br, bc)
				c1 := randomMatrix(rng, d.m, d.n)
				c2 := c1.Clone()
				alpha, beta := 1.3, -0.7
				Gemm(ta, tb, alpha, a, b, beta, c1)
				refGemm(ta, tb, alpha, a, b, beta, c2)
				if !c1.Equal(c2, 1e-9) {
					t.Fatalf("gemm mismatch for %dx%dx%d ta=%v tb=%v", d.m, d.k, d.n, ta, tb)
				}
			}
		}
	}
}

func TestGemmBetaZeroOverwritesNaN(t *testing.T) {
	// beta==0 must fully overwrite C even if it contains garbage — also in a
	// row whose every term is skipped because its A entries are all zero.
	a := NewMatrixFrom(2, 2, []float64{1, 1, 0, 0})
	for _, n := range []int{2, 4, 70} {
		b := NewMatrix(2, n)
		b.Fill(1)
		c := NewMatrix(2, n)
		c.Fill(math.NaN())
		Gemm(false, false, 1, a, b, 0, c)
		if c.At(0, n-1) != 2 || c.At(1, 0) != 0 || c.At(1, n-1) != 0 {
			t.Fatalf("n=%d: got %v, want rows of 2 and of 0", n, c.Data)
		}
	}
}

// refGemm is the order every Gemm path must reproduce bit for bit, as a
// plain triple loop: beta·C first, then the terms in ascending p, each one
// fused multiply-add; the axpy forms (B not transposed) skip a term whose
// alpha·a is zero, the dot forms sum from +0 first and then add alpha·sum,
// multiply and add rounded separately.
func refGemm(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	at := func(m *Matrix, trans bool, i, j int) float64 {
		if trans {
			i, j = j, i
		}
		return m.At(i, j)
	}
	k := a.Cols
	if transA {
		k = a.Rows
	}
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			v := c.At(i, j)
			if beta == 0 {
				v = 0
			} else if beta != 1 {
				v *= beta
			}
			if transB {
				sum := 0.0
				for p := 0; p < k; p++ {
					sum = math.FMA(at(a, transA, i, p), at(b, true, p, j), sum)
				}
				v += float64(alpha * sum)
			} else {
				for p := 0; p < k; p++ {
					if s := alpha * at(a, transA, i, p); s != 0 {
						v = math.FMA(s, b.At(p, j), v)
					}
				}
			}
			c.Set(i, j, v)
		}
	}
}

// stridedMatrix is an r×c view with padding between rows (Stride > Cols);
// the padding holds a sentinel no kernel may touch.
func stridedMatrix(rng *rand.Rand, r, c int) *Matrix {
	const sentinel = -12345.5
	m := &Matrix{Rows: r, Cols: c, Stride: c + rng.IntN(4)}
	m.Data = make([]float64, r*m.Stride)
	for i := range m.Data {
		m.Data[i] = sentinel
	}
	for i := 0; i < r; i++ {
		for j := range m.Row(i) {
			m.Row(i)[j] = rng.Float64()*2 - 1
		}
	}
	return m
}

// sameBits reports whether two results are the same float64, bit for bit.
// Two NaNs count as the same: which operand's payload survives an x86 add
// depends on operand order, which the compiler is free to choose.
func sameBits(x, y []float64) bool {
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) && !(math.IsNaN(x[i]) && math.IsNaN(y[i])) {
			return false
		}
	}
	return true
}

// forEachKernelSet runs f once under every kernel set this host has —
// "avx512" (the eight-lane kernels), "avx2" (the four-lane ones, forced on a
// host that has both) and "go" (the portable loops) — by flipping the
// package's selection, and restores the detected set afterwards. A host
// without AVX-512, or a race build, logs the legs it skips.
func forEachKernelSet(tb testing.TB, f func(set string)) {
	exact, wide := exactKernels, wideKernels
	defer func() { exactKernels, wideKernels = exact, wide }()
	if !wide {
		tb.Logf("avx512 kernel set not available here (detected: %s): its leg is skipped", kernelSet())
	}
	for _, ks := range []struct {
		name        string
		exact, wide bool
	}{{"avx512", true, true}, {"avx2", true, false}, {"go", false, false}} {
		if ks.exact && !exact || ks.wide && !wide {
			continue
		}
		exactKernels, wideKernels = ks.exact, ks.wide
		f(ks.name)
	}
}

// kernelSet names the kernel set gemmRange runs now.
func kernelSet() string {
	switch {
	case wideKernels:
		return "avx512"
	case exactKernels:
		return "avx2"
	}
	return "go"
}

// TestGemmBitExact pins the exactness rule of DESIGN.md §6: Gemm and
// ParallelGemm, under every kernel set the host has, equal refGemm bit for
// bit — over every mod-4 remainder of m, k and n, tiny k, strided views,
// zeros in A (the skip), -0 in C, and Inf/NaN in B (0·Inf must not appear
// on the axpy forms, and must propagate on the dot forms). The forward's
// rows that do not come in fours (dotRowAVX) also run at the shapes the
// workloads use — a batch-1 layer, a two-row batch, a 54-feature input, a
// two-class head — and with k large enough that B is walked in several
// panels (dotPanel/k columns each); the three forms also run at
// dense-adaptive's 64-row batch on its 256-wide layers, in eight-row tiles.
func TestGemmBitExact(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bit-exact trajectories are verified on amd64 only (scripts/fused.sh pins what arm64 fuses)")
	}
	t.Logf("kernel set detected: %s", kernelSet())
	forEachKernelSet(t, func(set string) {
		rng := rand.New(rand.NewPCG(24, 7))
		shapes := [][3]int{{5, 130, 52}, {9, 20, 400}, {70, 3, 64}, {4, 64, 4}, {130, 300, 49}, {16, 54, 260}, {13, 9, 100}}
		for _, sh := range shapes {
			for form := range 12 {
				checkGemmBits(t, rng, fmt.Sprintf("%s shape %v", set, sh), sh[0], sh[1], sh[2], form&1 != 0, form&2 != 0, form%3 == 0)
			}
		}
		for trial := 0; trial < 400; trial++ {
			m, k, n := 1+rng.IntN(12), 1+rng.IntN(12), 1+rng.IntN(70)
			checkGemmBits(t, rng, fmt.Sprintf("%s trial %d", set, trial), m, k, n, rng.IntN(2) == 0, rng.IntN(2) == 0, trial%3 == 0)
		}
		forward := [][3]int{{1, 300, 64}, {2, 64, 64}, {3, 54, 256}, {1, 64, 2}, {5, 300, 17}, {3, 1000, 70}, {7, 2100, 37}, {12, 2100, 36}, {2, 9, 28}}
		for _, sh := range forward {
			for r := 0; r < 6; r++ {
				checkGemmBits(t, rng, fmt.Sprintf("%s forward round %d", set, r), sh[0], sh[1], sh[2], false, true, r%2 == 0)
			}
		}
		for _, form := range [][2]bool{{false, true}, {false, false}, {true, false}} {
			checkGemmBits(t, rng, set+" dense-adaptive", 64, 256, 256, form[0], form[1], true)
		}
		for _, sh := range append(append(shapes, forward...), [3]int{64, 256, 256}) {
			for form := range 3 {
				checkGemmFused(t, fmt.Sprintf("%s fused shape %v", set, sh), sh[0], sh[1], sh[2], form == 2, form == 0)
			}
		}
	})
}

// checkGemmFused runs m×k×n GEMMs of one form whose every output tells a
// fused multiply-add from a multiply and an add: op(B) is all b = 1−2⁻³⁰, and
// row i of op(A) is zero but for −1 at p0 and 1+2⁻³⁰ at p1 > p0. The row's
// chain reaches −b, then adds (1+2⁻³⁰)·b = 1−2⁻⁶⁰, which rounds to 1 unfused:
// fused, each output is alpha·(2⁻³⁰−2⁻⁶⁰); unfused, alpha·2⁻³⁰. p1 takes eight
// consecutive places per row, so every lane meets the fused term at every
// offset of its kernel's unrolled loop and in its single-term tail.
func checkGemmFused(t *testing.T, name string, m, k, n int, transA, transB bool) {
	t.Helper()
	if k < 2 {
		return
	}
	const b1 = 1 - 0x1p-30
	for shift := range 8 {
		for _, alpha := range []float64{1, -0.5} {
			a, b := NewMatrix(m, k), NewMatrix(k, n)
			if transA {
				a = NewMatrix(k, m)
			}
			if transB {
				b = NewMatrix(n, k)
			}
			b.Fill(b1)
			for i := 0; i < m; i++ {
				p1 := k - 1 - (i+shift)%(k-1)
				for p, v := range map[int]float64{p1 - 1 - (i % p1): -1, p1: 1 + 0x1p-30} {
					if transA {
						a.Set(p, i, v)
					} else {
						a.Set(i, p, v)
					}
				}
			}
			c, par := NewMatrix(m, n), NewMatrix(m, n)
			want := NewMatrix(m, n)
			refGemm(transA, transB, alpha, a, b, 1, want)
			Gemm(transA, transB, alpha, a, b, 1, c)
			ParallelGemm(transA, transB, alpha, a, b, 1, par, 3)
			for i, v := range want.Data {
				if v != alpha*(0x1p-30-0x1p-60) {
					t.Fatalf("%s: reference output %d is %v, not the fused %v", name, i, v, alpha*(0x1p-30-0x1p-60))
				}
			}
			if !sameBits(c.Data, want.Data) || !sameBits(par.Data, want.Data) {
				t.Fatalf("%s: %d×%d×%d transA=%v transB=%v alpha=%v shift=%d: a term was not one fused multiply-add",
					name, m, k, n, transA, transB, alpha, shift)
			}
		}
	}
}

// checkGemmBits runs one random m×k×n GEMM of the given form on strided
// operands through Gemm and ParallelGemm and compares both with refGemm bit
// for bit. A gets zeros and -0s, C a -0 per row, and with specials B gets
// ±Inf and NaN.
func checkGemmBits(t *testing.T, rng *rand.Rand, name string, m, k, n int, transA, transB, specials bool) {
	t.Helper()
	alpha := []float64{1, 1 / float64(m), -0.5, 0}[rng.IntN(4)]
	beta := []float64{0, 1, 0.5}[rng.IntN(3)]
	a, b := stridedMatrix(rng, m, k), stridedMatrix(rng, k, n)
	if transA {
		a = stridedMatrix(rng, k, m)
	}
	if transB {
		b = stridedMatrix(rng, n, k)
	}
	for i := 0; i < a.Rows; i++ {
		for j := range a.Row(i) {
			if r := rng.IntN(8); r < 2 {
				a.Row(i)[j] = []float64{0, math.Copysign(0, -1)}[r]
			}
		}
	}
	if specials {
		for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
			b.Set(rng.IntN(b.Rows), rng.IntN(b.Cols), v)
		}
	}
	c := stridedMatrix(rng, m, n)
	for i := 0; i < m; i++ {
		c.Set(i, rng.IntN(n), math.Copysign(0, -1))
	}
	want := &Matrix{Rows: m, Cols: n, Stride: c.Stride, Data: append([]float64(nil), c.Data...)}
	par := &Matrix{Rows: m, Cols: n, Stride: c.Stride, Data: append([]float64(nil), c.Data...)}
	refGemm(transA, transB, alpha, a, b, beta, want)
	Gemm(transA, transB, alpha, a, b, beta, c)
	ParallelGemm(transA, transB, alpha, a, b, beta, par, 3)
	if !sameBits(c.Data, want.Data) || !sameBits(par.Data, want.Data) {
		t.Fatalf("%s: %d×%d×%d transA=%v transB=%v alpha=%v beta=%v differs from the reference order",
			name, m, k, n, transA, transB, alpha, beta)
	}
}

// gemmEdges are the operand values where an order-preserving kernel and the
// Go loops part ways if either is wrong: signed zeros (the axpy skip, a -0
// sum), non-finite values (0·Inf), subnormals, and 1±2⁻³⁰ and −1, whose
// products and sums a multiply and an add round where one fused
// multiply-add does not.
var gemmEdges = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -2.5e-310, 1,
	1 + 0x1p-30, 1 - 0x1p-30, -1, -1 + 0x1p-30, 0x1p-30, 1 + 0x1p-29, -0.5, 2}

// FuzzGemmExact: gemmRange equals gemmRangeGo bit for bit under every
// kernel set the host has, for any shape, form, row range, alpha and beta.
// Each byte of raw picks one operand: an edge value, a raw bit pattern or a
// small number; the operands are strided views whose padding must stay put.
func FuzzGemmExact(f *testing.F) {
	f.Add(uint8(15), uint8(37), uint8(100), uint8(2), 1.0, 0.0, []byte("\x00\x01\x02\x03\x04\x05\x06\x07\x40\x80\xc0\xff"))
	f.Add(uint8(63), uint8(255), uint8(255), uint8(0xf1), -0.5, 1.0, []byte("\x03\x90\x11\xf0"))
	f.Fuzz(func(t *testing.T, m, k, n, form uint8, alpha, beta float64, raw []byte) {
		if len(raw) == 0 {
			raw = []byte{0}
		}
		rows, inner, cols := 1+int(m%32), 1+int(k%64), 1+int(n)
		transA, transB := form&1 != 0, form&2 != 0
		e := 0
		operand := func(r, c int) *Matrix {
			x := &Matrix{Rows: r, Cols: c, Stride: c + int(form>>2)%4}
			x.Data = make([]float64, r*x.Stride)
			for i := range x.Data {
				switch v := raw[e%len(raw)]; {
				case v < 64:
					x.Data[i] = gemmEdges[v%16]
				case v < 96:
					x.Data[i] = math.Float64frombits(uint64(v)*0x9e3779b97f4a7c15 ^ uint64(e)*0xbf58476d1ce4e5b9)
				default:
					x.Data[i] = float64(int(v)-176)/16 + float64(e%7)/8
				}
				e++
			}
			return x
		}
		a, b := operand(rows, inner), operand(inner, cols)
		if transA {
			a = operand(inner, rows)
		}
		if transB {
			b = operand(cols, inner)
		}
		c := operand(rows, cols)
		i0 := int(form>>4) % rows
		want := &Matrix{Rows: rows, Cols: cols, Stride: c.Stride, Data: append([]float64(nil), c.Data...)}
		gemmRangeGo(transA, transB, alpha, a, b, beta, want, i0, rows)
		forEachKernelSet(t, func(set string) {
			got := &Matrix{Rows: rows, Cols: cols, Stride: c.Stride, Data: append([]float64(nil), c.Data...)}
			gemmRange(transA, transB, alpha, a, b, beta, got, i0, rows)
			if !sameBits(got.Data, want.Data) {
				t.Fatalf("%s: rows [%d, %d) of %d×%d×%d transA=%v transB=%v alpha=%v beta=%v differ from the Go loops",
					set, i0, rows, rows, inner, cols, transA, transB, alpha, beta)
			}
		})
	})
}

// TestForkJoinAllocatesNothing: a parallel GEMM, SpMM or SpMMT call hands its
// chunks to the persistent helpers by value, so the steady state allocates
// nothing, serial or forked — every form nn's sparse first layer calls.
func TestForkJoinAllocatesNothing(t *testing.T) {
	if helpers == 0 {
		t.Skip("one CPU: every call is serial")
	}
	rng := rand.New(rand.NewPCG(2, 4))
	a, b, c := randomMatrix(rng, 128, 256), randomMatrix(rng, 256, 96), NewMatrix(128, 96)
	if n := testing.AllocsPerRun(50, func() { ParallelGemm(false, false, 1, a, b, 0, c, 2) }); n != 0 {
		t.Errorf("ParallelGemm: %v allocations per call, want 0", n)
	}
	sp, bt, grad := CSRFromDense(a), randomMatrix(rng, 96, 256), NewMatrix(96, 256)
	for _, workers := range []int{1, 2} {
		if n := testing.AllocsPerRun(50, func() { SpMM(false, 1, sp, b, 0, c, workers) }); n != 0 {
			t.Errorf("SpMM workers=%d: %v allocations per call, want 0", workers, n)
		}
		if n := testing.AllocsPerRun(50, func() { SpMM(true, 1, sp, bt, 0, c, workers) }); n != 0 {
			t.Errorf("SpMM(transB) workers=%d: %v allocations per call, want 0", workers, n)
		}
		if n := testing.AllocsPerRun(50, func() { SpMMT(1, sp, c, 1, grad, workers) }); n != 0 {
			t.Errorf("SpMMT workers=%d: %v allocations per call, want 0", workers, n)
		}
	}
}

// TestParallelGemmConcurrentCallers: eight goroutines share the helpers at
// once, each on a private output, and every one gets the serial result.
func TestParallelGemmConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	a, b := randomMatrix(rng, 96, 256), randomMatrix(rng, 80, 256)
	want := NewMatrix(96, 80)
	Gemm(false, true, 1, a, b, 0, want)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewMatrix(96, 80)
			for rep := 0; rep < 20; rep++ {
				ParallelGemm(false, true, 1, a, b, 0, c, 4)
				if !sameBits(c.Data, want.Data) {
					t.Errorf("goroutine %d rep %d: parallel result differs from serial", g, rep)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestGemmShapeMismatchPanics(t *testing.T) {
	cases := map[string]func(){
		"inner": func() { Gemm(false, false, 1, NewMatrix(2, 3), NewMatrix(4, 2), 0, NewMatrix(2, 2)) },
		"out":   func() { Gemm(false, false, 1, NewMatrix(2, 3), NewMatrix(3, 2), 0, NewMatrix(3, 2)) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestParallelGemmMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for _, workers := range []int{1, 2, 4, 16} {
		a := randomMatrix(rng, 120, 300)
		b := randomMatrix(rng, 300, 90)
		c1 := NewMatrix(120, 90)
		c2 := NewMatrix(120, 90)
		Gemm(false, false, 1, a, b, 0, c1)
		ParallelGemm(false, false, 1, a, b, 0, c2, workers)
		if !c1.Equal(c2, 1e-10) {
			t.Fatalf("parallel gemm mismatch with %d workers", workers)
		}
	}
}

func TestParallelGemmTransposedLarge(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	a := randomMatrix(rng, 300, 120) // op(A)=Aᵀ is 120×300
	b := randomMatrix(rng, 300, 90)
	c1 := NewMatrix(120, 90)
	c2 := NewMatrix(120, 90)
	refGemm(true, false, 2, a, b, 0, c1)
	ParallelGemm(true, false, 2, a, b, 0, c2, 8)
	if !c1.Equal(c2, 1e-9) {
		t.Fatal("parallel transposed gemm mismatch")
	}
}

func TestColSums(t *testing.T) {
	m := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	out := newVector(3)
	ColSums(m, out)
	want := []float64{5, 7, 9}
	for j, w := range want {
		if out.At(j) != w {
			t.Fatalf("colsum %d = %v, want %v", j, out.At(j), w)
		}
	}
}

// BenchmarkGemm times the three forms nn uses — forward (A·Bᵀ), backward
// data (A·B) and weight gradient (Aᵀ·B) — on a 512-wide layer at a batch of
// 512 and of 2 rows and on dense-adaptive's 256-wide layers at 64 and 128
// rows, serial and through ParallelGemm, under every kernel set the host
// has (named last), in GFLOP/s.
func BenchmarkGemm(b *testing.B) {
	forms := []struct {
		name   string
		ta, tb bool
	}{{"fwd", false, true}, {"bwd", false, false}, {"wgrad", true, false}}
	forEachKernelSet(b, func(set string) {
		rng := rand.New(rand.NewPCG(1, 1))
		for _, f := range forms {
			for _, sh := range [][2]int{{512, 512}, {512, 2}, {256, 64}, {256, 128}} {
				width, rows := sh[0], sh[1]
				// fwd: act(rows×w)·Wᵀ; bwd: delta(rows×w)·W; wgrad: deltaᵀ(w×rows)·act.
				x, w := randomMatrix(rng, rows, width), randomMatrix(rng, width, width)
				out := NewMatrix(rows, width)
				if f.ta {
					w, out = randomMatrix(rng, rows, width), w
				}
				for _, workers := range []int{1, 0} {
					mode := "Serial"
					if workers == 0 {
						mode = "Parallel"
					}
					b.Run(fmt.Sprintf("%s/width=%d/rows=%d/%s/%s", f.name, width, rows, mode, set), func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							ParallelGemm(f.ta, f.tb, 1, x, w, 0, out, workers)
						}
						flops := 2 * float64(rows) * float64(width) * float64(width) * float64(b.N)
						b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
					})
				}
			}
		}
	})
}

// Property: (A·B)·C == A·(B·C) within floating tolerance, exercised through
// the blocked kernel on random shapes.
func TestQuickGemmAssociativity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 31))
		m, k, n, q := 2+rng.IntN(6), 2+rng.IntN(6), 2+rng.IntN(6), 2+rng.IntN(6)
		A := randomMatrix(rng, m, k)
		B := randomMatrix(rng, k, n)
		C := randomMatrix(rng, n, q)
		AB := NewMatrix(m, n)
		Gemm(false, false, 1, A, B, 0, AB)
		left := NewMatrix(m, q)
		Gemm(false, false, 1, AB, C, 0, left)
		BC := NewMatrix(k, q)
		Gemm(false, false, 1, B, C, 0, BC)
		right := NewMatrix(m, q)
		Gemm(false, false, 1, A, BC, 0, right)
		return left.Equal(right, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Gemm with transposes equals Gemm on explicitly transposed
// inputs.
func TestQuickGemmTransposeIdentity(t *testing.T) {
	transpose := func(m *Matrix) *Matrix {
		out := NewMatrix(m.Cols, m.Rows)
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				out.Set(j, i, m.At(i, j))
			}
		}
		return out
	}
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 37))
		m, k, n := 1+rng.IntN(8), 1+rng.IntN(8), 1+rng.IntN(8)
		A := randomMatrix(rng, k, m) // op(A)=Aᵀ is m×k
		B := randomMatrix(rng, k, n)
		viaFlag := NewMatrix(m, n)
		Gemm(true, false, 1, A, B, 0, viaFlag)
		viaExplicit := NewMatrix(m, n)
		Gemm(false, false, 1, transpose(A), B, 0, viaExplicit)
		return viaFlag.Equal(viaExplicit, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
