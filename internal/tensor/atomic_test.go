package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"
)

func TestAtomicAddScaledMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 4))
	dst1 := randomMatrix(rng, 13, 7)
	dst2 := dst1.Clone()
	src := randomMatrix(rng, 13, 7)
	dst1.AddScaled(0.3, src)
	ApplyUpdate(UpdateAtomic, dst2, 0.3, src)
	if !dst1.Equal(dst2, 1e-12) {
		t.Fatal("atomic add disagrees with plain add")
	}
}

func TestAtomicAddScaledConcurrentNoLostUpdates(t *testing.T) {
	// With striped adds, G goroutines each adding 1 to every element must
	// produce exactly G — the defining property racy Hogwild lacks.
	const goroutines, iters = 8, 50
	dst := NewMatrix(4, 4)
	ones := NewMatrix(4, 4)
	ones.Fill(1)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ApplyUpdate(UpdateAtomic, dst, 1, ones)
			}
		}()
	}
	wg.Wait()
	want := float64(goroutines * iters)
	for _, v := range dst.Data {
		if v != want {
			t.Fatalf("lost updates: element = %v, want %v", v, want)
		}
	}
}

func TestAtomicAddScaledVecConcurrent(t *testing.T) {
	const goroutines, iters = 8, 50
	dst := newVector(16)
	ones := newVector(16)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ApplyUpdateVec(UpdateAtomic, dst, 1, ones)
			}
		}()
	}
	wg.Wait()
	for _, v := range dst.Data {
		if v != goroutines*iters {
			t.Fatalf("lost vector updates: %v", v)
		}
	}
}

func TestApplyUpdateModes(t *testing.T) {
	for _, mode := range []UpdateMode{UpdateAtomic, UpdateRacy, UpdateLocked} {
		dst := NewMatrix(2, 2)
		src := NewMatrix(2, 2)
		src.Fill(2)
		ApplyUpdate(mode, dst, -1, src)
		if dst.At(0, 0) != -2 {
			t.Fatalf("mode %v: got %v, want -2", mode, dst.At(0, 0))
		}
		dv := newVector(2)
		sv := NewVectorFrom([]float64{1, 1})
		ApplyUpdateVec(mode, dv, 3, sv)
		if dv.At(1) != 3 {
			t.Fatalf("mode %v vec: got %v, want 3", mode, dv.At(1))
		}
	}
}

func TestUpdateModeString(t *testing.T) {
	names := map[UpdateMode]string{UpdateAtomic: "atomic", UpdateRacy: "racy", UpdateLocked: "locked", UpdateMode(99): "unknown"}
	for mode, want := range names {
		if got := mode.String(); got != want {
			t.Fatalf("String(%d) = %q, want %q", int(mode), got, want)
		}
	}
}

// Property: a single writer's striped add stores exactly the floats the scalar
// loop does, for any sequence of deltas.
func TestQuickAtomicAddEquivalence(t *testing.T) {
	f := func(deltas []float64) bool {
		plain, at, d := newVector(1), newVector(1), newVector(1)
		for _, v := range deltas {
			d.Data[0] = v
			refAddScaled(plain.Data, 1, d.Data)
			ApplyUpdateVec(UpdateAtomic, at, 1, d)
		}
		p, a := plain.Data[0], at.Data[0]
		return p == a || (p != p && a != a) // NaN == NaN handling
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: AddScaled is linear — (dst + a·s) + b·s == dst + (a+b)·s.
func TestQuickAddScaledLinearity(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	f := func(a, b float64) bool {
		if a != a || b != b || a > 1e100 || a < -1e100 || b > 1e100 || b < -1e100 {
			return true // skip NaN/huge inputs
		}
		src := randomMatrix(rng, 3, 3)
		d1 := randomMatrix(rng, 3, 3)
		d2 := d1.Clone()
		d1.AddScaled(a, src)
		d1.AddScaled(b, src)
		d2.AddScaled(a+b, src)
		return d1.Equal(d2, 1e-6*(1+absf(a)+absf(b)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// refAddScaled is the scalar write every mode stores: d += a·s term by term,
// a zero term skipped.
func refAddScaled(d []float64, a float64, s []float64) {
	for j := range d {
		if v := a * s[j]; v != 0 {
			d[j] += v
		}
	}
}

// TestAtomicSingleWriterBitEqual: with one writer the three update modes store
// the very floats the scalar loop stores — matrix, column-restricted and
// vector — which is what keeps every golden trajectory where it is. A -0
// weight meeting a zero term stays -0 in every mode.
func TestAtomicSingleWriterBitEqual(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 19))
	src := randomMatrix(rng, 9, 11)
	src.Row(3)[4] = 0 // the zero-skip must not change a value either
	cols := []int{0, 4, 10}
	ref := randomMatrix(rng, 9, 11)
	ref.Row(3)[4] = math.Copysign(0, -1) // meets 1.7·0 = +0
	refCols := ref.Clone()
	modes := []UpdateMode{UpdateAtomic, UpdateRacy, UpdateLocked}
	var got, gotCols []*Matrix
	for range modes {
		got, gotCols = append(got, ref.Clone()), append(gotCols, ref.Clone())
	}
	for _, a := range []float64{-0.03, 1.7, 0} {
		refAddScaled(ref.Data, a, src.Data)
		for i := 0; i < ref.Rows; i++ {
			for _, j := range cols {
				refAddScaled(refCols.Row(i)[j:j+1], a, src.Row(i)[j:j+1])
			}
		}
		for m, mode := range modes {
			ApplyUpdate(mode, got[m], a, src)
			ApplyUpdateCols(mode, gotCols[m], a, src, cols)
		}
	}
	// The vectors alias row 5 of each matrix, so the loop below compares them
	// too; their -0 weight meets 0.5·0 = +0.
	vsrc := NewVectorFrom(append([]float64(nil), src.Row(1)...))
	vsrc.Data[7] = 0
	for _, m := range append(got, ref) {
		m.Row(5)[7] = math.Copysign(0, -1)
	}
	refAddScaled(ref.Row(5), 0.5, vsrc.Data)
	for m, mode := range modes {
		ApplyUpdateVec(mode, NewVectorFrom(got[m].Row(5)), 0.5, vsrc)
		for i := range ref.Data {
			if math.Float64bits(got[m].Data[i]) != math.Float64bits(ref.Data[i]) {
				t.Fatalf("%v: element %d stored %v, the scalar loop %v", mode, i, got[m].Data[i], ref.Data[i])
			}
			if math.Float64bits(gotCols[m].Data[i]) != math.Float64bits(refCols.Data[i]) {
				t.Fatalf("%v cols: element %d stored %v, the scalar loop %v", mode, i, gotCols[m].Data[i], refCols.Data[i])
			}
		}
	}
}

// TestAddScaledRowBitExact pins the write kernel to the scalar loop, bit for
// bit: every length 0..67 (whole quads and every tail) at start offsets 0..3,
// a ∈ {0, -0, …}, and a palette of ±0, ±Inf, NaN and subnormals, so a·s
// covers ±0 on a -0 weight (it must stay -0), 0·Inf, NaN terms (they still
// add) and products that underflow to zero.
func TestAddScaledRowBitExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(34, 1))
	negZero := math.Copysign(0, -1)
	palette := []float64{0, negZero, 1.5, -0.75, 3e-3, math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -2.2e-310, 1e300, -7}
	dests := []float64{0, negZero, 1.5, -0.75, math.Inf(1), 5e-324, -2.2e-310, 1e300} // no NaN: see sameBits
	for _, a := range []float64{0, negZero, 1, -0.5, 1e-300, math.Inf(1)} {
		for n := 0; n <= 67; n++ {
			for off := 0; off < 4; off++ {
				// d starts off doubles into a row whose neighbours hold a
				// sentinel, so a read or write past n shows; s sits at
				// another offset.
				row := make([]float64, off+n+4)
				for i := range row {
					row[i] = -12345.5
				}
				d, s := row[off:off+n], make([]float64, 3-off+n)[3-off:]
				for j := range d {
					d[j], s[j] = dests[rng.IntN(len(dests))], palette[rng.IntN(len(palette))]
				}
				want := append([]float64(nil), row...)
				refAddScaled(want[off:off+n], a, s)
				addScaledRow(UpdateAtomic, d, a, s)
				for i := range row {
					if math.Float64bits(row[i]) != math.Float64bits(want[i]) {
						t.Fatalf("a=%v n=%d off=%d: element %d = %v, the scalar loop %v", a, n, off, i-off, row[i], want[i])
					}
				}
			}
		}
	}
}

// FuzzAddScaledRow: the write kernel and the scalar loop agree on arbitrary
// bits — raw holds (d, s) pairs of little-endian float64s — at any start
// offset. A NaN destination may keep either NaN's payload (sameBits).
func FuzzAddScaledRow(f *testing.F) {
	pair := func(d, s float64) []byte {
		return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, math.Float64bits(d)), math.Float64bits(s))
	}
	var seed []byte
	for _, v := range [][2]float64{{math.Copysign(0, -1), 0}, {1, math.Inf(1)}, {2, math.NaN()}, {5e-324, 1}, {-3, 0.5}} {
		seed = append(seed, pair(v[0], v[1])...)
	}
	f.Add(0.0, uint8(0), seed)
	f.Add(-1.25, uint8(3), append(seed, seed...))
	f.Fuzz(func(t *testing.T, a float64, off uint8, raw []byte) {
		n := len(raw) / 16
		backing := make([]float64, int(off%4)+n)
		d, s := backing[off%4:], make([]float64, n)
		for j := range d {
			d[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[16*j:]))
			s[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[16*j+8:]))
		}
		want := append([]float64(nil), d...)
		refAddScaled(want, a, s)
		addScaledRow(UpdateRacy, d, a, s)
		if !sameBits(d, want) {
			t.Fatalf("a=%v: kernel stored %v, the scalar loop %v", a, d, want)
		}
	})
}

// TestAtomicCopySeesWholeRows: writers only ever add the same amount to every
// element of a row, so a row copied between two writes has all elements equal;
// a reader that saw the inside of a write would not.
func TestAtomicCopySeesWholeRows(t *testing.T) {
	const writers, iters, rows, cols = 4, 200, 6, 96
	shared := NewMatrix(rows, cols)
	bias := newVector(cols)
	ones := NewMatrix(rows, cols)
	ones.Fill(1)
	onesVec := NewVectorFrom(ones.Row(0))
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ApplyUpdate(UpdateAtomic, shared, 1, ones)
				ApplyUpdateVec(UpdateAtomic, bias, 1, onesVec)
			}
		}()
	}
	stop := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() {
		snap, snapVec := NewMatrix(rows, cols), newVector(cols)
		for {
			AtomicCopy(snap, shared)
			AtomicCopyVec(snapVec, bias)
			for i := 0; i <= rows; i++ {
				row := snapVec.Data
				if i < rows {
					row = snap.Row(i)
				}
				for _, v := range row {
					if v != row[0] {
						readerDone <- fmt.Errorf("row %d copied mid-write: %v next to %v", i, v, row[0])
						return
					}
				}
			}
			select {
			case <-stop:
				readerDone <- nil
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
	for _, v := range append(shared.Data, bias.Data...) {
		if v != writers*iters {
			t.Fatalf("lost updates: element = %v, want %v", v, writers*iters)
		}
	}
}

// TestAtomicAddScaledColsConcurrent: column-restricted writers lose nothing
// inside cols and leave every other column bit-untouched.
func TestAtomicAddScaledColsConcurrent(t *testing.T) {
	const goroutines, iters = 8, 50
	rng := rand.New(rand.NewPCG(7, 3))
	dst := randomMatrix(rng, 5, 12)
	before := dst.Clone()
	ones := NewMatrix(5, 12)
	ones.Fill(1)
	cols := []int{1, 2, 7, 11}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ApplyUpdateCols(UpdateAtomic, dst, 1, ones, cols)
			}
		}()
	}
	wg.Wait()
	inCols := map[int]bool{}
	for _, j := range cols {
		inCols[j] = true
	}
	for i := 0; i < dst.Rows; i++ {
		for j, v := range dst.Row(i) {
			want := before.At(i, j)
			if inCols[j] {
				// The same 400 unit adds whatever order the writers took.
				for k := 0; k < goroutines*iters; k++ {
					want++
				}
			}
			if math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("(%d,%d) = %v, want %v (in cols: %v)", i, j, v, want, inCols[j])
			}
		}
	}
}

// TestAtomicRowViewSharesStripes: a RowView has the matrix's row addresses,
// so writers through the view and through the matrix exclude each other.
func TestAtomicRowViewSharesStripes(t *testing.T) {
	const iters = 300
	m := NewMatrix(6, 40)
	view := m.RowView(2, 3)
	if rowStripe(view.Row(0)) != rowStripe(m.Row(2)) {
		t.Fatal("a row and its view hash to different stripes")
	}
	onesM, onesV := NewMatrix(6, 40), NewMatrix(3, 40)
	onesM.Fill(1)
	onesV.Fill(1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			ApplyUpdate(UpdateAtomic, m, 1, onesM)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			ApplyUpdate(UpdateAtomic, view, 1, onesV)
		}
	}()
	wg.Wait()
	for i := 0; i < m.Rows; i++ {
		want := float64(iters)
		if i >= 2 && i < 5 {
			want = 2 * iters
		}
		for _, v := range m.Row(i) {
			if v != want {
				t.Fatalf("row %d: element = %v, want %v", i, v, want)
			}
		}
	}
}

// TestAtomicEmptyInputs: zero-row and zero-length operands have no row to
// lock and nothing to do.
func TestAtomicEmptyInputs(t *testing.T) {
	for _, shape := range [][2]int{{0, 0}, {0, 5}, {5, 0}} {
		a, b := NewMatrix(shape[0], shape[1]), NewMatrix(shape[0], shape[1])
		ApplyUpdate(UpdateAtomic, a, 1, b)
		ApplyUpdateCols(UpdateAtomic, a, 1, b, nil)
		AtomicCopy(a, b)
	}
	m := NewMatrix(3, 4)
	ApplyUpdateCols(UpdateAtomic, m, 1, m.Clone(), nil)
	ApplyUpdateVec(UpdateAtomic, newVector(0), 1, newVector(0))
	AtomicCopyVec(newVector(0), &Vector{})
}

// BenchmarkAtomicAddScaled times the shared-model write at the hogwild-cpu
// workload's shape (eight 64×64 layers): one writer, then two writers
// contending for the same rows.
func BenchmarkAtomicAddScaled(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	var dst, src []*Matrix
	for l := 0; l < 8; l++ {
		dst = append(dst, NewMatrix(64, 64))
		src = append(src, randomMatrix(rng, 64, 64))
	}
	write := func(n int) {
		for i := 0; i < n; i++ {
			for l := range dst {
				ApplyUpdate(UpdateAtomic, dst[l], 1e-9, src[l])
			}
		}
	}
	b.Run("writers=1", func(b *testing.B) { write(b.N) })
	b.Run("writers=2", func(b *testing.B) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); write(b.N) }()
		write(b.N)
		wg.Wait()
	})
}
