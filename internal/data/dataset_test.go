package data

import (
	"math/rand/v2"
	"testing"
	"unsafe"

	"heterosgd/internal/nn"
	"heterosgd/internal/tensor"
)

func smallDataset(n int) *Dataset {
	x := tensor.NewMatrix(n, 3)
	y := nn.Labels{Class: make([]int, n)}
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, float64(10*i+j))
		}
		y.Class[i] = i % 2
	}
	return &Dataset{Name: "small", X: x, Y: y, NumClasses: 2}
}

func TestDatasetBasics(t *testing.T) {
	d := smallDataset(6)
	if d.N() != 6 || d.Dim() != 3 {
		t.Fatalf("shape %d×%d", d.N(), d.Dim())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.String() == "" {
		t.Fatal("empty String")
	}
}

func TestValidateCatchesBadLabels(t *testing.T) {
	d := smallDataset(4)
	d.Y.Class[2] = 9
	if err := d.Validate(); err == nil {
		t.Fatal("expected out-of-range class error")
	}
	d2 := smallDataset(4)
	d2.Y.Class = d2.Y.Class[:3]
	if err := d2.Validate(); err == nil {
		t.Fatal("expected label-count error")
	}
	ml := &Dataset{Name: "ml", X: tensor.NewMatrix(2, 2), NumClasses: 3, MultiLabel: true,
		Y: nn.Labels{Multi: [][]int32{{0}, {5}}}}
	if err := ml.Validate(); err == nil {
		t.Fatal("expected out-of-range multi-label error")
	}
}

func TestViewIsZeroCopy(t *testing.T) {
	d := smallDataset(6)
	b := d.View(2, 5)
	if b.Size() != 3 || b.Lo != 2 || b.Hi != 5 {
		t.Fatalf("bad batch bounds: %+v", b)
	}
	if b.X.At(0, 0) != 20 {
		t.Fatalf("batch row 0 = %v, want 20", b.X.At(0, 0))
	}
	b.X.Set(0, 0, -1)
	if d.X.At(2, 0) != -1 {
		t.Fatal("batch must alias dataset storage")
	}
	if b.Y.Class[0] != 0 {
		t.Fatalf("batch label = %d", b.Y.Class[0])
	}
}

func TestViewBoundsPanic(t *testing.T) {
	d := smallDataset(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.View(3, 5)
}

func TestShuffleKeepsAlignmentAndIsPermutation(t *testing.T) {
	d := smallDataset(64)
	// Mark each row's first feature with its original label parity scaled.
	sums := map[float64]int{}
	for i := 0; i < d.N(); i++ {
		sums[d.X.At(i, 0)]++
	}
	d.Shuffle(rand.New(rand.NewPCG(1, 1)))
	after := map[float64]int{}
	moved := false
	for i := 0; i < d.N(); i++ {
		after[d.X.At(i, 0)]++
		// Label alignment: row value 10i ↔ label i%2.
		orig := int(d.X.At(i, 0)) / 10
		if d.Y.Class[i] != orig%2 {
			t.Fatalf("row %d: label %d not aligned with row origin %d", i, d.Y.Class[i], orig)
		}
		if i != orig {
			moved = true
		}
	}
	if !moved {
		t.Fatal("shuffle did not move anything")
	}
	for k, v := range sums {
		if after[k] != v {
			t.Fatal("shuffle is not a permutation")
		}
	}
}

// TestShuffleOrderGoldenAndReusesScratch pins the example order a fixed seed
// gives over two consecutive shuffles, in both representations, and checks
// that once ReserveShuffle has sized the dataset's scratch, Shuffle
// allocates nothing, the first call included: a training window pays the
// same whether or not it crosses an epoch barrier.
func TestShuffleOrderGoldenAndReusesScratch(t *testing.T) {
	golden := [][]int{
		{8, 2, 0, 1, 4, 7, 11, 5, 3, 6, 9, 10},
		{2, 7, 0, 8, 1, 6, 3, 4, 9, 10, 11, 5},
	}
	dense := smallDataset(12)
	csr := smallDataset(12)
	csr.X, csr.XS = nil, tensor.CSRFromDense(csr.X)
	for name, d := range map[string]*Dataset{"dense": dense, "csr": csr} {
		rng := rand.New(rand.NewPCG(28, 1))
		d.ReserveShuffle()
		reserved := d.shuf
		for call, want := range golden {
			d.Shuffle(rng)
			for i, orig := range want {
				// Row i holds 10·orig+j at column j; column 1 is never zero.
				var got int
				if d.XS != nil {
					got = int(d.XS.At(i, 1)) / 10
				} else {
					got = int(d.X.At(i, 1)) / 10
				}
				if got != orig || d.Y.Class[i] != orig%2 {
					t.Fatalf("%s shuffle %d: row %d came from %d (label %d), want %d", name, call+1, i, got, d.Y.Class[i], orig)
				}
			}
		}
		s := d.shuf
		if !sameSlice(s.row, reserved.row) || !sameSlice(s.val, reserved.val) || !sameSlice(s.perm, reserved.perm) ||
			!sameSlice(s.ptr, reserved.ptr) || !sameSlice(s.cols, reserved.cols) {
			t.Errorf("%s: Shuffle replaced the scratch ReserveShuffle sized", name)
		}
		if allocs := testing.AllocsPerRun(20, func() { d.Shuffle(rng) }); allocs != 0 {
			t.Errorf("%s: Shuffle allocates %v times per call", name, allocs)
		}
	}
}

func TestShuffleMultiLabelAlignment(t *testing.T) {
	n := 32
	x := tensor.NewMatrix(n, 1)
	y := nn.Labels{Multi: make([][]int32, n)}
	for i := 0; i < n; i++ {
		x.Set(i, 0, float64(i))
		y.Multi[i] = []int32{int32(i % 5)}
	}
	d := &Dataset{Name: "ml", X: x, Y: y, NumClasses: 5, MultiLabel: true}
	d.Shuffle(rand.New(rand.NewPCG(2, 2)))
	for i := 0; i < n; i++ {
		if int32(int(d.X.At(i, 0))%5) != d.Y.Multi[i][0] {
			t.Fatalf("row %d multi-label misaligned", i)
		}
	}
}

func TestSplit(t *testing.T) {
	d := smallDataset(10)
	train, test := d.Split(0.8)
	if train.N() != 8 || test.N() != 2 {
		t.Fatalf("split sizes %d/%d", train.N(), test.N())
	}
	if test.X.At(0, 0) != 80 {
		t.Fatalf("test starts at %v", test.X.At(0, 0))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad fraction")
		}
	}()
	d.Split(0)
}

func TestSubsetClamps(t *testing.T) {
	d := smallDataset(5)
	s := d.Subset(100)
	if s.N() != 5 {
		t.Fatalf("clamped subset N = %d", s.N())
	}
	s2 := d.Subset(2)
	if s2.N() != 2 {
		t.Fatalf("subset N = %d", s2.N())
	}
}

// sameSlice reports whether a and b are the same slice header.
func sameSlice[T any](a, b []T) bool {
	return unsafe.SliceData(a) == unsafe.SliceData(b) && len(a) == len(b) && cap(a) == cap(b)
}

// sameBatch reports whether a and b are the same view, field for field: same
// range, same label slices, and feature headers denoting the same storage.
func sameBatch(a, b Batch) bool {
	if a.Lo != b.Lo || a.Hi != b.Hi || !sameSlice(a.Y.Class, b.Y.Class) || !sameSlice(a.Y.Multi, b.Y.Multi) {
		return false
	}
	if (a.X == nil) != (b.X == nil) || (a.XS == nil) != (b.XS == nil) {
		return false
	}
	if a.X != nil && (a.X.Rows != b.X.Rows || a.X.Cols != b.X.Cols || a.X.Stride != b.X.Stride || !sameSlice(a.X.Data, b.X.Data)) {
		return false
	}
	return a.XS == nil || a.XS.Rows == b.XS.Rows && a.XS.Cols == b.XS.Cols &&
		sameSlice(a.XS.RowPtr, b.XS.RowPtr) && sameSlice(a.XS.ColIdx, b.XS.ColIdx) && sameSlice(a.XS.Val, b.XS.Val)
}

// TestViewIntoSubIntoMatchAndDoNotAllocate: the header-storing views are the
// allocating ones field for field, in both representations, at zero
// allocations — what lets a worker take batches without garbage.
func TestViewIntoSubIntoMatchAndDoNotAllocate(t *testing.T) {
	spec := RealSim.Scaled(0.002)
	for name, d := range map[string]*Dataset{"dense": Generate(spec, 3), "csr": GenerateCSR(spec, 3)} {
		var vs, ss Views
		for _, r := range [][2]int{{0, d.N()}, {10, 42}, {7, 8}, {5, 5}} {
			want := d.View(r[0], r[1])
			got := d.ViewInto(&vs, r[0], r[1])
			if !sameBatch(got, want) {
				t.Fatalf("%s: ViewInto[%d,%d) = %+v, View = %+v", name, r[0], r[1], got, want)
			}
			n := got.Size()
			if sub, wantSub := got.SubInto(&ss, n/3, n-n/4), want.Sub(n/3, n-n/4); !sameBatch(sub, wantSub) {
				t.Fatalf("%s: SubInto = %+v, Sub = %+v", name, sub, wantSub)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			b := d.ViewInto(&vs, 10, 42)
			b.SubInto(&ss, 4, 20)
		})
		if allocs != 0 {
			t.Errorf("%s: ViewInto+SubInto allocate %.0f times, want 0", name, allocs)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range SubInto did not panic")
		}
	}()
	smallDataset(4).View(0, 4).SubInto(new(Views), 2, 5)
}
