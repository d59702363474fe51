package tensor

import (
	"math"
	"math/rand/v2"
	"testing"
)

// newVector returns a zeroed vector of length n.
func newVector(n int) *Vector { return NewVectorFrom(make([]float64, n)) }

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.Stride != 4 {
		t.Fatalf("unexpected shape: %d×%d stride %d", m.Rows, m.Cols, m.Stride)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestMatrixSetAt(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.Data[1*3+2]; got != 7.5 {
		t.Fatalf("row-major layout violated: Data[5] = %v", got)
	}
}

func TestNewMatrixFromPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched backing slice")
		}
	}()
	NewMatrixFrom(2, 2, make([]float64, 3))
}

func TestRowAliases(t *testing.T) {
	m := NewMatrix(2, 2)
	r := m.Row(1)
	r[0] = 42
	if m.At(1, 0) != 42 {
		t.Fatal("Row must alias the matrix storage")
	}
}

func TestRowView(t *testing.T) {
	m := NewMatrix(5, 3)
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			m.Set(i, j, float64(10*i+j))
		}
	}
	v := m.RowView(2, 2)
	if v.Rows != 2 || v.Cols != 3 {
		t.Fatalf("view shape %d×%d, want 2×3", v.Rows, v.Cols)
	}
	if v.At(0, 0) != 20 || v.At(1, 2) != 32 {
		t.Fatalf("view contents wrong: %v %v", v.At(0, 0), v.At(1, 2))
	}
	v.Set(0, 1, -1)
	if m.At(2, 1) != -1 {
		t.Fatal("view must alias parent storage")
	}
}

func TestRowViewOutOfRangePanics(t *testing.T) {
	m := NewMatrix(3, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range view")
		}
	}()
	m.RowView(2, 2)
}

func TestCloneIsDeep(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestCopyFromShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(2, 2).CopyFrom(NewMatrix(2, 3))
}

func TestZeroAndFillAndScale(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Fill(2)
	m.AddScaled(0.5, m) // scales m by 1.5
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != 3 {
				t.Fatalf("(%d,%d) = %v, want 3", i, j, m.At(i, j))
			}
		}
	}
	m.Zero()
	if !m.Equal(NewMatrix(2, 3), 0) {
		t.Fatal("Zero failed")
	}
}

func TestAddScaled(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Fill(1)
	b := NewMatrix(2, 2)
	b.Fill(3)
	a.AddScaled(-2, b)
	if a.At(1, 1) != -5 {
		t.Fatalf("got %v, want -5", a.At(1, 1))
	}
}

func TestEqualTolerance(t *testing.T) {
	a := NewMatrix(1, 2)
	b := NewMatrix(1, 2)
	b.Set(0, 1, 1e-9)
	if !a.Equal(b, 1e-8) {
		t.Fatal("should be equal within 1e-8")
	}
	if a.Equal(b, 1e-10) {
		t.Fatal("should differ at 1e-10")
	}
	if a.Equal(NewMatrix(2, 1), 1) {
		t.Fatal("different shapes must not be equal")
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := NewMatrix(1, 2)
	m.Set(0, 0, 3)
	m.Set(0, 1, 4)
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("‖m‖F = %v, want 5", got)
	}
}

func TestRandomizeStatistics(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	m := NewMatrix(100, 100)
	m.Randomize(rng, 0.5)
	var sum, sumSq float64
	for _, v := range m.Data {
		sum += v
		sumSq += v * v
	}
	n := float64(len(m.Data))
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.02 {
		t.Fatalf("mean %v too far from 0", mean)
	}
	if math.Abs(std-0.5) > 0.02 {
		t.Fatalf("stddev %v too far from 0.5", std)
	}
}

func TestVectorBasics(t *testing.T) {
	v := newVector(3)
	v.Set(0, 1)
	v.Set(1, 2)
	v.Set(2, 2)
	if v.Len() != 3 || v.At(1) != 2 {
		t.Fatal("basic accessors broken")
	}
	w := NewVectorFrom(append([]float64(nil), v.Data...))
	w.Scale(2)
	if v.At(0) != 1 || w.At(0) != 2 {
		t.Fatal("Scale changed another vector")
	}
}

// The vector add every update mode runs refuses vectors of unequal length.
func TestVectorMismatchPanics(t *testing.T) {
	for _, mode := range []UpdateMode{UpdateAtomic, UpdateRacy, UpdateLocked} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%v: expected panic", mode)
				}
			}()
			ApplyUpdateVec(mode, newVector(2), 1, newVector(3))
		}()
	}
}

func TestMatrixStringSmallAndLarge(t *testing.T) {
	small := NewMatrix(2, 2)
	if s := small.String(); len(s) == 0 {
		t.Fatal("empty String for small matrix")
	}
	large := NewMatrix(20, 20)
	if s := large.String(); len(s) > 120 {
		t.Fatalf("large-matrix String should be a summary, got %d bytes", len(s))
	}
}
