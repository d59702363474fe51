package data

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestReadLIBSVMMulticlass(t *testing.T) {
	in := `+1 1:0.5 3:2
-1 2:1.5

# comment line
+1 1:-1 4:0.25
`
	d, err := ReadLIBSVM(strings.NewReader(in), LIBSVMOptions{Name: "toy"})
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 3 || d.Dim() != 4 || d.NumClasses != 2 {
		t.Fatalf("parsed %d×%d, %d classes", d.N(), d.Dim(), d.NumClasses)
	}
	if d.X.At(0, 0) != 0.5 || d.X.At(0, 2) != 2 || d.X.At(1, 1) != 1.5 {
		t.Fatal("feature values misplaced")
	}
	// +1 seen first → class 0; -1 → class 1.
	if d.Y.Class[0] != 0 || d.Y.Class[1] != 1 || d.Y.Class[2] != 0 {
		t.Fatalf("labels = %v", d.Y.Class)
	}
}

func TestReadLIBSVMMultiLabel(t *testing.T) {
	in := "0,2 1:1\n1 2:1\n0,1,2 1:0.5 2:0.5\n"
	d, err := ReadLIBSVM(strings.NewReader(in), LIBSVMOptions{Name: "ml", MultiLabel: true})
	if err != nil {
		t.Fatal(err)
	}
	if !d.MultiLabel || d.NumClasses != 3 {
		t.Fatalf("NumClasses = %d", d.NumClasses)
	}
	if len(d.Y.Multi[2]) != 3 {
		t.Fatalf("example 2 labels = %v", d.Y.Multi[2])
	}
}

func TestReadLIBSVMErrors(t *testing.T) {
	cases := map[string]string{
		"bad label":   "x 1:1\n",
		"bad feature": "1 notafeature\n",
		"bad index":   "1 0:1\n",
		"bad value":   "1 1:xyz\n",
		"empty":       "",
	}
	for name, in := range cases {
		if _, err := ReadLIBSVM(strings.NewReader(in), LIBSVMOptions{}); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestLIBSVMRoundTrip(t *testing.T) {
	spec := W8a.Scaled(0.002)
	d := Generate(spec, 7)
	var buf bytes.Buffer
	if err := WriteLIBSVM(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLIBSVM(&buf, LIBSVMOptions{Name: d.Name, Dim: d.Dim(), NumClasses: d.NumClasses})
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != d.N() || back.Dim() != d.Dim() {
		t.Fatalf("round trip shape %d×%d vs %d×%d", back.N(), back.Dim(), d.N(), d.Dim())
	}
	for i := 0; i < d.N(); i++ {
		a, b := d.X.Row(i), back.X.Row(i)
		for j := range a {
			if diff := a[j] - b[j]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("row %d col %d: %v vs %v", i, j, a[j], b[j])
			}
		}
	}
}

func TestLIBSVMRoundTripMultiLabel(t *testing.T) {
	spec := Delicious.Scaled(0.01)
	d := Generate(spec, 9)
	var buf bytes.Buffer
	if err := WriteLIBSVM(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLIBSVM(&buf, LIBSVMOptions{MultiLabel: true, Dim: d.Dim(), NumClasses: d.NumClasses, Name: d.Name})
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != d.N() {
		t.Fatalf("N %d vs %d", back.N(), d.N())
	}
	for i := 0; i < d.N(); i++ {
		if len(back.Y.Multi[i]) != len(d.Y.Multi[i]) {
			t.Fatalf("example %d label count %d vs %d", i, len(back.Y.Multi[i]), len(d.Y.Multi[i]))
		}
	}
}

func TestLIBSVMFileIO(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "toy.libsvm")
	d := Generate(Covtype.Scaled(0.0002), 3)
	if err := WriteLIBSVMFile(path, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLIBSVMFile(path, LIBSVMOptions{Dim: d.Dim(), NumClasses: d.NumClasses})
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != d.N() {
		t.Fatalf("file round trip N %d vs %d", back.N(), d.N())
	}
	if back.Name != path {
		t.Fatalf("default name %q", back.Name)
	}
	if _, err := ReadLIBSVMFile(filepath.Join(dir, "missing"), LIBSVMOptions{}); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestGenerateShapes(t *testing.T) {
	for _, spec := range AllSpecs() {
		s := spec.Scaled(0.001)
		d := Generate(s, 42)
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if d.N() != s.N || d.Dim() != s.Dim {
			t.Fatalf("%s: got %d×%d want %d×%d", spec.Name, d.N(), d.Dim(), s.N, s.Dim)
		}
		arch := s.Arch()
		if err := arch.Validate(); err != nil {
			t.Fatalf("%s arch: %v", spec.Name, err)
		}
		if len(arch.Hidden) != s.HiddenLayers {
			t.Fatalf("%s: %d hidden layers, want %d", spec.Name, len(arch.Hidden), s.HiddenLayers)
		}
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	s := Covtype.Scaled(0.0005)
	a := Generate(s, 1)
	b := Generate(s, 1)
	c := Generate(s, 2)
	if !a.X.Equal(b.X, 0) {
		t.Fatal("same seed must generate identical data")
	}
	if a.X.Equal(c.X, 0) {
		t.Fatal("different seeds should differ")
	}
}

func TestGenerateDensity(t *testing.T) {
	s := RealSim.Scaled(0.01)
	d := Generate(s, 5)
	nz := 0
	for _, v := range d.X.Data {
		if v != 0 {
			nz++
		}
	}
	got := float64(nz) / float64(len(d.X.Data))
	if got > 3*s.Density || got < s.Density/3 {
		t.Fatalf("density %v far from spec %v", got, s.Density)
	}
}

func TestGenerateMultiLabelCardinality(t *testing.T) {
	s := Delicious.Scaled(0.05)
	d := Generate(s, 11)
	total := 0
	for _, ls := range d.Y.Multi {
		if len(ls) == 0 {
			t.Fatal("example with no labels")
		}
		seen := map[int32]bool{}
		for _, l := range ls {
			if seen[l] {
				t.Fatal("duplicate label in one example")
			}
			seen[l] = true
		}
		total += len(ls)
	}
	avg := float64(total) / float64(d.N())
	if avg < s.AvgLabels/2 || avg > s.AvgLabels*2 {
		t.Fatalf("avg labels %v far from spec %v", avg, s.AvgLabels)
	}
}

func TestScaledClamps(t *testing.T) {
	s := Covtype.Scaled(1e-9)
	if s.N < 64 {
		t.Fatalf("scaled N %d below floor", s.N)
	}
	rs := RealSim.Scaled(0.001)
	if rs.Dim != RealSim.Dim {
		t.Fatal("sparse specs keep native dimensionality at any scale")
	}
	wide := RealSim
	wide.Sparse = false
	if wide.Scaled(0.001).Dim >= RealSim.Dim {
		t.Fatal("tiny scale should shrink very wide dense dims")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for scale > 1")
		}
	}()
	Covtype.Scaled(2)
}

func TestSpecByName(t *testing.T) {
	s, err := SpecByName("real-sim")
	if err != nil || s.Dim != RealSim.Dim {
		t.Fatalf("SpecByName: %v %v", s, err)
	}
	if _, err := SpecByName("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestClassBalance(t *testing.T) {
	d := Generate(Covtype.Scaled(0.01), 13)
	counts := make([]int, d.NumClasses)
	for _, c := range d.Y.Class {
		counts[c]++
	}
	for c, n := range counts {
		if n == 0 {
			t.Fatalf("class %d has no examples", c)
		}
	}
}
