package data

import (
	"math/rand/v2"
	"strings"
	"testing"
)

// GenerateCSR must be ToDense-equal to Generate: same RNG consumption, same
// examples, same labels.
func TestGenerateCSRMatchesDense(t *testing.T) {
	for _, spec := range []SynthSpec{
		Covtype.Scaled(0.001),
		Delicious.Scaled(0.02),
		RealSim.Scaled(0.002),
	} {
		dense := Generate(spec, 42)
		sparse := GenerateCSR(spec, 42)
		if sparse.XS == nil || sparse.X != nil {
			t.Fatalf("%s: GenerateCSR did not produce CSR storage", spec.Name)
		}
		if err := sparse.Validate(); err != nil {
			t.Fatal(err)
		}
		if !sparse.XS.ToDense().Equal(dense.X, 0) {
			t.Fatalf("%s: GenerateCSR deviates from Generate", spec.Name)
		}
		if spec.MultiLabel {
			for i := range dense.Y.Multi {
				if len(dense.Y.Multi[i]) != len(sparse.Y.Multi[i]) {
					t.Fatalf("%s: label sets diverge at %d", spec.Name, i)
				}
			}
		} else {
			for i := range dense.Y.Class {
				if dense.Y.Class[i] != sparse.Y.Class[i] {
					t.Fatalf("%s: labels diverge at %d", spec.Name, i)
				}
			}
		}
	}
}

// The sparse spec keeps real-sim at its native 20,958 dims and marks the
// architecture's input density.
func TestRealSimSpecIsSparse(t *testing.T) {
	if !RealSim.Sparse {
		t.Fatal("real-sim must be a sparse spec")
	}
	if RealSim.Scaled(0.01).Dim != 20958 {
		t.Fatal("scaling must not shrink sparse dims")
	}
	arch := RealSim.Arch()
	if arch.InputDensity != RealSim.Density {
		t.Fatalf("arch density %v, want %v", arch.InputDensity, RealSim.Density)
	}
	if Covtype.Arch().InputDensity != 0 {
		t.Fatal("dense specs must not set InputDensity")
	}
}

// Sparse Shuffle must consume the RNG identically to dense Shuffle and
// produce the same example order, keeping shared backing arrays (train/test
// splits) coherent.
func TestSparseShuffleMatchesDense(t *testing.T) {
	spec := RealSim.Scaled(0.002)
	dense := Generate(spec, 7)
	sparse := GenerateCSR(spec, 7)
	train, test := sparse.Split(0.8)
	testBefore := test.XS.ToDense()

	rngD := rand.New(rand.NewPCG(99, 1))
	rngS := rand.New(rand.NewPCG(99, 1))
	denseTrain, _ := dense.Split(0.8)
	denseTrain.Shuffle(rngD)
	train.Shuffle(rngS)

	if rngD.Uint64() != rngS.Uint64() {
		t.Fatal("sparse Shuffle consumed the RNG differently from dense")
	}
	if !train.XS.ToDense().Equal(denseTrain.X, 0) {
		t.Fatal("sparse shuffle order deviates from dense")
	}
	for i := range train.Y.Class {
		if train.Y.Class[i] != denseTrain.Y.Class[i] {
			t.Fatalf("labels diverge at %d after shuffle", i)
		}
	}
	// The sibling test split shares ColIdx/Val/RowPtr tails — untouched.
	if !test.XS.ToDense().Equal(testBefore, 0) {
		t.Fatal("shuffling the train split corrupted the test split")
	}
	if err := sparse.Validate(); err != nil {
		t.Fatalf("parent CSR inconsistent after view shuffle: %v", err)
	}
}

// Batch views and sub-batches on sparse datasets agree with dense ones.
func TestSparseBatchViews(t *testing.T) {
	spec := RealSim.Scaled(0.002)
	dense := Generate(spec, 3)
	sparse := GenerateCSR(spec, 3)
	b := sparse.View(10, 42)
	bd := dense.View(10, 42)
	if b.Size() != bd.Size() || b.XS == nil || b.X != nil {
		t.Fatalf("bad sparse batch %+v", b)
	}
	if in := b.Input(); in.Sparse == nil || in.Dense != nil {
		t.Fatal("sparse batch input must be sparse")
	}
	if !b.XS.ToDense().Equal(bd.X, 0) {
		t.Fatal("sparse view deviates from dense view")
	}
	sub := b.Sub(5, 20)
	subD := bd.Sub(5, 20)
	if sub.Lo != 15 || sub.Hi != 30 || subD.Lo != 15 {
		t.Fatalf("sub-batch range [%d,%d)", sub.Lo, sub.Hi)
	}
	if !sub.XS.ToDense().Equal(subD.X, 0) {
		t.Fatal("sparse sub-batch deviates from dense")
	}
	for i := range sub.Y.Class {
		if sub.Y.Class[i] != sparse.Y.Class[15+i] {
			t.Fatal("sub-batch labels misaligned")
		}
	}
	if got := sparse.Subset(30).N(); got != 30 {
		t.Fatalf("Subset kept %d examples", got)
	}
}

// The sparse LIBSVM reader agrees with the dense reader and keeps sparsity;
// a sparse dataset round-trips through WriteLIBSVM.
func TestReadLIBSVMSparse(t *testing.T) {
	const in = "1 3:4.5 1:2\n-1 2:1 2:7\n1 5:1e-3\n"
	dd, err := ReadLIBSVM(strings.NewReader(in), LIBSVMOptions{Name: "t"})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := ReadLIBSVM(strings.NewReader(in), LIBSVMOptions{Name: "t", Sparse: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Sparse() || ds.XS.NNZ() != 4 { // duplicate 2:1/2:7 collapses
		t.Fatalf("sparse read: %v", ds.XS)
	}
	if ds.XS.At(1, 1) != 7 {
		t.Fatalf("duplicate index must keep last value, got %v", ds.XS.At(1, 1))
	}
	if !ds.XS.ToDense().Equal(dd.X, 0) {
		t.Fatal("sparse read deviates from dense read")
	}
	var sb strings.Builder
	if err := WriteLIBSVM(&sb, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLIBSVM(strings.NewReader(sb.String()), LIBSVMOptions{Name: "t", Sparse: true, Dim: ds.Dim()})
	if err != nil {
		t.Fatal(err)
	}
	if !back.XS.ToDense().Equal(dd.X, 0) {
		t.Fatal("sparse dataset does not round-trip through LIBSVM")
	}
}

// Oversized inputs return errors instead of attempting huge allocations.
func TestReadLIBSVMCaps(t *testing.T) {
	if _, err := ReadLIBSVM(strings.NewReader("1 16777217:1\n"), LIBSVMOptions{}); err == nil {
		t.Fatal("index beyond cap must error")
	}
	if _, err := ReadLIBSVM(strings.NewReader("1 99999999999999999999:1\n"), LIBSVMOptions{}); err == nil {
		t.Fatal("overflowing index must error")
	}
	// A legal-index but too-wide-to-densify dataset errors densely but
	// parses sparsely.
	wide := "1 16000000:1\n0 1:1\n" + strings.Repeat("1 2:1\n", 30)
	if _, err := ReadLIBSVM(strings.NewReader(wide), LIBSVMOptions{}); err == nil {
		t.Fatal("dense materialization beyond the element cap must error")
	}
	d, err := ReadLIBSVM(strings.NewReader(wide), LIBSVMOptions{Sparse: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.Dim() != 16000000 || d.XS.NNZ() != 32 {
		t.Fatalf("sparse wide parse: dim=%d nnz=%d", d.Dim(), d.XS.NNZ())
	}
}
