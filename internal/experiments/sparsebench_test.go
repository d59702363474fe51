package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

// NewProblem must keep sparse specs at native width: the 2,048-dim cap that
// EXPERIMENTS.md used to document applies to dense datasets only.
func TestNewProblemRealSimKeepsNativeWidth(t *testing.T) {
	for _, sc := range []Scale{Small(), Medium()} {
		p, err := NewProblem("real-sim", sc, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Dataset.Sparse() {
			t.Fatalf("%s: real-sim problem is not CSR-backed", sc.Name)
		}
		if p.Dataset.Dim() != 20958 || p.Net.Arch.InputDim != 20958 {
			t.Fatalf("%s: real-sim width %d (arch %d), want native 20958", sc.Name, p.Dataset.Dim(), p.Net.Arch.InputDim)
		}
		if p.Net.Arch.InputDensity == 0 {
			t.Fatalf("%s: sparse problem must carry its input density into the cost model", sc.Name)
		}
	}
	// Dense datasets keep the cap behaviour.
	p, err := NewProblem("covtype", Small(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Dataset.Sparse() {
		t.Fatal("covtype must stay dense")
	}
}

// The headline acceptance number: on real-sim-shaped data the CSR gradient
// path must be at least 5× faster than the dense one, in the median of the
// interleaved dense/sparse pairs.
func TestSparseBenchRealSimSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seconds of dense 20,958-dim gradients")
	}
	rows, out, err := SparseBench(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Dataset != "real-sim" {
		t.Fatalf("unexpected rows: %+v", rows)
	}
	rs := rows[0]
	if rs.Dim != 20958 {
		t.Fatalf("real-sim bench ran at %d dims, want native 20958", rs.Dim)
	}
	if rs.Pairs < 3 {
		t.Fatalf("real-sim bench ran %d dense/sparse pairs, want at least 3", rs.Pairs)
	}
	if rs.Speedup < 5 {
		t.Fatalf("real-sim sparse speedup %.1fx (median of %d pairs) below the required 5x", rs.Speedup, rs.Pairs)
	}
	if rs.SparseNNZPerSec <= 0 || rs.SparseExamplesPerSec <= 0 {
		t.Fatalf("throughput not measured: %+v", rs)
	}
	if !strings.Contains(out, "real-sim") || !strings.Contains(out, "delicious") {
		t.Fatalf("summary missing datasets:\n%s", out)
	}
	buf, err := SparseBenchJSON(rows)
	if err != nil {
		t.Fatal(err)
	}
	var back []SparseBenchResult
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("BENCH_sparse.json payload does not round-trip: %v", err)
	}
}

func TestRegistryHasSparseBench(t *testing.T) {
	if _, err := ByID("sparsebench"); err != nil {
		t.Fatal(err)
	}
}
