package core

import (
	"context"
	"testing"
	"time"

	"heterosgd/internal/data"
	"heterosgd/internal/nn"
	"heterosgd/internal/tensor"
)

// sparseRealSimConfig builds a training problem at real-sim's NATIVE
// 20,958-dim feature space — the width the dense path could never afford —
// with a scaled-down example count and hidden stack so the test stays fast.
func sparseRealSimConfig(t *testing.T, alg Algorithm) Config {
	t.Helper()
	spec := data.RealSim.Scaled(0.005)
	spec.HiddenLayers, spec.HiddenUnits = 2, 24
	ds := data.GenerateCSR(spec, 42)
	if !ds.Sparse() || ds.Dim() != 20958 {
		t.Fatalf("expected native-width CSR dataset, got dim %d sparse %v", ds.Dim(), ds.Sparse())
	}
	net := nn.MustNetwork(spec.Arch())
	cfg := NewConfig(alg, net, ds, tinyPreset())
	cfg.BaseLR = 0.1
	cfg.RefBatch = 4
	cfg.EvalSubset = 256
	return cfg
}

// TestSimSparseRealSimFullDim trains the full-dimensionality real-sim
// problem through the discrete-event engine: every gradient flows through
// the CSR forward/backward kernels (the 20,958-wide dense matrix is never
// materialized), and the sparse first-layer gradients with ActiveCols
// column-restricted updates must still learn.
func TestSimSparseRealSimFullDim(t *testing.T) {
	for _, alg := range []Algorithm{AlgCPUGPUHogbatch, AlgAdaptiveHogbatch} {
		cfg := sparseRealSimConfig(t, alg)
		res, err := RunSim(context.Background(), cfg, simHorizon)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		first := res.Trace.Points[0].Loss
		if res.FinalLoss >= first*0.9 {
			t.Fatalf("%v: loss %v → %v did not drop on sparse input", alg, first, res.FinalLoss)
		}
		if res.TotalUpdates() == 0 {
			t.Fatalf("%v: no updates recorded", alg)
		}
		if w0 := res.Params.Weights[0]; w0.Cols != 20958 {
			t.Fatalf("%v: first layer is %d wide, want native 20958", alg, w0.Cols)
		}
	}
}

// TestRealSparseRealSimFullDim is the live-goroutine counterpart: CPU
// Hogwild lanes and the GPU deep-replica path both consume CSR batch views
// concurrently (run under -race with UpdateLocked to check the sharing). It
// stops on work, not time — the loss target, under a generous ceiling — since
// a fixed 300 ms is a handful of updates under the race detector, too few to
// say which way the loss is going.
func TestRealSparseRealSimFullDim(t *testing.T) {
	cfg := sparseRealSimConfig(t, AlgCPUGPUHogbatch)
	cfg.UpdateMode = tensor.UpdateLocked
	cfg.TargetLoss = 0.55
	res, err := RunReal(context.Background(), cfg, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Trace.Points[0].Loss
	if res.FinalLoss >= first*0.9 {
		t.Fatalf("loss %v → %v did not drop on sparse input", first, res.FinalLoss)
	}
	if res.TotalUpdates() == 0 {
		t.Fatal("no updates recorded")
	}
}

// TestSimSparseMatchesDenseTrajectory pins the representation equivalence
// end-to-end: the same synthetic problem trained from the same seed must
// produce bit-comparable loss traces whether the features are stored dense
// or CSR — the sparse kernels change the arithmetic order only within
// summation tolerance.
func TestSimSparseMatchesDenseTrajectory(t *testing.T) {
	spec := data.RealSim.Scaled(0.002)
	spec.HiddenLayers, spec.HiddenUnits = 2, 16
	run := func(sparse bool) *Result {
		var ds *data.Dataset
		if sparse {
			ds = data.GenerateCSR(spec, 7)
		} else {
			dsSparse := data.GenerateCSR(spec, 7)
			ds = dsSparse
			ds.X = dsSparse.XS.ToDense()
			ds.XS = nil
		}
		net := nn.MustNetwork(spec.Arch())
		cfg := NewConfig(AlgCPUGPUHogbatch, net, ds, tinyPreset())
		cfg.BaseLR = 0.1
		cfg.RefBatch = 4
		res, err := RunSim(context.Background(), cfg, simHorizon)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rs, rd := run(true), run(false)
	if len(rs.Trace.Points) != len(rd.Trace.Points) {
		t.Fatalf("trace lengths differ: %d sparse vs %d dense", len(rs.Trace.Points), len(rd.Trace.Points))
	}
	for i := range rs.Trace.Points {
		ps, pd := rs.Trace.Points[i], rd.Trace.Points[i]
		if diff := ps.Loss - pd.Loss; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("point %d: sparse loss %v vs dense %v", i, ps.Loss, pd.Loss)
		}
	}
	if rs.TotalUpdates() != rd.TotalUpdates() {
		t.Fatal("sparse and dense runs performed different numbers of updates")
	}
}
