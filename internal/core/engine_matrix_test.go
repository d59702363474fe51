package core

import (
	"context"
	"slices"
	"testing"
	"time"

	"heterosgd/internal/faults"
	"heterosgd/internal/tensor"
	"heterosgd/internal/transport"
)

// TestAlgorithmEngineMatrix walks every algorithm name the CLIs accept
// across all three engines. Each pair must either complete a tiny run — a
// finite loss on the in-process engines, the exactly-once invariant on the
// cluster — or be rejected by the engine-support table, so a combination is
// refused by rule, never by omission, and the engine agrees with its table.
func TestAlgorithmEngineMatrix(t *testing.T) {
	engines := []struct {
		name string
		e    engine
		run  func(t *testing.T, cfg Config) (*Result, error)
	}{
		{"sim", engineSim, func(t *testing.T, cfg Config) (*Result, error) {
			// A finite loss needs no long horizon, and the single-threaded
			// engine is slow under the race detector.
			return RunSim(context.Background(), cfg, simHorizon/10)
		}},
		{"real", engineReal, func(t *testing.T, cfg Config) (*Result, error) {
			// The default UpdateAtomic reads the model unsynchronized by
			// design (Hogwild); locked mode keeps the matrix race-clean.
			cfg.UpdateMode = tensor.UpdateLocked
			return RunReal(context.Background(), cfg, 100*time.Millisecond)
		}},
		{"cluster", engineCluster, func(t *testing.T, cfg Config) (*Result, error) {
			if cfg.supportedOn(engineCluster) != nil {
				// Rejection precedes the attach phase; no worker needs to dial.
				return RunCluster(context.Background(), cfg, time.Second, transport.NewLocal(1), ClusterOptions{})
			}
			return clusterHarness(t, cfg.Algorithm, faults.NewLinkPlan(7), 300*time.Millisecond), nil
		}},
	}
	// check runs one configuration on one engine and holds the engine to
	// its table.
	check := func(t *testing.T, cfg Config, eng int) {
		rule := cfg.supportedOn(engines[eng].e)
		res, err := engines[eng].run(t, cfg)
		if rule != nil {
			if err == nil {
				t.Fatalf("support table rejects the pair (%v) but the engine ran it", rule)
			}
			return
		}
		if err != nil {
			t.Fatalf("support table admits the pair but the engine refused: %v", err)
		}
		if !isFinite(res.FinalLoss) {
			t.Fatalf("final loss %v", res.FinalLoss)
		}
		if engines[eng].e == engineCluster && res.Health.Transport.AppliedExamples != res.ExamplesProcessed {
			t.Fatalf("exactly-once violated: applied %d examples, scheduled %d",
				res.Health.Transport.AppliedExamples, res.ExamplesProcessed)
		}
	}
	for _, name := range AlgorithmNames() {
		alg, err := ParseAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, eng := range engines {
			t.Run(name+"/"+eng.name, func(t *testing.T) { check(t, tinyConfig(t, alg), i) })
		}
	}
	// A Config field only one engine reads is refused on the others by the
	// same table, not silently ignored.
	for i, eng := range engines {
		t.Run("stale-damping/"+eng.name, func(t *testing.T) {
			cfg := tinyConfig(t, AlgCPUGPUHogbatch)
			cfg.StaleDamping = 0.5
			if rejected := cfg.supportedOn(eng.e) != nil; rejected == (eng.e == engineSim) {
				t.Fatalf("StaleDamping rejected on %s: %v, want it on the sim only", eng.name, rejected)
			}
			check(t, cfg, i)
		})
	}
}

// TestClusterAlgorithmNames: the cluster's -alg list is exactly the
// algorithms its support table admits on their NewConfig.
func TestClusterAlgorithmNames(t *testing.T) {
	listed := ClusterAlgorithmNames()
	for _, name := range AlgorithmNames() {
		alg, err := ParseAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := tinyConfig(t, alg)
		err = cfg.supportedOn(engineCluster)
		if in := slices.Contains(listed, name); in != (err == nil) {
			t.Errorf("%s: listed=%v but the cluster support check says %v", name, in, err)
		}
	}
}
