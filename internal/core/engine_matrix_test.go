package core

import (
	"context"
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
		run  func(t *testing.T, alg Algorithm) (*Result, error)
	}{
		{"sim", engineSim, func(t *testing.T, alg Algorithm) (*Result, error) {
			// A finite loss needs no long horizon, and the single-threaded
			// engine is slow under the race detector.
			return RunSim(context.Background(), tinyConfig(t, alg), simHorizon/10)
		}},
		{"real", engineReal, func(t *testing.T, alg Algorithm) (*Result, error) {
			cfg := tinyConfig(t, alg)
			// The default UpdateAtomic reads the model unsynchronized by
			// design (Hogwild); locked mode keeps the matrix race-clean.
			cfg.UpdateMode = tensor.UpdateLocked
			return RunReal(context.Background(), cfg, 100*time.Millisecond)
		}},
		{"cluster", engineCluster, func(t *testing.T, alg Algorithm) (*Result, error) {
			cfg := tinyConfig(t, alg)
			if cfg.supportedOn(engineCluster) != nil {
				// Rejection precedes the attach phase; no worker needs to dial.
				return RunCluster(context.Background(), cfg, time.Second, transport.NewLocal(1), ClusterOptions{})
			}
			return clusterHarness(t, alg, faults.NewLinkPlan(7), 300*time.Millisecond), nil
		}},
	}
	for _, name := range AlgorithmNames() {
		alg, err := ParseAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range engines {
			t.Run(name+"/"+eng.name, func(t *testing.T) {
				cfg := tinyConfig(t, alg)
				rule := cfg.supportedOn(eng.e)
				res, err := eng.run(t, alg)
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
				if eng.e == engineCluster && res.Health.Transport.AppliedExamples != res.ExamplesProcessed {
					t.Fatalf("exactly-once violated: applied %d examples, scheduled %d",
						res.Health.Transport.AppliedExamples, res.ExamplesProcessed)
				}
			})
		}
	}
}
