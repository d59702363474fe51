package serve

import (
	"math/rand/v2"
	"testing"

	"heterosgd/internal/device"
	"heterosgd/internal/nn"
)

// Property tests for the adaptive batch-ceiling controller. Everything here
// is synthetic and seeded: windows advance by batch count, never wall clock,
// so each case replays identically on every run.

func policyArch() nn.Arch {
	return nn.Arch{InputDim: 54, Hidden: []int{512, 512, 512, 512, 512, 512}, OutputDim: 2, Activation: nn.ActSigmoid}
}

// window feeds one full decision window of identical observations and
// returns Decide's outcome.
func window(p *AdaptivePolicy, batchSize, queueDepth int, p99Ms float64) (int, bool) {
	for !p.Observe(batchSize, queueDepth) {
	}
	return p.Decide(p99Ms)
}

func TestAdaptivePolicyStaysWithinClamps(t *testing.T) {
	dev := device.NewXeon("serve", 0)
	cases := []struct {
		name     string
		min, max int
		seed     uint64
	}{
		{"unit-floor", 1, 64, 1},
		{"raised-floor", 4, 32, 2},
		{"degenerate", 8, 8, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewAdaptivePolicy(PolicyConfig{Min: tc.min, Max: tc.max, Dev: dev, Arch: policyArch()})
			rng := rand.New(rand.NewPCG(tc.seed, 99))
			lastChange := -1
			for w := 0; w < 500; w++ {
				// Adversarial inputs: random fill, random queue pressure,
				// random latency tail, including zero and extreme values.
				size := 1 + rng.IntN(p.Ceiling())
				queue := rng.IntN(4 * tc.max)
				p99 := float64(rng.IntN(2000))
				before := p.Ceiling()
				ceil, changed := window(p, size, queue, p99)
				if ceil < tc.min || ceil > tc.max {
					t.Fatalf("window %d: ceiling %d outside [%d,%d]", w, ceil, tc.min, tc.max)
				}
				if changed {
					if ceil != before*2 && ceil != before/2 && ceil != tc.max && ceil != tc.min {
						t.Fatalf("window %d: ceiling jumped %d → %d (not a clamped doubling/halving)", w, before, ceil)
					}
					// Hysteresis: consecutive ceiling moves must be at least
					// Hysteresis windows apart (the streak rebuilds from
					// zero after every applied change).
					if lastChange >= 0 && w-lastChange < 2 {
						t.Fatalf("windows %d and %d both changed the ceiling (hysteresis 2)", lastChange, w)
					}
					lastChange = w
				}
			}
		})
	}
}

func TestAdaptivePolicyHysteresisPreventsOscillation(t *testing.T) {
	dev := device.NewXeon("serve", 0)
	p := NewAdaptivePolicy(PolicyConfig{Min: 1, Max: 64, Dev: dev, Arch: policyArch()})
	// Ramp to a mid ceiling first: saturated windows (full batches, deep
	// queue) grow 1 → 8.
	ramp := 0
	for p.Ceiling() < 8 {
		if _, changed := window(p, p.Ceiling(), 2*p.Ceiling(), 1); changed {
			ramp++
			if p.Ceiling() > 8 {
				t.Fatalf("overshot ramp: %d", p.Ceiling())
			}
		}
	}
	start := p.Ceiling()
	// Alternate a pure-grow window with a pure-shrink window. The raw
	// signal flips every window, so the streak never reaches Hysteresis=2
	// and the ceiling must not move at all.
	for w := 0; w < 50; w++ {
		var changed bool
		if w%2 == 0 {
			_, changed = window(p, p.Ceiling(), 2*p.Ceiling(), 1) // full + queued → grow signal
		} else {
			_, changed = window(p, 1, 0, 1) // near-empty batches → shrink signal
		}
		if changed {
			t.Fatalf("window %d: ceiling moved to %d on an alternating signal", w, p.Ceiling())
		}
	}
	if p.Ceiling() != start {
		t.Fatalf("ceiling drifted %d → %d under oscillating load", start, p.Ceiling())
	}
	if ramp == 0 {
		t.Fatal("ramp phase recorded no changes")
	}
}

func TestAdaptivePolicyConvergesToModelOptimum(t *testing.T) {
	// One worker thread, matching the serving default: batch saturation on
	// the cost model is then per-thread, and the optimum sits strictly
	// inside the clamps.
	dev := device.NewXeon("serve", 1)
	arch := policyArch()
	cfg := PolicyConfig{Min: 1, Max: 1024, Dev: dev, Arch: arch}
	opt := ModelOptimalBatch(dev, arch, 1, 1024)
	if opt <= cfg.Min || opt >= 1024 {
		t.Fatalf("model optimum %d is degenerate; pick a different arch", opt)
	}
	p := NewAdaptivePolicy(cfg)
	// Static saturating load: every batch full, a ceiling's worth queued.
	// The ceiling must climb to exactly the cost-model optimum and then
	// never move again, no matter how long the load persists.
	converged := -1
	for w := 0; w < 400; w++ {
		window(p, p.Ceiling(), 2*p.Ceiling(), 1)
		if p.Ceiling() == opt && converged < 0 {
			converged = w
		}
		if converged >= 0 && p.Ceiling() != opt {
			t.Fatalf("window %d: left the optimum %d for %d", w, opt, p.Ceiling())
		}
	}
	if converged < 0 {
		t.Fatalf("never reached the model optimum %d (ceiling %d)", opt, p.Ceiling())
	}

	// Load drains: near-empty batches walk the ceiling back to the floor.
	for w := 0; w < 400 && p.Ceiling() > cfg.Min; w++ {
		window(p, 1, 0, 1)
	}
	if p.Ceiling() != cfg.Min {
		t.Fatalf("ceiling stuck at %d after load drained", p.Ceiling())
	}
}

func TestAdaptivePolicyIdleHoldsFloor(t *testing.T) {
	// At ceiling 1 every batch is trivially "full"; without queue pressure
	// that must not read as growth demand, or idle traffic would pay
	// MaxWait coalescing latency for nothing.
	p := NewAdaptivePolicy(PolicyConfig{Min: 1, Max: 64, Dev: device.NewXeon("serve", 0), Arch: policyArch()})
	for w := 0; w < 50; w++ {
		if _, changed := window(p, 1, 0, 1); changed {
			t.Fatalf("window %d: grew to %d on idle traffic", w, p.Ceiling())
		}
	}
	if p.Ceiling() != 1 {
		t.Fatalf("idle ceiling = %d, want 1", p.Ceiling())
	}
}

func TestAdaptivePolicyP99GuardBlocksGrowth(t *testing.T) {
	p := NewAdaptivePolicy(PolicyConfig{Min: 1, Max: 64, Dev: device.NewXeon("serve", 0), Arch: policyArch()})
	// Saturated load, but the tail deteriorates faster than p99Factor every
	// window: growth stays blocked even though the queue says grow.
	p99 := 1.0
	for w := 0; w < 50; w++ {
		if _, changed := window(p, p.Ceiling(), 2*p.Ceiling(), p99); changed {
			t.Fatalf("window %d: grew to %d while p99 was deteriorating", w, p.Ceiling())
		}
		p99 *= 5 // worse than the 4× guard every window
	}
	if p.Ceiling() != 1 {
		t.Fatalf("ceiling = %d, want 1", p.Ceiling())
	}
}

func TestModelOptimalBatchMatchesGainThreshold(t *testing.T) {
	dev := device.NewXeon("serve", 1)
	arch := policyArch()
	opt := ModelOptimalBatch(dev, arch, 1, 1024)
	// Just below the optimum the model must still promise a gain; at the
	// optimum it must not — that is the policy's stopping rule.
	if opt > 1 && modelGain(dev, arch, opt/2) < 1+gainEps {
		t.Fatalf("gain at %d already below threshold, optimum %d too high", opt/2, opt)
	}
	if opt < 1024 && modelGain(dev, arch, opt) >= 1+gainEps {
		t.Fatalf("gain at optimum %d still above threshold", opt)
	}
}
