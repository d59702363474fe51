package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestScheduleWorkDrainsEpochExactly(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	c := newCoordinator(&cfg)
	total := 0
	for {
		b, ok := c.scheduleWork(0)
		if !ok {
			break
		}
		total += b.Size()
	}
	if total != cfg.Dataset.N() {
		t.Fatalf("assigned %d of %d examples", total, cfg.Dataset.N())
	}
	if !c.poolEmpty() {
		t.Fatal("pool should be empty")
	}
	c.refill()
	if c.poolEmpty() || c.epoch != 1 {
		t.Fatal("refill failed")
	}
}

func TestScheduleWorkPartialFinalBatch(t *testing.T) {
	cfg := tinyConfig(t, AlgHogbatchGPU) // batch 128, N=512 → exact; shrink N
	cfg.Dataset = cfg.Dataset.Subset(300)
	c := newCoordinator(&cfg)
	sizes := []int{}
	for {
		b, ok := c.scheduleWork(0)
		if !ok {
			break
		}
		sizes = append(sizes, b.Size())
	}
	if len(sizes) != 3 || sizes[2] != 44 {
		t.Fatalf("batch sizes %v, want [128 128 44]", sizes)
	}
}

func TestStaticAlgorithmsNeverResize(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	c := newCoordinator(&cfg)
	for i := 0; i < 50; i++ {
		c.reportUpdates(0, 4)
		c.reportUpdates(1, 1)
		if _, ok := c.scheduleWork(i % 2); !ok {
			c.refill()
		}
	}
	for i, w := range cfg.Workers {
		if c.batch[i] != w.InitialBatch {
			t.Fatalf("worker %d batch drifted to %d", i, c.batch[i])
		}
		if c.resizes[i] != 0 {
			t.Fatal("static run recorded resizes")
		}
	}
}

func TestAdaptLaggardShrinksLeaderGrows(t *testing.T) {
	cfg := tinyConfig(t, AlgAdaptiveHogbatch)
	c := newCoordinator(&cfg)
	cpuInit, gpuInit := c.batch[0], c.batch[1]

	// CPU storms ahead in updates; GPU lags.
	c.reportUpdates(0, 1000)
	c.reportUpdates(1, 1)

	// Leader (CPU) must grow its batch on next request.
	c.scheduleWork(0)
	if c.batch[0] != min(cpuInit*2, cfg.Workers[0].MaxBatch) {
		t.Fatalf("leader batch %d, want doubled %d", c.batch[0], cpuInit*2)
	}
	// Laggard (GPU) must shrink.
	c.scheduleWork(1)
	if c.batch[1] != max(gpuInit/2, cfg.Workers[1].MinBatch) {
		t.Fatalf("laggard batch %d, want halved %d", c.batch[1], gpuInit/2)
	}
	if c.resizes[0] != 1 || c.resizes[1] != 1 {
		t.Fatalf("resizes %v", c.resizes)
	}
}

func TestAdaptClampsAtThresholds(t *testing.T) {
	cfg := tinyConfig(t, AlgAdaptiveHogbatch)
	c := newCoordinator(&cfg)
	c.reportUpdates(0, 1_000_000)
	for i := 0; i < 30; i++ {
		if _, ok := c.scheduleWork(0); !ok {
			c.refill()
		}
		if _, ok := c.scheduleWork(1); !ok {
			c.refill()
		}
	}
	if c.batch[0] != cfg.Workers[0].MaxBatch {
		t.Fatalf("leader should sit at MaxBatch, got %d", c.batch[0])
	}
	if c.batch[1] != cfg.Workers[1].MinBatch {
		t.Fatalf("laggard should sit at MinBatch, got %d", c.batch[1])
	}
}

func TestAdaptEqualCountsNoChange(t *testing.T) {
	cfg := tinyConfig(t, AlgAdaptiveHogbatch)
	c := newCoordinator(&cfg)
	c.reportUpdates(0, 10)
	c.reportUpdates(1, 10)
	b0, b1 := c.batch[0], c.batch[1]
	c.scheduleWork(0)
	c.scheduleWork(1)
	if c.batch[0] != b0 || c.batch[1] != b1 {
		t.Fatal("equal update counts must not trigger adaptation")
	}
}

func TestBetaWeightsCPUUpdates(t *testing.T) {
	cfg := tinyConfig(t, AlgAdaptiveHogbatch)
	cfg.Beta = 0.5
	c := newCoordinator(&cfg)
	c.reportUpdates(0, 100) // CPU worker (Threads > 1): β-weighted
	if c.updates[0] != 50 {
		t.Fatalf("CPU policy updates = %d, want 50", c.updates[0])
	}
	c.reportUpdates(1, 100) // GPU worker: unweighted
	if c.updates[1] != 100 {
		t.Fatalf("GPU policy updates = %d, want 100", c.updates[1])
	}
}

func TestEpochFracAccumulates(t *testing.T) {
	cfg := tinyConfig(t, AlgHogbatchGPU)
	c := newCoordinator(&cfg)
	for e := 0; e < 2; e++ {
		for {
			if _, ok := c.scheduleWork(0); !ok {
				break
			}
		}
		c.refill()
	}
	if f := c.epochFrac(); f != 2 {
		t.Fatalf("epochFrac = %v, want 2", f)
	}
}

// Property: under any random sequence of update reports and work requests,
// every worker's batch size stays within its [MinBatch, MaxBatch] window —
// Algorithm 2's clamping invariant.
func TestQuickAdaptiveBatchAlwaysInBounds(t *testing.T) {
	cfg := tinyConfig(t, AlgAdaptiveHogbatch)
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 17))
		c := newCoordinator(&cfg)
		for step := 0; step < 300; step++ {
			id := rng.IntN(len(cfg.Workers))
			switch rng.IntN(3) {
			case 0:
				c.reportUpdates(id, int64(rng.IntN(100)))
			case 1:
				if _, ok := c.scheduleWork(id); !ok {
					c.refill()
				}
			case 2:
				c.adapt(id)
			}
			for i, w := range cfg.Workers {
				if c.batch[i] < w.MinBatch || c.batch[i] > w.MaxBatch {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: assigned batches partition the epoch — no example is assigned
// twice and none is skipped, for any interleaving of two workers.
func TestQuickEpochPartition(t *testing.T) {
	cfg := tinyConfig(t, AlgAdaptiveHogbatch)
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 23))
		c := newCoordinator(&cfg)
		covered := make([]bool, cfg.Dataset.N())
		for !c.poolEmpty() {
			id := rng.IntN(len(cfg.Workers))
			c.reportUpdates(id, int64(rng.IntN(10)))
			b, ok := c.scheduleWork(id)
			if !ok {
				break
			}
			for i := b.Lo; i < b.Hi; i++ {
				if covered[i] {
					return false
				}
				covered[i] = true
			}
		}
		for _, v := range covered {
			if !v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
