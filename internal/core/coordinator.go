package core

import (
	"fmt"
	"math/rand/v2"

	"heterosgd/internal/data"
)

// coordinator holds the framework's scheduling state — the epoch's batch
// pool and the per-worker batch sizes and update counts — and implements
// the ScheduleWork message handlers of Algorithm 1 (static batch sizes) and
// Algorithm 2 (adaptive batch sizes).
//
// Both execution engines drive one coordinator. In the real engine it is
// confined to the coordinator goroutine; in the simulated engine everything
// is single-threaded. It therefore needs no internal locking, mirroring the
// paper's sequential message processing.
type coordinator struct {
	cfg *Config
	// pcg is the shuffle stream's marshalable source; rng wraps it. The
	// stream's only consumer is the between-epoch shuffle, which is what
	// lets checkpoint/resume replay the dataset permutation from the seed.
	pcg *rand.PCG
	rng *rand.Rand

	// cursor is the next unassigned example of the current epoch; the
	// pool B is the range [cursor, N).
	cursor int
	// epoch counts completed passes; examplesDone accumulates assigned
	// examples across epochs for fractional-epoch bookkeeping.
	epoch        int
	examplesDone int64

	// batch[i] is worker i's current batch size b^E; updates[i] is its
	// β-weighted update count u^E.
	batch   []int
	updates []int64

	// lrMult is the per-worker learning-rate multiplier maintained by the
	// AdaptiveLR comparator (1 everywhere otherwise).
	lrMult []float64

	// resizes counts adaptive batch-size changes per worker (diagnostic).
	resizes []int

	// tracker, when set by a fault-tolerant engine, excludes crashed and
	// quarantined workers from the adaptive policies: update counts of
	// workers that stopped reporting would otherwise drag every
	// comparison and freeze rebalancing on the survivors.
	tracker *healthTracker
}

func newCoordinator(cfg *Config) *coordinator {
	pcg := rand.NewPCG(cfg.Seed, rngStream)
	c := &coordinator{
		cfg:     cfg,
		pcg:     pcg,
		rng:     rand.New(pcg),
		batch:   make([]int, len(cfg.Workers)),
		updates: make([]int64, len(cfg.Workers)),
		resizes: make([]int, len(cfg.Workers)),
	}
	if cfg.Shuffle {
		// Every epoch barrier's shuffle, the first included, then allocates
		// nothing.
		cfg.Dataset.ReserveShuffle()
	}
	c.lrMult = make([]float64, len(cfg.Workers))
	for i, w := range cfg.Workers {
		c.batch[i] = w.InitialBatch
		c.lrMult[i] = 1
	}
	return c
}

// n returns the dataset size.
func (c *coordinator) n() int { return c.cfg.Dataset.N() }

// addWorker grows the scheduling state for an elastic joiner. The caller
// has already appended the joiner's WorkerConfig to cfg.Workers; the fresh
// id is the new last slot.
func (c *coordinator) addWorker() int {
	id := len(c.batch)
	w := c.cfg.Workers[id]
	c.batch = append(c.batch, w.InitialBatch)
	c.updates = append(c.updates, 0)
	c.lrMult = append(c.lrMult, 1)
	c.resizes = append(c.resizes, 0)
	return id
}

// rebalance restarts the adaptive comparators after a membership change:
// update counts reset to zero so Algorithm 2 compares workers over the new
// active set instead of punishing a joiner for history it was not part of,
// and the AdaptiveLR multipliers reset to 1 for the same reason. Batch
// sizes are kept — they are the policy's learned allocation and remain the
// best estimate for the workers that stayed.
func (c *coordinator) rebalance() {
	for i := range c.updates {
		c.updates[i] = 0
	}
	if c.cfg.adaptsLR() {
		for i := range c.lrMult {
			c.lrMult[i] = 1
		}
	}
}

// peerOK reports whether worker i's update count should participate in
// adaptive comparisons (always true without a fault-tolerant engine).
func (c *coordinator) peerOK(i int) bool {
	return c.tracker == nil || c.tracker.ok(i)
}

// epochFrac returns fractional training progress in epochs.
func (c *coordinator) epochFrac() float64 {
	return float64(c.examplesDone) / float64(c.n())
}

// peerRange returns the smallest and largest update counts of the live
// workers other than id; ok is false when there are none.
func (c *coordinator) peerRange(id int) (minU, maxU int64, ok bool) {
	for i, u := range c.updates {
		if i == id || !c.peerOK(i) {
			continue
		}
		if !ok {
			minU, maxU, ok = u, u, true
			continue
		}
		minU, maxU = min(minU, u), max(maxU, u)
	}
	return minU, maxU, ok
}

// adapt applies the update-count policy for worker id: a worker lagging
// every other worker's update count gets a smaller batch under Algorithm 2
// (more, noisier updates) or a larger learning rate under AdaptiveLR; a
// worker leading every other gets the reverse. The batch is clamped to the
// worker's [MinBatch, MaxBatch] thresholds, the multiplier to [1/16, 16]×.
func (c *coordinator) adapt(id int) {
	if !c.cfg.adaptive() && !c.cfg.adaptsLR() || len(c.batch) < 2 {
		return
	}
	minU, maxU, ok := c.peerRange(id)
	lag := c.updates[id] < minU
	if !ok || !lag && c.updates[id] <= maxU {
		// No live peers to compare against (sole survivor), or neither
		// lagging nor leading.
		return
	}
	if c.cfg.adaptsLR() {
		const clamp = 16
		if lag {
			c.lrMult[id] = min(c.lrMult[id]*c.cfg.Alpha, clamp)
		} else {
			c.lrMult[id] = max(c.lrMult[id]/c.cfg.Alpha, 1.0/clamp)
		}
		return
	}
	w, b := c.cfg.Workers[id], c.batch[id]
	if lag {
		b = max(int(float64(b)/c.cfg.Alpha), w.MinBatch)
	} else {
		b = min(int(float64(b)*c.cfg.Alpha), w.MaxBatch)
	}
	if b != c.batch[id] {
		c.batch[id] = b
		c.resizes[id]++
	}
}

// lrScale returns worker id's learning-rate multiplier.
func (c *coordinator) lrScale(id int) float64 { return c.lrMult[id] }

// scheduleWork handles worker id's ScheduleWork request: apply the adaptive
// policy, then extract the next batch from the epoch pool — in a round, a
// whole round share of roundSteps batches, which the worker re-splits into
// local steps of its batch size (rounds never resize). ok is false when the
// pool is exhausted (the worker must wait for the epoch to end). A trailing
// fragment smaller than that is still assigned, so no example is left
// behind.
func (c *coordinator) scheduleWork(id int) (data.Batch, bool) {
	c.adapt(id)
	remaining := c.n() - c.cursor
	if remaining <= 0 {
		return data.Batch{}, false
	}
	b := c.batch[id]
	if c.cfg.rounds() {
		b *= c.cfg.roundSteps()
	}
	if b > remaining {
		b = remaining
	}
	batch := c.cfg.Dataset.View(c.cursor, c.cursor+b)
	c.cursor += b
	c.examplesDone += int64(b)
	return batch, true
}

// reportUpdates handles the completion half of the ScheduleWork message:
// worker id performed n raw model updates; its policy counter advances by
// β·n for CPU workers (β quantifies Hogwild update survival, §VI-C) and n
// for GPU workers.
func (c *coordinator) reportUpdates(id int, n int64) {
	w := c.cfg.Workers[id]
	if w.Threads > 1 {
		c.updates[id] += int64(float64(n)*c.cfg.Beta + 0.5)
		return
	}
	c.updates[id] += n
}

// poolEmpty reports whether the current epoch has no unassigned examples.
func (c *coordinator) poolEmpty() bool { return c.cursor >= c.n() }

// refill starts the next epoch, reshuffling when configured.
func (c *coordinator) refill() {
	c.cursor = 0
	c.epoch++
	if c.cfg.Shuffle {
		c.cfg.Dataset.Shuffle(c.rng)
	}
}

// exportState snapshots the coordinator's scheduling state into a RunState
// (the engine fills in the model, guard, and event fields).
func (c *coordinator) exportState() (*RunState, error) {
	rngBytes, err := c.pcg.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("core: marshaling RNG state: %w", err)
	}
	return &RunState{
		Algorithm:    c.cfg.Algorithm,
		Seed:         c.cfg.Seed,
		Epoch:        c.epoch,
		Cursor:       c.cursor,
		ExamplesDone: c.examplesDone,
		Batch:        append([]int(nil), c.batch...),
		Updates:      append([]int64(nil), c.updates...),
		LRMult:       append([]float64(nil), c.lrMult...),
		RNG:          rngBytes,
	}, nil
}

// restore loads a RunState's scheduling counters and RNG position. Batch
// sizes are clamped to each worker's configured range, so a resume under
// changed thresholds stays valid.
func (c *coordinator) restore(st *RunState) error {
	if err := c.pcg.UnmarshalBinary(st.RNG); err != nil {
		return fmt.Errorf("core: restoring RNG state: %w", err)
	}
	c.epoch = st.Epoch
	c.cursor = st.Cursor
	if c.cursor > c.n() {
		c.cursor = c.n()
	}
	c.examplesDone = st.ExamplesDone
	copy(c.updates, st.Updates)
	copy(c.lrMult, st.LRMult)
	for i, b := range st.Batch {
		w := c.cfg.Workers[i]
		c.batch[i] = min(max(b, w.MinBatch), w.MaxBatch)
	}
	return nil
}
