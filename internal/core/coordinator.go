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

// adapt applies Algorithm 2's batch-size update for worker id: a worker
// lagging every other worker's update count gets a smaller batch (more,
// noisier updates); a worker leading every other gets a larger one. The new
// size is clamped to the worker's [MinBatch, MaxBatch] thresholds.
func (c *coordinator) adapt(id int) {
	if !c.cfg.adaptive() || len(c.batch) < 2 {
		return
	}
	minU, maxU, ok := c.peerRange(id)
	if !ok {
		// No live peers to compare against (sole survivor).
		return
	}
	w := c.cfg.Workers[id]
	old := c.batch[id]
	switch {
	case c.updates[id] < minU:
		b := int(float64(c.batch[id]) / c.cfg.Alpha)
		if b < w.MinBatch {
			b = w.MinBatch
		}
		c.batch[id] = b
	case c.updates[id] > maxU:
		b := int(float64(c.batch[id]) * c.cfg.Alpha)
		if b > w.MaxBatch {
			b = w.MaxBatch
		}
		c.batch[id] = b
	}
	if c.batch[id] != old {
		c.resizes[id]++
	}
}

// adaptLR applies the AdaptiveLR comparator's policy: the update-count
// leader's learning rate shrinks by α, the laggard's grows, clamped to
// [1/16, 16]× — rate-based balancing in place of batch-based balancing.
func (c *coordinator) adaptLR(id int) {
	if !c.cfg.adaptsLR() || len(c.lrMult) < 2 {
		return
	}
	minU, maxU, ok := c.peerRange(id)
	if !ok {
		return
	}
	const clamp = 16
	switch {
	case c.updates[id] < minU:
		c.lrMult[id] = min(c.lrMult[id]*c.cfg.Alpha, clamp)
	case c.updates[id] > maxU:
		c.lrMult[id] = max(c.lrMult[id]/c.cfg.Alpha, 1.0/clamp)
	}
}

// lrScale returns worker id's learning-rate multiplier.
func (c *coordinator) lrScale(id int) float64 { return c.lrMult[id] }

// scheduleWork handles worker id's ScheduleWork request: apply the adaptive
// policy, then extract the next batch from the epoch pool. ok is false when
// the pool is exhausted (the worker must wait for the epoch to end).
// A trailing fragment smaller than b^E is still assigned, so no example is
// left behind.
func (c *coordinator) scheduleWork(id int) (data.Batch, bool) {
	c.adapt(id)
	c.adaptLR(id)
	remaining := c.n() - c.cursor
	if remaining <= 0 {
		return data.Batch{}, false
	}
	b := c.batch[id]
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
