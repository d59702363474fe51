package core

import (
	"fmt"
	"math/rand/v2"
	"time"

	"heterosgd/internal/elastic"
	"heterosgd/internal/metrics"
	"heterosgd/internal/nn"
)

// This file implements the run lifecycle layer shared by both engines:
// crash-consistent run-state capture (RunState), restore on resume, and the
// CheckpointSink attach point that internal/checkpoint persists through.
//
// A RunState is captured at epoch barriers — the engines' natural
// consistency points, where no worker holds in-flight work — and, in the
// real engine, additionally on a wall-clock period and on drain after a
// cancellation. It carries everything nn.SaveParamsFile does not: the
// adaptive batch sizes Algorithm 2 converged to, the per-worker update
// counters the policy compares, the LR schedule position (fractional
// epochs), the PCG shuffle-stream state, the divergence-guard backoff, and
// the health events so far. Restoring all of it makes the deterministic
// simulated engine provably continue the same trajectory (the
// resume-equivalence golden test pins this bit-for-bit).

// RunState is a complete, self-contained snapshot of a training run's
// mutable state. It is produced by the engines through Config.CheckpointSink
// and consumed through Config.Resume; internal/checkpoint serializes it with
// versioning and checksums.
type RunState struct {
	// Algorithm and Seed identify the run; resume requires both to match
	// the resuming Config (the determinism guarantee is per-trajectory).
	Algorithm Algorithm
	Seed      uint64
	// Epoch is the number of pool refills performed (== the number of
	// epoch shuffles consumed from the RNG stream when Config.Shuffle is
	// set). Cursor is the next unassigned example within the current
	// epoch; a barrier capture has Cursor == N (pool drained).
	Epoch  int
	Cursor int
	// ExamplesDone accumulates assigned examples across epochs — the LR
	// schedule position (fractional epochs = ExamplesDone/N).
	ExamplesDone int64
	// TotalUpdates is the raw model-update count at capture (diagnostic).
	TotalUpdates int64
	// Batch and Updates are the per-worker adaptive batch sizes b^E and
	// β-weighted policy counters u^E (Algorithm 2's entire state). LRMult
	// is the AdaptiveLR comparator's per-worker multiplier.
	Batch   []int
	Updates []int64
	LRMult  []float64
	// GuardLRScale and GuardRetries restore the divergence guard's
	// exponential LR backoff (1 and 0 when guards never fired).
	GuardLRScale float64
	GuardRetries int
	// RNG is the marshaled PCG state of the coordinator's shuffle stream.
	RNG []byte
	// Interrupted records that the capture came from a cancelled run's
	// drain rather than a clean completion.
	Interrupted bool
	// At is the run clock at capture (virtual time in RunSim, wall time in
	// RunReal); informational.
	At time.Duration
	// Events carries the health/fault event log up to the capture.
	Events []metrics.Event
	// Membership, when present, extends the snapshot with the mid-churn
	// worker set: elastic states, SSP clocks, the dispatch sequence floor,
	// transport accounting, and the in-flight batch list. A state without it
	// resumes onto the config's seed-time worker set (the pre-elastic
	// behavior); internal/checkpoint serializes it as a versioned section
	// with its own CRC.
	Membership *MembershipState
	// Params is the model at capture (a private deep copy).
	Params *nn.Params
}

// MembershipState is the membership section of a RunState: everything needed
// to reconstruct a run's worker set after elastic churn, rather than the
// seed-time set the Config describes. Slots are indexed by worker id; ids
// are never reused, so the slice length is the high-water worker count.
type MembershipState struct {
	// States holds one elastic.State value per slot ever allocated
	// (0 active, 1 draining, 2 departed).
	States []int `json:"states"`
	// Clocks are the per-worker completed-dispatch clocks behind the SSP
	// gate; restoring them keeps the bounded-staleness invariant meaningful
	// across a restart instead of resetting every worker to zero.
	Clocks []int64 `json:"clocks,omitempty"`
	// SeqFloor is the dispatch-sequence high-water mark at capture. A
	// resumed coordinator continues numbering above it, and a reconnecting
	// worker discards any buffered completion at or below it — pre-restart
	// sequence numbers can never alias post-restart dispatches.
	SeqFloor uint64 `json:"seq_floor"`
	// Dispatches is the completed-dispatch count at capture; scripted
	// membership plans fast-forward their cursor past events already fired.
	Dispatches int64 `json:"dispatches"`
	// Min and Max are the elastic active-worker bounds in force at capture.
	Min int `json:"min"`
	Max int `json:"max"`
	// Joins through Peak mirror elastic.Report so churn accounting
	// survives the restart.
	Joins      int `json:"joins"`
	Leaves     int `json:"leaves"`
	Evictions  int `json:"evictions"`
	Rebalances int `json:"rebalances"`
	Peak       int `json:"peak"`
	// Duplicates through AppliedExamples mirror TransportReport, so the
	// exactly-once audit spans the whole trajectory, not just the last
	// incarnation of the coordinator.
	Duplicates      uint64 `json:"duplicates"`
	Abandoned       uint64 `json:"abandoned"`
	Partitions      uint64 `json:"partitions"`
	Reconnects      uint64 `json:"reconnects"`
	AppliedExamples int64  `json:"applied_examples"`
	// Flight lists every dispatched-but-unapplied batch at capture. Their
	// examples are already counted in ExamplesDone, so a resumed coordinator
	// re-queues them for re-dispatch — that is what restores the
	// AppliedExamples == ExamplesProcessed invariant across a restart.
	Flight []FlightEntry `json:"flight,omitempty"`
}

// FlightEntry records one in-flight dispatch: the example range it covered
// and the worker and epoch it was bound to when the checkpoint was taken.
type FlightEntry struct {
	Seq    uint64 `json:"seq"`
	Worker int    `json:"worker"`
	Lo     int    `json:"lo"`
	Hi     int    `json:"hi"`
	Epoch  int    `json:"epoch"`
}

// ActiveCount returns the number of active slots.
func (m *MembershipState) ActiveCount() int {
	n := 0
	for _, s := range m.States {
		if elastic.State(s) == elastic.Active {
			n++
		}
	}
	return n
}

// CheckpointSink receives run-state checkpoints from a running engine.
// WriteState takes ownership of st (its Params are a private deep copy). It
// is called from the coordinator only — never from worker hot paths — and a
// returned error is logged as a "ckpt-error" health event without stopping
// training (a full disk must not kill an otherwise healthy run).
type CheckpointSink interface {
	WriteState(st *RunState) error
}

// validateResume checks a RunState against the configuration resuming from
// it.
func (c *Config) validateResume() error {
	st := c.Resume
	if st == nil {
		return nil
	}
	if st.Params == nil {
		return fmt.Errorf("core: resume state has no model parameters")
	}
	if c.svrgAnchor() {
		return fmt.Errorf("core: resume is not supported for %v (the anchor state is not checkpointed)", c.Algorithm)
	}
	if st.Algorithm != c.Algorithm {
		return fmt.Errorf("core: resume state is a %v run, config is %v", st.Algorithm, c.Algorithm)
	}
	if st.Seed != c.Seed {
		return fmt.Errorf("core: resume state has seed %d, config has %d — the trajectory would diverge", st.Seed, c.Seed)
	}
	// A membership-bearing state describes a (possibly churned) worker set
	// that may be wider than the config's seed set: extra slots are elastic
	// joiners the resume reconstructs. Without one, the state must match the
	// config's worker count exactly (the pre-elastic contract).
	slots := len(c.Workers)
	if ms := st.Membership; ms != nil {
		if len(ms.States) < len(c.Workers) {
			return fmt.Errorf("core: resume membership has %d slots, config has %d workers — cannot shrink the restored set below the seed set", len(ms.States), len(c.Workers))
		}
		active := 0
		for id, s := range ms.States {
			if s < int(elastic.Active) || s > int(elastic.Departed) {
				return fmt.Errorf("core: resume membership slot %d has invalid state %d", id, s)
			}
			if elastic.State(s) == elastic.Active {
				active++
			}
		}
		if active == 0 {
			return fmt.Errorf("core: resume membership has no active workers")
		}
		if len(ms.Clocks) != 0 && len(ms.Clocks) != len(ms.States) {
			return fmt.Errorf("core: resume membership has %d clocks for %d slots", len(ms.Clocks), len(ms.States))
		}
		for _, f := range ms.Flight {
			if f.Lo < 0 || f.Hi < f.Lo || f.Seq > ms.SeqFloor {
				return fmt.Errorf("core: resume membership has corrupt flight entry (seq %d, range [%d,%d))", f.Seq, f.Lo, f.Hi)
			}
		}
		slots = len(ms.States)
	}
	if len(st.Batch) != slots || len(st.Updates) != slots || len(st.LRMult) != slots {
		return fmt.Errorf("core: resume state has %d workers, config expects %d", len(st.Batch), slots)
	}
	if st.Epoch < 0 || st.Cursor < 0 || st.ExamplesDone < 0 {
		return fmt.Errorf("core: resume state has negative progress counters")
	}
	if len(st.RNG) == 0 {
		return fmt.Errorf("core: resume state has no RNG state")
	}
	return nil
}

// restoreRun applies a RunState to a freshly-constructed run: model
// parameters, coordinator counters, RNG stream, and the dataset permutation
// (replayed deterministically from the seed — the shuffle stream is the
// coordinator RNG's only consumer, so Epoch shuffles reproduce both the
// permutation and the restored stream position). cfg.Dataset must be in its
// freshly-loaded, original order, as a new process provides. A barrier
// capture leaves the pool drained; the loop starts the next epoch before its
// first dispatch. Returns an error only on a corrupt RNG blob.
func restoreRun(cfg *Config, coord *coordinator, global *nn.Params, guard *guardState) error {
	st := cfg.Resume
	if st == nil {
		return nil
	}
	global.CopyFrom(st.Params)
	if err := coord.restore(st); err != nil {
		return err
	}
	if cfg.Shuffle && st.Epoch > 0 {
		replay := rand.New(rand.NewPCG(cfg.Seed, rngStream))
		for i := 0; i < st.Epoch; i++ {
			cfg.Dataset.Shuffle(replay)
		}
	}
	if guard != nil {
		guard.restore(st.GuardLRScale, st.GuardRetries, global)
	}
	return nil
}

// growForMembership widens a freshly-constructed run's per-worker tables to
// the checkpoint's mid-churn worker set: each slot beyond the config's seed
// set is an elastic joiner whose WorkerConfig is re-derived the same way the
// live join path derives it (cycling the seed device mix), and draining or
// departed slots are benched in the health tracker so they never receive
// dispatches. Must run after the health and stale trackers are built and
// before restoreRun, whose coordinator restore copies counters into tables
// that must already be at checkpoint width.
func growForMembership(cfg *Config, coord *coordinator, health *healthTracker, stale *staleTracker) {
	st := cfg.Resume
	if st == nil || st.Membership == nil {
		return
	}
	ms := st.Membership
	initial := len(cfg.Workers)
	for id := initial; id < len(ms.States); id++ {
		wc := cfg.Workers[id%initial]
		cfg.Workers = append(cfg.Workers, wc)
		health.addWorker(fmt.Sprintf("%s+%d", wc.Device.Name(), id), 0)
		coord.addWorker()
		stale.addWorker()
	}
	for id, s := range ms.States {
		if elastic.State(s) != elastic.Active {
			health.markDeparted(id, 0, fmt.Sprintf("restored as %s from checkpoint", elastic.State(s)))
		}
	}
	if len(ms.Clocks) == len(stale.clock) {
		copy(stale.clock, ms.Clocks)
	}
}

// restoredMembership reconstructs the elastic membership manager from a
// checkpoint's membership section, preserving churn accounting and bounds.
// A restored draining slot comes back as departed: its former process is
// gone and its in-flight work rides the Flight list instead.
func restoredMembership(ms *MembershipState) (*elastic.Membership, error) {
	states := make([]elastic.State, len(ms.States))
	for i, s := range ms.States {
		st := elastic.State(s)
		if st == elastic.Draining {
			st = elastic.Departed
		}
		states[i] = st
	}
	return elastic.Restore(states, ms.Min, ms.Max, elastic.Report{
		Joins:      ms.Joins,
		Leaves:     ms.Leaves,
		Evictions:  ms.Evictions,
		Rebalances: ms.Rebalances,
		Peak:       ms.Peak,
	})
}

// captureMembership snapshots the live worker set into a MembershipState.
// mem may be nil (a fixed-size run), in which case every configured worker
// is recorded active; callers with a transport or flight map fill those
// fields afterwards.
func captureMembership(mem *elastic.Membership, stale *staleTracker, workers int, dispatches int64) *MembershipState {
	ms := &MembershipState{
		Clocks:     append([]int64(nil), stale.clock...),
		Dispatches: dispatches,
	}
	if mem == nil {
		ms.States = make([]int, workers)
		ms.Min, ms.Max, ms.Peak = 1, workers, workers
		return ms
	}
	ms.States = make([]int, mem.Len())
	for i := range ms.States {
		ms.States[i] = int(mem.State(i))
	}
	ms.Min, ms.Max = mem.Min(), mem.Max()
	r := mem.Report()
	ms.Joins, ms.Leaves, ms.Evictions = r.Joins, r.Leaves, r.Evictions
	ms.Rebalances, ms.Peak = r.Rebalances, r.Peak
	return ms
}
