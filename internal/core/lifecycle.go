package core

import (
	"cmp"
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
// versioning and checksums. The JSON tags are the checkpoint header's
// on-disk schema: renaming one breaks every file already written.
type RunState struct {
	// Algorithm and Seed identify the run; resume requires both to match
	// the resuming Config (the determinism guarantee is per-trajectory).
	Algorithm Algorithm `json:"algorithm"`
	Seed      uint64    `json:"seed"`
	// Epoch is the number of pool refills performed (== the number of
	// epoch shuffles consumed from the RNG stream when Config.Shuffle is
	// set). Cursor is the next unassigned example within the current
	// epoch; a barrier capture has Cursor == N (pool drained).
	Epoch  int `json:"epoch"`
	Cursor int `json:"cursor"`
	// ExamplesDone accumulates assigned examples across epochs — the LR
	// schedule position (fractional epochs = ExamplesDone/N).
	ExamplesDone int64 `json:"examples_done"`
	// TotalUpdates is the raw model-update count at capture (diagnostic).
	TotalUpdates int64 `json:"total_updates"`
	// Batch and Updates are the per-worker adaptive batch sizes b^E and
	// β-weighted policy counters u^E (Algorithm 2's entire state). LRMult
	// is the AdaptiveLR comparator's per-worker multiplier.
	Batch   []int     `json:"batch"`
	Updates []int64   `json:"updates"`
	LRMult  []float64 `json:"lr_mult"`
	// GuardLRScale and GuardRetries restore the divergence guard's
	// exponential LR backoff (1 and 0 when guards never fired).
	GuardLRScale float64 `json:"guard_lr_scale"`
	GuardRetries int     `json:"guard_retries"`
	// DroppedUpdates continues FaultReport.DroppedUpdates: a "drop"
	// incident does not hold its count, so no fold can rebuild it.
	DroppedUpdates int64 `json:"dropped_updates,omitempty"`
	// RNG is the marshaled PCG state of the coordinator's shuffle stream.
	RNG []byte `json:"rng"`
	// Interrupted records that the capture came from a cancelled run's
	// drain rather than a clean completion.
	Interrupted bool `json:"interrupted"`
	// At is the run clock at capture (virtual time in RunSim, wall time in
	// RunReal); informational.
	At time.Duration `json:"at_ns"`
	// Events carries the health/fault event log up to the capture.
	Events []metrics.Event `json:"events,omitempty"`
	// Membership extends the snapshot with the mid-churn worker set:
	// elastic states, SSP clocks, the dispatch sequence floor, transport
	// accounting, and the in-flight batch list. capture always sets it and
	// resume requires it; internal/checkpoint serializes it as a section
	// with its own CRC.
	Membership *MembershipState `json:"-"`
	// Params is the model at capture (a private deep copy), stored in the
	// checkpoint's binary model section.
	Params *nn.Params `json:"-"`
}

// MembershipState is the membership section of a RunState: everything needed
// to reconstruct a run's worker set after elastic churn, rather than the
// seed-time set the Config describes. Slots are indexed by worker id; ids
// are never reused, so the slice length is the high-water worker count.
type MembershipState struct {
	// States holds one slot code per slot ever allocated: slotActive
	// (healthy, quarantined or crashed), slotDraining or slotDeparted.
	States []int `json:"states"`
	// Faults holds each slot's WorkerHealth Crashes, Timeouts and
	// Readmissions, so a resumed run's per-worker counts continue too.
	Faults [][3]int `json:"faults,omitempty"`
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
	// Peak is the largest active-worker count so far (n for a
	// fixed-membership run of n workers). The churn counts are not kept
	// here: they are folds over the RunState's Events.
	Peak int `json:"peak"`
	// Partitions through AppliedExamples continue TransportReport's
	// counters that no incident restates, so the exactly-once audit spans
	// the whole trajectory, not just the last incarnation of the
	// coordinator.
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

// The slot codes of MembershipState.States, and each WorkerState's code.
const (
	slotActive = iota
	slotDraining
	slotDeparted
)

var slotCode = [...]int{WorkerDraining: slotDraining, WorkerDeparted: slotDeparted}

// ActiveCount returns the number of active slots.
func (m *MembershipState) ActiveCount() int {
	n := 0
	for _, s := range m.States {
		if s == slotActive {
			n++
		}
	}
	return n
}

// capture writes the worker table into ms: each slot's code and fault
// counts, the bounds and the peak active count.
func (h *healthTracker) capture(ms *MembershipState) {
	for _, w := range h.report.Workers {
		ms.States = append(ms.States, slotCode[w.State])
		ms.Faults = append(ms.Faults, [3]int{w.Crashes, w.Timeouts, w.Readmissions})
	}
	ms.Min, ms.Max = h.min, h.max
	ms.Peak = h.churn.Peak
}

// restore reinstates a captured worker table grown to its width, with its
// fault counts, bounds and peak, so joins continue from the next unused id.
// A draining slot comes back departed, like a departed one: its former
// process is gone and its in-flight work rides the Flight list. A run captured mid-churn
// publishes its report like an elastic one.
func (h *healthTracker) restore(ms *MembershipState, churned bool) {
	for id, s := range ms.States {
		if s != slotActive {
			h.move(id, 0, WorkerDeparted, "depart", fmt.Sprintf("restored as %s from checkpoint", []string{slotDraining: "draining", slotDeparted: "departed"}[s]))
		}
	}
	for id, c := range ms.Faults {
		w := &h.report.Workers[id]
		w.Crashes, w.Timeouts, w.Readmissions = c[0], c[1], c[2]
	}
	h.elastic = h.elastic || churned
	h.min, h.max = max(ms.Min, 1), cmp.Or(ms.Max, len(ms.States))
	h.churn = elastic.Report{Peak: ms.Peak}
	h.recount()
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
	// The membership describes a (possibly churned) worker set that may be
	// wider than the config's seed set: extra slots are elastic joiners the
	// resume reconstructs.
	ms := st.Membership
	if ms == nil {
		return fmt.Errorf("core: resume state has no membership section")
	}
	if len(ms.States) < len(c.Workers) {
		return fmt.Errorf("core: resume membership has %d slots, config has %d workers — cannot shrink the restored set below the seed set", len(ms.States), len(c.Workers))
	}
	for id, s := range ms.States {
		if s < slotActive || s > slotDeparted {
			return fmt.Errorf("core: resume membership slot %d has invalid state %d", id, s)
		}
	}
	if ms.ActiveCount() == 0 {
		return fmt.Errorf("core: resume membership has no active workers")
	}
	if len(ms.Clocks) != 0 && len(ms.Clocks) != len(ms.States) || len(ms.Faults) > len(ms.States) {
		return fmt.Errorf("core: resume membership has %d clocks and %d fault counts for %d slots", len(ms.Clocks), len(ms.Faults), len(ms.States))
	}
	for _, f := range ms.Flight {
		if f.Lo < 0 || f.Hi < f.Lo || f.Seq > ms.SeqFloor {
			return fmt.Errorf("core: resume membership has corrupt flight entry (seq %d, range [%d,%d))", f.Seq, f.Lo, f.Hi)
		}
	}
	slots := len(ms.States)
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

// resume applies cfg.Resume to a freshly built coordinator. The
// checkpoint's event history continues into this incarnation's record, so a
// resumed run's incident counts and next checkpoint audit the whole
// trajectory. The model is replayed onto a dataset in its freshly-loaded,
// original order, as a new process provides: the shuffle stream is the
// coordinator RNG's only consumer, so Epoch shuffles from the seed reproduce
// both the permutation and the restored stream position. A barrier capture leaves
// the pool drained; the loop starts the next epoch before its first
// dispatch.
func (l *coordLoop) resume() error {
	st := l.cfg.Resume
	if st == nil {
		return nil
	}
	l.rec.events = append(l.rec.events, st.Events...)
	// The worker set is restored before the model, whose scheduler counters
	// need tables at checkpoint width: each slot beyond the seed set is a
	// joiner grown as a live join grows it — logged as a "restore", since
	// its "join" is already in the history — and the tracker takes back the
	// capture's slot states, bounds and peak.
	ms := st.Membership
	for id := l.initialWorkers; id < len(ms.States); id++ {
		l.addSlot(id, 0, "restore", "restored from checkpoint")
	}
	l.health.restore(ms, len(ms.States) > l.initialWorkers || ms.ActiveCount() < len(ms.States))
	if len(ms.Clocks) == len(l.stale.clock) {
		copy(l.stale.clock, ms.Clocks)
	}
	l.global.CopyFrom(st.Params)
	if err := l.coord.restore(st); err != nil {
		return err
	}
	if l.cfg.Shuffle && st.Epoch > 0 {
		replay := rand.New(rand.NewPCG(l.cfg.Seed, rngStream))
		for i := 0; i < st.Epoch; i++ {
			l.ds.Shuffle(replay)
		}
	}
	l.guard.restore(st.GuardLRScale, st.GuardRetries, l.global)
	l.health.report.DroppedUpdates = st.DroppedUpdates
	// Scripted events triggered before the capture already mutated the
	// restored membership; burn them off the cursor so they cannot fire
	// twice. Dispatch numbering continues above the checkpoint's floor, and
	// its in-flight batches are re-queued: their examples already count in
	// ExamplesDone, so re-applying them is what rebalances the exactly-once
	// accounting.
	l.completed = ms.Dispatches
	l.planCur.Fire(l.completed)
	l.seq = ms.SeqFloor
	*l.tr = TransportReport{Partitions: ms.Partitions, Reconnects: ms.Reconnects, AppliedExamples: ms.AppliedExamples}
	for _, f := range ms.Flight {
		if f.Hi > l.ds.N() {
			return fmt.Errorf("core: resume flight entry [%d,%d) outside dataset of %d", f.Lo, f.Hi, l.ds.N())
		}
		l.pending = append(l.pending, l.ds.View(f.Lo, f.Hi))
	}
	if len(ms.Flight) > 0 {
		l.rec.log(0, "", "resume", fmt.Sprintf("%d in-flight batches from the checkpoint re-queued", len(ms.Flight)))
	}
	return nil
}

// capture snapshots the run into a RunState. The membership section makes
// the checkpoint resumable mid-churn and mid-flight: worker states (every
// configured worker active in a fixed-size run), clocks, the seq floor,
// delivery accounting, and every dispatched-but-unapplied batch (live
// flights plus queued recovery batches; abandoned flights are excluded
// because their ranges were already re-queued). A mid-epoch capture in a
// shared-memory engine may already hold part of an in-flight batch's
// updates — re-running it on resume is the documented at-least-once;
// barrier and drain captures are exact.
func (l *coordLoop) capture() (*RunState, error) {
	st, err := l.coord.exportState()
	if err != nil {
		return nil, err
	}
	st.TotalUpdates = l.rec.updates()
	st.GuardLRScale = l.guard.scale()
	st.GuardRetries = l.guard.retryCount()
	st.DroppedUpdates = l.health.report.DroppedUpdates
	st.Interrupted = l.interrupted
	st.At = l.elapsed()
	st.Events = append([]metrics.Event(nil), l.rec.events...)
	ms := &MembershipState{
		Clocks:          append([]int64(nil), l.stale.clock...),
		SeqFloor:        l.seq,
		Dispatches:      l.completed,
		Partitions:      l.tr.Partitions,
		Reconnects:      l.tr.Reconnects,
		AppliedExamples: l.tr.AppliedExamples,
	}
	l.health.capture(ms)
	epoch := l.coord.epoch
	for _, fl := range l.flight {
		if !fl.abandoned {
			ms.Flight = append(ms.Flight, FlightEntry{Seq: fl.seq, Worker: fl.worker, Lo: fl.batch.Lo, Hi: fl.batch.Hi, Epoch: epoch})
		}
	}
	for _, b := range l.pending {
		ms.Flight = append(ms.Flight, FlightEntry{Worker: -1, Lo: b.Lo, Hi: b.Hi, Epoch: epoch})
	}
	for id := range l.feed {
		for _, b := range l.feed[id] {
			ms.Flight = append(ms.Flight, FlightEntry{Worker: id, Lo: b.Lo, Hi: b.Hi, Epoch: epoch})
		}
	}
	st.Membership = ms
	st.Params = l.cloneModel()
	return st, nil
}
