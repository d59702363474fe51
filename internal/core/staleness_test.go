package core

import (
	"testing"
	"time"
)

// sspTracker builds an SSP stale tracker over n synthetic workers with the
// given bound, plus the health tracker it consults.
func sspTracker(t *testing.T, n, bound int) (*staleTracker, *healthTracker) {
	t.Helper()
	cfg := tinyConfig(t, AlgSSP)
	for len(cfg.Workers) < n {
		cfg.Workers = append(cfg.Workers, cfg.Workers[len(cfg.Workers)%2])
	}
	cfg.Workers = cfg.Workers[:n]
	cfg.StalenessBound = bound
	health := newHealthTracker(&cfg, &record{})
	return newStaleTracker(&cfg, health, nil), health
}

// TestStaleTrackerReadmissionWakesGate covers the interaction the elastic
// joiner path reuses: a worker is readmitted from quarantine while the SSP
// gate has another worker parked. The readmit → catchUp sequence must snap
// the laggard's clock to the healthy minimum (excluding itself — the
// engines readmit first, so the laggard is healthy again by the time it
// catches up) and the gate must then recompute and wake the parked worker
// rather than stalling it behind the laggard's stale clock.
func TestStaleTrackerReadmissionWakesGate(t *testing.T) {
	stale, health := sspTracker(t, 3, 2)

	// Worker 2 falls over early; 0 and 1 keep completing dispatches.
	if !health.quarantine(2, time.Millisecond, "timeout", "test quarantine") {
		t.Fatal("quarantine(2) refused")
	}
	for range 10 {
		stale.advance(0)
		stale.advance(1)
	}
	stale.advance(0) // 0 pulls ahead: clock 11 vs 1's 10

	// 0 is one step ahead of the slowest healthy worker — well under the
	// bound; the quarantined laggard at clock 0 must not count.
	if got := stale.staleness(0); got != 1 {
		t.Fatalf("staleness(0) = %d with worker 2 quarantined, want 1", got)
	}

	// Park worker 0: pretend it sprinted to the bound.
	stale.advance(0)
	stale.advance(0) // clock 13, staleness 3 > bound 2
	if stale.allow(0) {
		t.Fatal("gate admitted worker 0 at staleness 3 with bound 2")
	}
	if !stale.block(0) {
		t.Fatal("block(0) was not a fresh transition")
	}
	if stale.block(0) {
		t.Fatal("block(0) counted twice for one parked worker")
	}

	// Readmit the laggard the way the engines do: readmit, then catchUp.
	// Without the catch-up, worker 2's clock 0 would drag the minimum to 0
	// and staleness(0) to 13 — parking worker 0 for the laggard's entire
	// gap. With it, worker 2 rejoins at the back of the pack (clock 10).
	if !health.readmit(2, 2*time.Millisecond, "probe") {
		t.Fatal("readmit(2) refused")
	}
	stale.catchUp(2)
	if got := stale.clock[2]; got != 10 {
		t.Fatalf("readmitted worker clock = %d, want the healthy minimum 10", got)
	}

	// The laggard then completes a step, the minimum advances, and the gate
	// recomputes: worker 0 (clock 13, min 11 → staleness 2 ≤ bound) wakes.
	stale.advance(2)
	stale.advance(1)
	woken := stale.wake()
	if len(woken) != 1 || woken[0] != 0 {
		t.Fatalf("wake() = %v after readmission advanced the minimum, want [0]", woken)
	}
	if stale.gated[0] {
		t.Fatal("worker 0 still marked gated after wake")
	}
	if stale.rep.Blocked != 1 {
		t.Fatalf("Blocked = %d, want 1 (one park transition)", stale.rep.Blocked)
	}
}

// TestStaleTrackerJoinerEntersAtMin pins the elastic joiner rule: addWorker
// enters a fresh worker at the healthy minimum clock, so a join neither
// drags the SSP gate's minimum backwards (parking the fleet) nor lets the
// joiner race ahead of it.
func TestStaleTrackerJoinerEntersAtMin(t *testing.T) {
	stale, health := sspTracker(t, 2, 1)

	for range 7 {
		stale.advance(0)
		stale.advance(1)
	}
	stale.advance(0) // clocks 8 and 7

	// Grow health first (the documented call order), then the clock table.
	health.addWorker("joiner")
	stale.addWorker()
	if got := stale.clock[2]; got != 7 {
		t.Fatalf("joiner entered at clock %d, want the healthy minimum 7", got)
	}
	if got := stale.staleness(0); got != 1 {
		t.Fatalf("staleness(0) = %d after join, want 1 — the join moved the minimum", got)
	}
	if !stale.allow(2) {
		t.Fatal("gate refused the fresh joiner's first dispatch")
	}
}
