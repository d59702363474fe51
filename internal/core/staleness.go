package core

import (
	"fmt"
	"slices"
	"strings"
)

// staleHistBuckets bounds the staleness histogram; dispatches staler than
// the second-to-last bucket land in the final overflow bucket.
const staleHistBuckets = 64

// StalenessReport summarizes how stale a run's applied updates were, in
// coordinator clock steps. A worker's clock is its count of completed
// dispatches; an update's staleness is how far ahead of the slowest healthy
// worker its worker's clock was at the moment its batch was dispatched.
// Recording at dispatch time is what makes the SSP invariant checkable: the
// gate decides on exactly the value the histogram records, so under AlgSSP
// Max ≤ StalenessBound must hold unconditionally, even when crashes or
// quarantines shrink the healthy set while the batch is in flight.
//
// Recovery re-dispatches (backlog, feed, pending re-sends after a crash or
// partition) bypass the gate by design — dropping them instead would strand
// their examples and break exactly-once accounting — and are therefore
// excluded from the histogram rather than allowed to pollute the invariant.
type StalenessReport struct {
	// Counts[s] is the number of gate-subject updates applied with
	// staleness s; the last bucket absorbs anything ≥ len(Counts)-1.
	Counts []int64
	// Max, Sum, and Count summarize the (unclipped) distribution.
	Max   int64
	Sum   int64
	Count int64
	// Blocked counts dispatch attempts deferred by the SSP gate: one per
	// transition of a worker into the gated state, not one per retry.
	Blocked int64
	// Bound is the configured SSP staleness bound, or -1 when the gate was
	// disabled (every non-SSP algorithm observes but never gates).
	Bound int64
}

func (r *StalenessReport) observe(s int64) {
	if s < 0 {
		return
	}
	b := s
	if b >= int64(len(r.Counts)) {
		b = int64(len(r.Counts)) - 1
	}
	r.Counts[b]++
	r.Count++
	r.Sum += s
	if s > r.Max {
		r.Max = s
	}
}

// Mean returns the average observed staleness, 0 when nothing was observed.
func (r *StalenessReport) Mean() float64 {
	if r == nil || r.Count == 0 {
		return 0
	}
	return float64(r.Sum) / float64(r.Count)
}

// String renders a one-line summary plus the non-empty histogram buckets.
func (r *StalenessReport) String() string {
	if r == nil || r.Count == 0 {
		return "staleness: no gate-subject updates"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "staleness: max %d, mean %.2f over %d updates", r.Max, r.Mean(), r.Count)
	if r.Bound >= 0 {
		fmt.Fprintf(&b, " (bound %d, %d dispatches blocked)", r.Bound, r.Blocked)
	}
	b.WriteString(" |")
	for s, n := range r.Counts {
		if n == 0 {
			continue
		}
		fmt.Fprintf(&b, " %d:%d", s, n)
	}
	return b.String()
}

// staleTracker is the coordinator-side clock table behind both the SSP
// dispatch gate and the per-update staleness histogram. All three engines
// drive one from their single-threaded coordinator loop, for every
// algorithm; only AlgSSP arms the gate (bound ≥ 0). No locking: every
// method runs on the coordinator goroutine (or the sim's event loop).
type staleTracker struct {
	clock  []int64 // completed dispatches per worker
	gated  []bool  // parked by the gate, awaiting a wake
	bound  int64   // gate threshold; < 0 disables gating
	health *healthTracker
	rep    *StalenessReport
	rm     *runMetrics
}

func newStaleTracker(cfg *Config, health *healthTracker, rm *runMetrics) *staleTracker {
	bound := int64(-1)
	if cfg.sspGated() {
		bound = int64(cfg.StalenessBound)
	}
	n := len(cfg.Workers)
	return &staleTracker{
		clock:  make([]int64, n),
		gated:  make([]bool, n),
		bound:  bound,
		health: health,
		rep:    &StalenessReport{Counts: make([]int64, staleHistBuckets), Bound: bound},
		rm:     rm,
	}
}

// minClock returns the slowest healthy clock among the workers other than
// except (-1 excludes none); ok is false when there is none, and m is then
// the slowest clock of all, so staleness stays well-defined for the drain
// path. It is the one healthy minimum: the SSP gate, joiners and readmitted
// workers all measure against it.
func (t *staleTracker) minClock(except int) (m int64, ok bool) {
	m = slices.Min(t.clock)
	for id, c := range t.clock {
		if id != except && t.health.ok(id) && (!ok || c < m) {
			m, ok = c, true
		}
	}
	return m, ok
}

// staleness returns how many steps ahead of the slowest healthy worker id's
// clock currently is. The slowest healthy worker itself is always at 0, so
// an armed gate can never park the whole fleet.
func (t *staleTracker) staleness(id int) int64 {
	m, _ := t.minClock(-1)
	if s := t.clock[id] - m; s > 0 {
		return s
	}
	return 0
}

// allow reports whether the gate permits a fresh dispatch to id.
func (t *staleTracker) allow(id int) bool {
	return t.bound < 0 || t.staleness(id) <= t.bound
}

// pass clears id's gated flag after an allowed dispatch.
func (t *staleTracker) pass(id int) { t.gated[id] = false }

// block parks id behind the gate and reports whether this was a fresh
// transition (callers count blocked dispatches only on transitions).
func (t *staleTracker) block(id int) bool {
	if t.gated[id] {
		return false
	}
	t.gated[id] = true
	t.rep.Blocked++
	if t.rm != nil {
		t.rm.blocked.Inc()
	}
	return true
}

// wake returns (and un-parks) every gated worker the gate would now admit.
// Engines call it whenever the minimum clock may have advanced — after any
// completion, crash, quarantine, or readmission — and re-dispatch the
// returned workers.
func (t *staleTracker) wake() []int {
	var ids []int
	for id, g := range t.gated {
		if g && t.allow(id) {
			t.gated[id] = false
			ids = append(ids, id)
		}
	}
	return ids
}

// observe records a gate-subject update's dispatch-time staleness.
func (t *staleTracker) observe(s int64) {
	t.rep.observe(s)
	if t.rm != nil && s > 0 {
		t.rm.staleMax.Set(float64(t.rep.Max))
	}
}

// advance bumps id's clock after any completed dispatch (including
// recovery work — a finished step is a finished step).
func (t *staleTracker) advance(id int) { t.clock[id]++ }

// addWorker grows the clock table for an elastic joiner, entering it at the
// healthy minimum clock — the same rule catchUp applies to readmitted
// workers — so a joiner neither drags the SSP gate's minimum backwards nor
// parks the fleet while it grinds up from a stale zero. Call it after the
// health tracker has grown, so minClock sees a consistent worker set.
func (t *staleTracker) addWorker() {
	m, _ := t.minClock(-1)
	t.clock = append(t.clock, m)
	t.gated = append(t.gated, false)
}

// catchUp jumps a readmitted worker's clock to the healthy minimum so a
// long-quarantined laggard rejoins at the back of the pack instead of
// dragging the minimum down and stalling everyone else at the gate until
// it grinds through the whole gap alone. The minimum excludes id itself:
// engines readmit before catching up, and a just-readmitted laggard would
// otherwise be its own minimum and never catch up.
func (t *staleTracker) catchUp(id int) {
	if m, ok := t.minClock(id); ok && t.clock[id] < m {
		t.clock[id] = m
	}
}
