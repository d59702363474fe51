package core

import (
	"fmt"
	"time"

	"heterosgd/internal/elastic"
	"heterosgd/internal/metrics"
	"heterosgd/internal/nn"
)

// BatchEvent records one adaptive batch-size change: worker id's batch
// became Size at time At (eval-corrected virtual time in RunSim, wall time
// in RunReal).
type BatchEvent struct {
	At     time.Duration
	Worker string
	Size   int
}

// Result captures everything the paper measures about one training run.
// The run's coordinator is the only writer of its report (Trace, Updates,
// Utilization, Health, Events, Staleness), which is final when the engine
// returns. Events, every count that restates an incident
// (Health.Redispatches, Rollbacks, Diverged, the transport's Duplicates and
// Abandoned, Elastic's Joins, Leaves, Evictions and Rebalances), and the
// counts the checkpoint carries (Health.DroppedUpdates and each worker's
// Crashes, Timeouts and Readmissions) span every incarnation of a resumed
// run; the rest describe this incarnation's fleet. Params is the shared
// model itself: on RunReal a quarantined straggler that wakes after the
// return still lands its update there, the documented at-least-once of
// shared memory.
type Result struct {
	// Algorithm identifies the run.
	Algorithm Algorithm
	// Trace is the loss curve (both time- and epoch-indexed; Figures 5–6).
	Trace *metrics.Trace
	// Updates counts raw model updates per worker name (Figure 8); a worker
	// that applied none has no entry.
	Updates map[string]int64
	// Utilization holds each device's busy intervals (Figure 7), binned by
	// metrics.Series and metrics.MeanUtilization.
	Utilization map[string][]metrics.Busy
	// Epochs is the fractional number of passes completed.
	Epochs float64
	// Duration is the run's simulated (RunSim) or wall (RunReal) length.
	Duration time.Duration
	// FinalLoss and MinLoss summarize the trace.
	FinalLoss, MinLoss float64
	// ExamplesProcessed counts assigned training examples.
	ExamplesProcessed int64
	// FinalBatch reports each worker's last batch size (adaptive runs
	// show where Algorithm 2 converged).
	FinalBatch []int
	// Resizes counts adaptive batch-size changes per worker.
	Resizes []int
	// BatchTrace records the batch-size evolution (Algorithm 2's visible
	// behaviour); static algorithms record only the initial sizes.
	BatchTrace []BatchEvent
	// Converged reports that TargetLoss was reached before the budget.
	Converged bool
	// Params is the trained model.
	Params *nn.Params
	// Overshoot is how far past the budget the run actually ran (RunReal
	// drains in-flight batches after the budget expires; RunSim never
	// overshoots). The final trace point is clamped to the budget
	// boundary; this field reports the true overrun.
	Overshoot time.Duration
	// Health is the run's fault-tolerance report: per-worker states,
	// re-dispatch/drop/rollback counts. Health.Faulty() == false on a
	// clean run.
	Health *FaultReport
	// Events is the timestamped incident log.
	Events metrics.Events
	// Checkpoint is the divergence guard's last known-good parameter
	// snapshot (nil when guards are disabled).
	Checkpoint *nn.Params
	// Interrupted reports that the run's context was cancelled before the
	// budget: scheduling stopped, in-flight work drained, and the Result
	// reflects the partial run (a final checkpoint was emitted if a
	// CheckpointSink is configured).
	Interrupted bool
	// Staleness is the per-update dispatch-staleness histogram every engine
	// records for every algorithm; under AlgSSP its Max is gate-bounded and
	// Blocked counts deferred dispatches (the tested invariants).
	Staleness *StalenessReport
	// Elastic is the membership-churn report for elastic runs: joins,
	// graceful leaves, forced evictions, rebalance passes, and the peak and
	// final active-worker counts. Nil for fixed-membership runs.
	Elastic *elastic.Report
}

// TotalUpdates returns the raw model updates summed over every worker.
func (r *Result) TotalUpdates() (total int64) {
	for _, n := range r.Updates {
		total += n
	}
	return total
}

// CPUShare returns the fraction of raw updates performed by CPU workers
// (workers named "cpu*"), the Figure 8 statistic.
func (r *Result) CPUShare() float64 {
	var cpu int64
	for name, n := range r.Updates {
		if len(name) >= 3 && name[:3] == "cpu" {
			cpu += n
		}
	}
	if total := r.TotalUpdates(); total > 0 {
		return float64(cpu) / float64(total)
	}
	return 0
}

// String renders a one-line summary.
func (r *Result) String() string {
	s := fmt.Sprintf("%s: %.2f epochs in %v, loss %.4f→%.4f, %d updates (CPU share %.0f%%)",
		r.Algorithm, r.Epochs, r.Duration.Round(time.Millisecond), firstLoss(r.Trace), r.FinalLoss,
		r.TotalUpdates(), 100*r.CPUShare())
	if r.Health.Faulty() {
		s += " [faults: " + r.Health.String() + "]"
	}
	if r.Elastic.Churned() {
		s += " [" + r.Elastic.String() + "]"
	}
	return s
}

func firstLoss(t *metrics.Trace) float64 {
	if t == nil || len(t.Points) == 0 {
		return 0
	}
	return t.Points[0].Loss
}

// record is the run's one account of what happened, appended to by the loop
// goroutine alone: the incidents, one busy interval per completion, the raw
// updates per slot, the loss trace and the batch trace. The Result and the
// checkpoint read it, and every report count that restates an incident is a
// fold over its events, taken once at the end (result).
type record struct {
	events  metrics.Events
	busy    map[string][]metrics.Busy
	raw     []int64 // by worker id
	trace   *metrics.Trace
	batches []BatchEvent
}

// log appends an incident.
func (r *record) log(at time.Duration, worker, kind, detail string) {
	r.events = append(r.events, metrics.Event{At: at, Worker: worker, Kind: kind, Detail: detail})
}

// addBusy books device busy on [from, to) at the given efficiency (0–1) of
// its peak.
func (r *record) addBusy(device string, from, to time.Duration, eff float64) {
	if to > from {
		r.busy[device] = append(r.busy[device], metrics.Busy{From: from, To: to, Weight: eff})
	}
}

// updates returns the raw updates credited so far.
func (r *record) updates() (sum int64) {
	for _, n := range r.raw {
		sum += n
	}
	return sum
}

// result stamps the final loss sample and assembles the Result, folding the
// incident counts out of the record.
func (l *coordLoop) result(duration, overshoot, stamp time.Duration, final float64) *Result {
	l.point(stamp, final)
	ev, h := l.rec.events, l.health.report
	h.Redispatches, h.Rollbacks = ev.Count("redispatch"), ev.Count("rollback")
	h.Diverged = ev.Count("diverged") > 0
	l.tr.Duplicates, l.tr.Abandoned = uint64(ev.Count("duplicate")), uint64(ev.Count("abandoned"))
	var churn *elastic.Report
	if r := l.health.churn; l.health.elastic {
		r.Joins, r.Leaves, r.Evictions = ev.Count("join"), ev.Count("leave"), ev.Count("evict")
		// One rebalance pass follows every join, leave and evict.
		r.Rebalances = r.Joins + r.Leaves + r.Evictions
		churn = &r
	}
	updates := make(map[string]int64)
	for id, n := range l.rec.raw {
		if n > 0 {
			updates[l.name(id)] += n
		}
	}
	return &Result{
		Algorithm:         l.cfg.Algorithm,
		Trace:             l.rec.trace,
		Updates:           updates,
		Utilization:       l.rec.busy,
		Epochs:            l.coord.epochFrac(),
		Duration:          duration,
		Overshoot:         overshoot,
		FinalLoss:         final,
		MinLoss:           l.rec.trace.MinLoss(),
		ExamplesProcessed: l.coord.examplesDone,
		FinalBatch:        append([]int(nil), l.coord.batch...),
		Resizes:           append([]int(nil), l.coord.resizes...),
		BatchTrace:        l.rec.batches,
		Converged:         l.converged,
		Params:            l.global,
		Health:            h,
		Events:            ev,
		Checkpoint:        l.guard.snapshot(),
		Interrupted:       l.interrupted,
		Staleness:         l.stale.rep,
		Elastic:           churn,
	}
}
