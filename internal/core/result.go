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
// returns. Params is the shared model itself: on RunReal a quarantined
// straggler that wakes after the return still lands its update there, the
// documented at-least-once of shared memory.
type Result struct {
	// Algorithm identifies the run.
	Algorithm Algorithm
	// Trace is the loss curve (both time- and epoch-indexed; Figures 5–6).
	Trace *metrics.Trace
	// Updates counts raw model updates per worker (Figure 8).
	Updates *metrics.UpdateCounter
	// Utilization records per-device busy intervals (Figure 7).
	Utilization *metrics.UtilizationTrace
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
	// Events is the timestamped fault-tolerance incident log.
	Events *metrics.EventLog
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

// CPUShare returns the fraction of raw updates performed by CPU workers
// (workers named "cpu*"), the Figure 8 statistic.
func (r *Result) CPUShare() float64 {
	snap := r.Updates.Snapshot()
	var cpu, total int64
	for name, n := range snap {
		total += n
		if len(name) >= 3 && name[:3] == "cpu" {
			cpu += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(cpu) / float64(total)
}

// String renders a one-line summary.
func (r *Result) String() string {
	s := fmt.Sprintf("%s: %.2f epochs in %v, loss %.4f→%.4f, %d updates (CPU share %.0f%%)",
		r.Algorithm, r.Epochs, r.Duration.Round(time.Millisecond), firstLoss(r.Trace), r.FinalLoss,
		r.Updates.Total(), 100*r.CPUShare())
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
