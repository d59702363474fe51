package core

import (
	"fmt"
	"math"
	"strings"
	"time"

	"heterosgd/internal/data"
	"heterosgd/internal/metrics"
	"heterosgd/internal/nn"
)

// This file implements the fault-tolerance layer shared by both engines:
// worker health tracking (crash → re-dispatch, timeout → quarantine →
// readmission), the watchdog deadline policy, and the divergence guards
// (non-finite update dropping, checkpoint/rollback with LR backoff). The
// paper's premise (§II) is that asynchronous Adaptive Hogbatch absorbs
// runtime heterogeneity; this layer extends "heterogeneity" to its limit
// cases — a worker that slows down forever, dies, or starts emitting
// garbage — so training degrades gracefully instead of crashing or
// silently diverging.

// WorkerState is a worker's health as seen by the coordinator.
type WorkerState int

const (
	// WorkerHealthy workers receive dispatches.
	WorkerHealthy WorkerState = iota
	// WorkerQuarantined workers missed a watchdog deadline; their
	// in-flight batch was re-dispatched and they receive no new work
	// until their overdue completion arrives (the readmission probe).
	WorkerQuarantined
	// WorkerCrashed workers panicked or died; they never return.
	WorkerCrashed
	// WorkerDeparted workers left the run through elastic membership (a
	// drained graceful leave or a forced eviction). Unlike a crash this is
	// not a fault: a departed worker never counts toward Faulty().
	WorkerDeparted
)

// String returns the state name.
func (s WorkerState) String() string {
	switch s {
	case WorkerHealthy:
		return "healthy"
	case WorkerQuarantined:
		return "quarantined"
	case WorkerCrashed:
		return "crashed"
	case WorkerDeparted:
		return "departed"
	default:
		return "unknown"
	}
}

// WorkerHealth is one worker's fault-tolerance record in a Result.
type WorkerHealth struct {
	// Worker is the device name ("cpu0", "gpu0").
	Worker string
	// State is the worker's health at the end of the run.
	State WorkerState
	// Crashes counts panics recovered from this worker.
	Crashes int
	// Timeouts counts watchdog deadlines this worker missed.
	Timeouts int
	// Readmissions counts quarantine exits (the worker came back).
	Readmissions int
}

// FaultReport aggregates every fault-tolerance event of a run. A report
// with Faulty() == false means the run saw no failures.
type FaultReport struct {
	// Workers holds per-worker health records, indexed like
	// Config.Workers.
	Workers []WorkerHealth
	// Redispatches counts batches re-routed from a crashed or quarantined
	// worker to a healthy one.
	Redispatches int
	// DroppedUpdates counts non-finite gradient updates discarded by the
	// divergence guard before they reached the shared model.
	DroppedUpdates int64
	// Checkpoints and Rollbacks count divergence-guard checkpoint saves
	// and restores.
	Checkpoints int
	Rollbacks   int
	// Diverged reports that the retry budget was exhausted: the run
	// stopped because loss stayed non-finite through MaxRetries rollbacks.
	Diverged bool
	// Queue aggregates message-queue counters across the run's channels
	// (coordinator queue plus worker inboxes in RunReal; zero in RunSim,
	// which passes messages by direct call).
	Queue QueueStats
	// Transport aggregates networked-transport accounting (RunCluster
	// only; nil for the in-process engines).
	Transport *TransportReport
}

// TransportReport is RunCluster's delivery accounting. Its core invariant
// is exactly-once application: every dispatched batch's update lands in the
// global model exactly once, no matter how often the transport duplicated,
// retransmitted, or re-dispatched it — so at the end of a fully drained run
// AppliedExamples equals Result.ExamplesProcessed.
type TransportReport struct {
	// Duplicates counts completions whose sequence number was already
	// settled (retransmissions and fault-injected duplicate frames); their
	// deltas were discarded.
	Duplicates uint64
	// Abandoned counts completions for dispatches the coordinator had
	// given up on (partition or deadline) and re-dispatched elsewhere;
	// their deltas were discarded and they served as readmission probes.
	Abandoned uint64
	// Partitions counts link-down transitions observed by the coordinator.
	Partitions uint64
	// Reconnects counts links that came back after a failure.
	Reconnects uint64
	// AppliedExamples sums the batch sizes of completions whose delta was
	// accepted (applied or guard-dropped after processing).
	AppliedExamples int64
}

// String renders the link-layer counters as one summary line, the way the
// staleness report prints — suitable for a CLI's final output.
func (t *TransportReport) String() string {
	if t == nil {
		return "transport: no link-layer activity"
	}
	return fmt.Sprintf("transport: %d examples applied exactly once; %d duplicates discarded, %d abandoned discarded, %d partitions, %d reconnects",
		t.AppliedExamples, t.Duplicates, t.Abandoned, t.Partitions, t.Reconnects)
}

// QueueStats aggregates msgq counters: messages pushed, popped, and dropped
// (drops come from expired pops whose straggler completion was discarded).
type QueueStats struct {
	Pushed, Popped, Dropped uint64
}

// Faulty reports whether anything abnormal happened.
func (r *FaultReport) Faulty() bool {
	if r == nil {
		return false
	}
	if r.Redispatches > 0 || r.DroppedUpdates > 0 || r.Rollbacks > 0 || r.Diverged {
		return true
	}
	for _, w := range r.Workers {
		if (w.State != WorkerHealthy && w.State != WorkerDeparted) || w.Crashes > 0 || w.Timeouts > 0 {
			return true
		}
	}
	return false
}

// Survivors returns the number of workers healthy at the end of the run.
func (r *FaultReport) Survivors() int {
	n := 0
	for _, w := range r.Workers {
		if w.State == WorkerHealthy {
			n++
		}
	}
	return n
}

// String renders a one-line summary.
func (r *FaultReport) String() string {
	if !r.Faulty() {
		return "no faults"
	}
	var parts []string
	for _, w := range r.Workers {
		if (w.State != WorkerHealthy && w.State != WorkerDeparted) || w.Crashes > 0 || w.Timeouts > 0 {
			parts = append(parts, fmt.Sprintf("%s %s (crashes %d, timeouts %d, readmits %d)",
				w.Worker, w.State, w.Crashes, w.Timeouts, w.Readmissions))
		}
	}
	parts = append(parts, fmt.Sprintf("redispatches %d, dropped updates %d, checkpoints %d, rollbacks %d",
		r.Redispatches, r.DroppedUpdates, r.Checkpoints, r.Rollbacks))
	if r.Diverged {
		parts = append(parts, "DIVERGED")
	}
	return strings.Join(parts, "; ")
}

// WatchdogConfig enables per-dispatch deadlines. Each dispatch to worker i
// must complete within Device.IterTime(arch, batch, modelBytes) × Slack
// (but at least Floor); missing the deadline quarantines the worker and
// re-dispatches its batch. In RunSim the deadline is in virtual time; in
// RunReal and RunCluster it is wall time, so Floor absorbs the host-speed
// mismatch between the cost model and real execution. Slack 0 makes the
// deadline exactly Floor, whatever the model says.
type WatchdogConfig struct {
	// Slack multiplies the modeled iteration time (non-negative).
	Slack float64
	// Floor is the minimum deadline regardless of the model.
	Floor time.Duration
}

// DefaultWatchdog returns a permissive wall-clock watchdog: a worker must
// exceed 8× its modeled iteration time and 100ms before it is quarantined.
func DefaultWatchdog() *WatchdogConfig {
	return &WatchdogConfig{Slack: 8, Floor: 100 * time.Millisecond}
}

// The divergence guards' policy (Config.Guards): a non-finite epoch loss
// rolls the model back to the last checkpoint and multiplies the run-wide LR
// scale by guardLRBackoff, floored at guardMinLRScale; more than
// guardMaxRetries consecutive rollbacks declare the run diverged.
const (
	guardMaxRetries = 3
	guardLRBackoff  = 0.5
	guardMinLRScale = 1.0 / 64
)

// healthTracker maintains worker states for one run and accumulates the
// FaultReport. It is confined to the coordinator (goroutine or simulation
// loop) and needs no locking.
type healthTracker struct {
	report *FaultReport
	log    *metrics.EventLog
	// rr is the round-robin cursor for picking re-dispatch targets.
	rr int
}

func newHealthTracker(cfg *Config, log *metrics.EventLog) *healthTracker {
	r := &FaultReport{Workers: make([]WorkerHealth, len(cfg.Workers))}
	for i, w := range cfg.Workers {
		r.Workers[i].Worker = w.Device.Name()
	}
	return &healthTracker{report: r, log: log}
}

// ok reports whether worker id may receive dispatches.
func (h *healthTracker) ok(id int) bool {
	return h.report.Workers[id].State == WorkerHealthy
}

// healthyCount returns the number of dispatchable workers.
func (h *healthTracker) healthyCount() int {
	n := 0
	for i := range h.report.Workers {
		if h.report.Workers[i].State == WorkerHealthy {
			n++
		}
	}
	return n
}

// aliveCount returns workers that may still produce results (healthy or
// quarantined-but-possibly-returning; crashed and departed never return).
func (h *healthTracker) aliveCount() int {
	n := 0
	for i := range h.report.Workers {
		if s := h.report.Workers[i].State; s != WorkerCrashed && s != WorkerDeparted {
			n++
		}
	}
	return n
}

// addWorker grows the tracker for an elastic joiner and returns its id.
func (h *healthTracker) addWorker(name string, at time.Duration) int {
	id := len(h.report.Workers)
	h.report.Workers = append(h.report.Workers, WorkerHealth{Worker: name})
	h.log.Add(at, name, "join", fmt.Sprintf("elastic worker %d admitted", id))
	return id
}

// markDeparted records an elastic departure (drained leave or eviction).
// Unlike markCrashed it is not a fault — just a membership change.
func (h *healthTracker) markDeparted(id int, at time.Duration, detail string) {
	w := &h.report.Workers[id]
	w.State = WorkerDeparted
	h.log.Add(at, w.Worker, "depart", detail)
}

// markCrashed records a worker death.
func (h *healthTracker) markCrashed(id int, at time.Duration, detail string) {
	w := &h.report.Workers[id]
	w.State = WorkerCrashed
	w.Crashes++
	h.log.Add(at, w.Worker, "crash", detail)
}

// quarantine moves a healthy worker out of the dispatch rotation; it reports
// false if the worker was already benched. kind is the event logged: a
// missed watchdog deadline is a "timeout", a severed link a "partition" —
// one state machine, and both count as Timeouts (deadlines missed from the
// coordinator's point of view).
func (h *healthTracker) quarantine(id int, at time.Duration, kind, detail string) bool {
	w := &h.report.Workers[id]
	if w.State != WorkerHealthy {
		return false
	}
	w.State = WorkerQuarantined
	w.Timeouts++
	h.log.Add(at, w.Worker, kind, detail)
	return true
}

// readmit returns a quarantined worker to the rotation: its overdue
// completion arrived (the probe succeeded) or, on the cluster, its link
// healed. detail is the event logged.
func (h *healthTracker) readmit(id int, at time.Duration, detail string) bool {
	w := &h.report.Workers[id]
	if w.State != WorkerQuarantined {
		return false
	}
	w.State = WorkerHealthy
	w.Readmissions++
	h.log.Add(at, w.Worker, "readmit", detail)
	return true
}

// pickHealthy returns the next healthy worker round-robin, excluding not
// (pass -1 to exclude nobody); -1 when none exists.
func (h *healthTracker) pickHealthy(not int) int {
	n := len(h.report.Workers)
	for i := 0; i < n; i++ {
		id := (h.rr + i) % n
		if id != not && h.report.Workers[id].State == WorkerHealthy {
			h.rr = (id + 1) % n
			return id
		}
	}
	if not >= 0 && h.report.Workers[not].State == WorkerHealthy {
		return not
	}
	return -1
}

// guardState holds the divergence-guard runtime: the last good checkpoint
// and the backed-off learning-rate scale. nil when guards are disabled;
// all methods are nil-safe.
type guardState struct {
	checkpoint *nn.Params
	lrScale    float64
	retries    int
}

func newGuardState(on bool, global *nn.Params) *guardState {
	if !on {
		return nil
	}
	return &guardState{checkpoint: global.Clone(), lrScale: 1}
}

// scale returns the current LR multiplier (1 before any rollback).
func (g *guardState) scale() float64 {
	if g == nil {
		return 1
	}
	return g.lrScale
}

// retryCount returns the consecutive-rollback count (0 before any rollback).
func (g *guardState) retryCount() int {
	if g == nil {
		return 0
	}
	return g.retries
}

// restore re-applies a checkpointed guard backoff on resume: the LR scale
// and retry budget continue where the interrupted run left them, and the
// restored model becomes the new last-known-good checkpoint.
func (g *guardState) restore(scale float64, retries int, global *nn.Params) {
	if g == nil {
		return
	}
	if scale > 0 {
		g.lrScale = scale
	}
	if retries > 0 {
		g.retries = retries
	}
	g.checkpoint.CopyFrom(global)
}

// snapshot returns the last good checkpoint (nil when guards are off).
func (g *guardState) snapshot() *nn.Params {
	if g == nil {
		return nil
	}
	return g.checkpoint
}

// onEval processes an epoch-barrier loss. A finite loss checkpoints the
// model and resets the retry budget; a non-finite loss restores the
// checkpoint and backs the learning rate off. diverged reports that the
// retry budget is exhausted and the run must stop.
func (g *guardState) onEval(loss float64, global *nn.Params, report *FaultReport, log *metrics.EventLog, at time.Duration) (rolledBack, diverged bool) {
	if g == nil {
		return false, false
	}
	if isFinite(loss) {
		g.checkpoint.CopyFrom(global)
		g.retries = 0
		report.Checkpoints++
		log.Add(at, "", "checkpoint", fmt.Sprintf("loss %.6g", loss))
		return false, false
	}
	g.retries++
	report.Rollbacks++
	global.CopyFrom(g.checkpoint)
	g.lrScale = max(g.lrScale*guardLRBackoff, guardMinLRScale)
	log.Add(at, "", "rollback", fmt.Sprintf("non-finite loss; lr scale %.4g, retry %d/%d", g.lrScale, g.retries, guardMaxRetries))
	if g.retries > guardMaxRetries {
		report.Diverged = true
		log.Add(at, "", "diverged", "retry budget exhausted")
		return true, true
	}
	return true, false
}

// watchdogDeadline derives the dispatch deadline for a batch of b examples
// on worker wc: modeled iteration time × slack, floored.
func watchdogDeadline(wd *WatchdogConfig, wc *WorkerConfig, arch nn.Arch, b int, modelBytes int64) time.Duration {
	d := time.Duration(float64(wc.Device.IterTime(arch, b, modelBytes)) * wd.Slack)
	if d < wd.Floor {
		d = wd.Floor
	}
	return d
}

// splitBatch cuts batch into consecutive chunks of at most maxSize rows,
// so a batch sized for one worker can be re-dispatched to another with a
// smaller maximum.
func splitBatch(batch data.Batch, maxSize int) []data.Batch {
	size := batch.Size()
	if maxSize <= 0 || size <= maxSize {
		return []data.Batch{batch}
	}
	out := make([]data.Batch, 0, (size+maxSize-1)/maxSize)
	for lo, hi := 0, 0; lo < size; lo = hi {
		hi = pieceEnd(lo, size, maxSize)
		out = append(out, batch.Sub(lo, hi))
	}
	return out
}

// isFinite reports whether f is neither NaN nor ±Inf.
func isFinite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}
