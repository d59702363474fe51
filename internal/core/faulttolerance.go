package core

import (
	"fmt"
	"math"
	"strings"
	"time"

	"heterosgd/internal/data"
	"heterosgd/internal/elastic"
	"heterosgd/internal/nn"
	"heterosgd/internal/telemetry"
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

// WorkerState is a worker slot's lifecycle position — its health and its
// membership in one table. A worker is active while healthy or quarantined:
// the elastic bounds and the elastic_workers gauge count those. It is
// dispatchable only while healthy.
type WorkerState int

const (
	// WorkerHealthy workers receive dispatches.
	WorkerHealthy WorkerState = iota
	// WorkerQuarantined workers missed a watchdog deadline; their
	// in-flight batch was re-dispatched and they receive no new work
	// until their overdue completion arrives (the readmission probe).
	WorkerQuarantined
	// WorkerCrashed workers panicked or died; they never return and hold
	// no elastic slot.
	WorkerCrashed
	// WorkerDeparted workers left the run through elastic membership (a
	// drained graceful leave or a forced eviction). Unlike a crash this is
	// not a fault: a departed worker never counts toward Faulty().
	WorkerDeparted
	// WorkerDraining workers are leaving gracefully: no new work, not even
	// recovery batches, but their in-flight dispatch completes and is
	// applied, and retires them. A draining worker that misses its deadline
	// or loses its link departs at once.
	WorkerDraining
)

var workerStateNames = [...]string{"healthy", "quarantined", "crashed", "departed", "draining"}

// String returns the state name.
func (s WorkerState) String() string {
	if s < 0 || int(s) >= len(workerStateNames) {
		return "unknown"
	}
	return workerStateNames[s]
}

// dispatchable reports whether a worker in state s may receive work.
func (s WorkerState) dispatchable() bool { return s == WorkerHealthy }

// active reports whether s counts against the elastic bounds.
func (s WorkerState) active() bool { return s == WorkerHealthy || s == WorkerQuarantined }

// alive reports whether a worker in state s may still produce results.
func (s WorkerState) alive() bool { return s.active() || s == WorkerDraining }

// faulty reports whether s is a fault's end state.
func (s WorkerState) faulty() bool { return s == WorkerQuarantined || s == WorkerCrashed }

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
	// worker to a healthy one: the run's "redispatch" incidents.
	Redispatches int
	// DroppedUpdates counts non-finite gradient updates discarded by the
	// divergence guard before they reached the shared model.
	DroppedUpdates int64
	// Rollbacks counts divergence-guard restores of the last good model:
	// the run's "rollback" incidents.
	Rollbacks int
	// Diverged reports that the retry budget was exhausted: the run
	// stopped because loss stayed non-finite through MaxRetries rollbacks
	// (a "diverged" incident).
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
	// deltas were discarded. One "duplicate" incident each.
	Duplicates uint64
	// Abandoned counts completions for dispatches the coordinator had
	// given up on (partition or deadline) and re-dispatched elsewhere;
	// their deltas were discarded and they served as readmission probes.
	// One "abandoned" incident each.
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
		if w.State.faulty() || w.Crashes > 0 || w.Timeouts > 0 {
			return true
		}
	}
	return false
}

// String renders a one-line summary.
func (r *FaultReport) String() string {
	if !r.Faulty() {
		return "no faults"
	}
	var parts []string
	for _, w := range r.Workers {
		if w.State.faulty() || w.Crashes > 0 || w.Timeouts > 0 {
			parts = append(parts, fmt.Sprintf("%s %s (crashes %d, timeouts %d, readmits %d)",
				w.Worker, w.State, w.Crashes, w.Timeouts, w.Readmissions))
		}
	}
	parts = append(parts, fmt.Sprintf("redispatches %d, dropped updates %d, rollbacks %d",
		r.Redispatches, r.DroppedUpdates, r.Rollbacks))
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

// healthTracker is the one table of every worker slot: its WorkerState, the
// bounds on active workers, and the per-worker fault counters. A
// fixed-membership run is the same table, at most len(Workers) active. Slot
// ids are never reused — a departed slot stays departed and a joiner always
// gets a fresh id — because ids are baked into flight entries, telemetry
// rings and wire frames that may still be in flight when a slot empties. It
// is confined to the coordinator (goroutine or simulation loop) and needs no
// locking, so every decision is deterministic given a deterministic driver.
type healthTracker struct {
	report *FaultReport
	rec    *record
	// rr is the round-robin cursor for picking re-dispatch targets.
	rr int
	// min and max bound the active workers; slots, when set, caps the slots
	// the executor can ever hold.
	min, max, slots int
	// churn holds the Peak and Final active counts, Final the live one,
	// which gauge shows; the Result carries churn, its transition counts
	// folded from the record, only when membership may change (elastic).
	churn   elastic.Report
	elastic bool
	gauge   *telemetry.Gauge
}

func newHealthTracker(cfg *Config, rec *record) *healthTracker {
	r := &FaultReport{Workers: make([]WorkerHealth, len(cfg.Workers))}
	for i, w := range cfg.Workers {
		r.Workers[i].Worker = w.Device.Name()
	}
	n := len(r.Workers)
	return &healthTracker{report: r, rec: rec, min: max(cfg.MinWorkers, 1), max: cfg.Capacity(), elastic: cfg.elasticEnabled(), churn: elastic.Report{Peak: n, Final: n}}
}

// state returns worker id's state; an id with no slot reads as "unknown".
func (h *healthTracker) state(id int) WorkerState {
	if id < 0 || id >= len(h.report.Workers) {
		return -1
	}
	return h.report.Workers[id].State
}

// ok reports whether worker id may receive dispatches.
func (h *healthTracker) ok(id int) bool { return h.state(id).dispatchable() }

// count returns the number of workers whose state satisfies in.
func (h *healthTracker) count(in func(WorkerState) bool) int {
	n := 0
	for _, w := range h.report.Workers {
		if in(w.State) {
			n++
		}
	}
	return n
}

// move puts worker id in state to and logs the transition as kind.
func (h *healthTracker) move(id int, at time.Duration, to WorkerState, kind, detail string) {
	h.report.Workers[id].State = to
	h.recount()
	h.rec.log(at, h.report.Workers[id].Worker, kind, detail)
}

// recount follows the active count with the churn report and the gauge.
func (h *healthTracker) recount() {
	n := h.count(WorkerState.active)
	h.churn.Peak, h.churn.Final = max(h.churn.Peak, n), n
	h.gauge.Set(float64(n))
}

// refuse logs a refused membership change ("join-refused", …) and reports
// false.
func (h *healthTracker) refuse(at time.Duration, op, format string, args ...any) bool {
	h.rec.log(at, "", op+"-refused", fmt.Sprintf(format, args...))
	return false
}

// join admits one more active worker as id, which must be the next slot,
// within the max bound and the executor's slots; the caller then grows the
// slot with addWorker and logs the "join".
func (h *healthTracker) join(at time.Duration, reason string, id int) bool {
	if id != len(h.report.Workers) {
		return h.refuse(at, "join", "unexpected join for slot %d (have %d)", id, len(h.report.Workers))
	}
	if h.churn.Final >= h.max {
		return h.refuse(at, "join", "%s: elastic: join refused: already at max %d active workers", reason, h.max)
	}
	if h.slots > 0 && len(h.report.Workers) >= h.slots {
		return h.refuse(at, "join", "%s: elastic: join refused: all %d worker slots used", reason, h.slots)
	}
	return true
}

// addWorker grows the tracker by one healthy slot.
func (h *healthTracker) addWorker(name string) {
	h.report.Workers = append(h.report.Workers, WorkerHealth{Worker: name})
	h.recount()
}

// leave starts a graceful departure of an active worker, refused at the min
// bound.
func (h *healthTracker) leave(id int, at time.Duration) bool {
	switch {
	case !h.state(id).active():
		return h.refuse(at, "leave", "elastic: leave of %s worker %d", h.state(id), id)
	case h.churn.Final <= h.min:
		return h.refuse(at, "leave", "elastic: leave refused: already at min %d active workers", h.min)
	}
	h.move(id, at, WorkerDraining, "leave", "graceful departure started")
	return true
}

// retire completes a graceful leave; it reports false if id was not
// draining.
func (h *healthTracker) retire(id int, at time.Duration) bool {
	if h.state(id) != WorkerDraining {
		return false
	}
	h.move(id, at, WorkerDeparted, "depart", "graceful leave drained")
	return true
}

// evict forces id out at once, ignoring the min bound: a forced departure
// cannot be refused. A crashed worker has already gone.
func (h *healthTracker) evict(id int, at time.Duration) bool {
	if !h.state(id).alive() {
		return h.refuse(at, "evict", "elastic: evict of %s worker %d", h.state(id), id)
	}
	h.move(id, at, WorkerDeparted, "evict", "evicted")
	return true
}

// markCrashed records a worker death.
func (h *healthTracker) markCrashed(id int, at time.Duration, detail string) {
	h.report.Workers[id].Crashes++
	h.move(id, at, WorkerCrashed, "crash", detail)
}

// quarantine moves a healthy worker out of the dispatch rotation until its
// readmission; a draining one departs at once instead, since readmitting it
// would only let it depart. It reports false if the worker was already out
// of the rotation. kind is the event logged: a missed watchdog deadline is a
// "timeout", a severed link a "partition" — both count as Timeouts
// (deadlines missed from the coordinator's point of view).
func (h *healthTracker) quarantine(id int, at time.Duration, kind, detail string) bool {
	switch h.state(id) {
	case WorkerHealthy:
		h.move(id, at, WorkerQuarantined, kind, detail)
	case WorkerDraining:
		h.rec.log(at, h.report.Workers[id].Worker, kind, detail)
		h.move(id, at, WorkerDeparted, "depart", "drain cut short by a "+kind)
	default:
		return false
	}
	h.report.Workers[id].Timeouts++
	return true
}

// readmit returns a quarantined worker to the rotation: its overdue
// completion arrived (the probe succeeded) or, on the cluster, its link
// healed. detail is the event logged.
func (h *healthTracker) readmit(id int, at time.Duration, detail string) bool {
	if h.state(id) != WorkerQuarantined {
		return false
	}
	h.report.Workers[id].Readmissions++
	h.move(id, at, WorkerHealthy, "readmit", detail)
	return true
}

// pickHealthy returns the next healthy worker round-robin, excluding not
// (pass -1 to exclude nobody); -1 when none exists.
func (h *healthTracker) pickHealthy(not int) int {
	n := len(h.report.Workers)
	for i := 0; i < n; i++ {
		id := (h.rr + i) % n
		if id != not && h.ok(id) {
			h.rr = (id + 1) % n
			return id
		}
	}
	if not >= 0 && h.ok(not) {
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

// onEval processes an epoch-barrier loss. A finite loss snapshots the
// model and resets the retry budget, silently: a routine snapshot is not an
// incident. A non-finite loss restores the snapshot and backs the learning
// rate off. diverged reports that the retry budget is exhausted and the run
// must stop. Both of those verdicts are incidents in rec.
func (g *guardState) onEval(loss float64, global *nn.Params, rec *record, at time.Duration) (rolledBack, diverged bool) {
	if g == nil {
		return false, false
	}
	if isFinite(loss) {
		g.checkpoint.CopyFrom(global)
		g.retries = 0
		return false, false
	}
	g.retries++
	global.CopyFrom(g.checkpoint)
	g.lrScale = max(g.lrScale*guardLRBackoff, guardMinLRScale)
	rec.log(at, "", "rollback", fmt.Sprintf("non-finite loss; lr scale %.4g, retry %d/%d", g.lrScale, g.retries, guardMaxRetries))
	if g.retries > guardMaxRetries {
		rec.log(at, "", "diverged", "retry budget exhausted")
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
