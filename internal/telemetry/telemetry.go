// Package telemetry is the runtime observability layer shared by the
// training engines, the message queues, and the serving stack:
//
//   - a lock-free metrics Registry of named Counters, Gauges, and
//     power-of-two latency Histograms with Prometheus-text and JSON
//     exposition (Handler), mounted on hogserve's /metrics and on the
//     optional `hogtrain -telemetry-addr` debug server;
//   - a low-overhead event Tracer: fixed-size per-worker ring buffers of
//     typed span events (schedule latency, queue wait, gradient-kernel
//     time, model-update apply, checkpoint capture, ...), merged by the
//     reader and exportable as Chrome trace_event JSON
//     (`hogtrain -trace out.json`, loadable in chrome://tracing or
//     https://ui.perfetto.dev).
//
// The disabled path is designed to be compile-out cheap: every hot-path
// method is a no-op on a nil receiver, so code instruments unconditionally
// ("cfg.Tracer.Span(...)", "counter.Add(1)") and a run without telemetry
// pays one nil check per event — no allocation, no atomics, no locks.
// The enabled path never allocates per event either: counters are single
// atomic adds, histogram observations one atomic add into a fixed bucket
// array, and tracer spans five atomic stores into a preallocated ring slot.
package telemetry

import "time"

// Kind classifies a span event — the event taxonomy (DESIGN.md §12).
type Kind uint8

const (
	// KindSchedule is a coordinator scheduling decision: the instant a
	// batch was dispatched to a worker (arg = batch size). Its duration is
	// the coordinator-side latency of the decision (0 in the simulated
	// engine, where scheduling is instantaneous in virtual time).
	KindSchedule Kind = iota
	// KindQueueWait is the time a dispatched batch sat in the worker's
	// msgq inbox before the worker picked it up (arg = batch size).
	KindQueueWait
	// KindGradient is one gradient-kernel execution: forward + backward
	// over the dispatched batch (arg = batch size).
	KindGradient
	// KindApply is the model-update apply step: pushing a worker's
	// gradient(s) into the shared model (arg = updates applied).
	KindApply
	// KindCheckpoint is one run-state checkpoint capture handed to the
	// CheckpointSink (arg = total updates at capture).
	KindCheckpoint
	// KindEval is one end-of-epoch loss evaluation (arg = examples
	// evaluated).
	KindEval
	// KindSnapshot is one model snapshot published to the SnapshotSink
	// (arg = model bytes copied).
	KindSnapshot
	numKinds
)

var kindNames = [...]string{
	KindSchedule: "schedule", KindQueueWait: "queue_wait", KindGradient: "gradient",
	KindApply: "apply", KindCheckpoint: "checkpoint", KindEval: "eval", KindSnapshot: "snapshot",
}

// String returns the kind's Chrome-trace event name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// argName maps each kind to the Chrome-trace args key its Arg renders under.
func (k Kind) argName() string {
	switch k {
	case KindSchedule, KindQueueWait, KindGradient:
		return "batch"
	case KindApply:
		return "updates"
	case KindCheckpoint:
		return "total_updates"
	case KindEval:
		return "examples"
	case KindSnapshot:
		return "bytes"
	default:
		return "arg"
	}
}

// Event is one recorded span: what happened, on which ring (worker), when it
// started relative to the run origin, how long it took, and one
// kind-specific integer argument. Start and Dur are virtual time in the
// simulated engine and wall time in the real engine — consistently within
// one trace, so the exported timeline is internally coherent either way.
type Event struct {
	Kind   Kind
	Worker int
	Start  time.Duration
	Dur    time.Duration
	Arg    int64
}
