package core

import (
	"fmt"

	"heterosgd/internal/telemetry"
)

// NewRunTracer returns a tracer shaped for cfg's run: one ring per worker
// slot the run may ever hold (Capacity), labeled with the device name —
// elastic joiner slots are labeled "elastic<i>" until a worker claims them —
// plus a final coordinator ring. Assign the result to cfg.Tracer before
// calling RunSim or RunReal. perRingCap ≤ 0 selects telemetry.DefaultRingCap.
func NewRunTracer(cfg *Config, perRingCap int) *telemetry.Tracer {
	capSlots := cfg.Capacity()
	names := make([]string, 0, capSlots+1)
	for _, w := range cfg.Workers {
		names = append(names, w.Device.Name())
	}
	for i := len(cfg.Workers); i < capSlots; i++ {
		names = append(names, fmt.Sprintf("elastic%d", i))
	}
	names = append(names, "coordinator")
	return telemetry.NewTracer(names, perRingCap)
}

// coordRing returns the tracer ring index reserved for coordinator-side
// events (eval, checkpoint, snapshot, schedule decisions). It sits past the
// last worker slot, so for elastic runs it is Capacity, not len(Workers) —
// the engines capture it once at start, before any join grows Workers.
func (c *Config) coordRing() int { return c.Capacity() }

// runMetrics bundles the training instruments both engines feed, resolved
// once at engine start so the hot path never touches the registry's lock.
// With a nil registry every instrument is nil, and every record is a no-op
// behind a single nil check.
type runMetrics struct {
	updates     *telemetry.Counter // model updates applied (credited beside Result.Updates)
	examples    *telemetry.Counter // examples dispatched to workers
	redispatch  *telemetry.Counter // batches re-routed after crash/timeout
	dropped     *telemetry.Counter // non-finite updates discarded by guards
	checkpoints *telemetry.Counter // run-state captures handed to the sink
	snapshots   *telemetry.Counter // model snapshots published for serving
	blocked     *telemetry.Counter // dispatches deferred by the SSP staleness gate
	loss        *telemetry.Gauge   // latest evaluated loss
	epochs      *telemetry.Gauge   // fractional epochs completed
	staleMax    *telemetry.Gauge   // maximum per-update dispatch staleness so far

	elasticWorkers    *telemetry.Gauge   // current active-worker count
	elasticJoins      *telemetry.Counter // elastic workers admitted mid-run
	elasticLeaves     *telemetry.Counter // graceful departures started
	elasticEvictions  *telemetry.Counter // forced membership removals
	elasticRebalances *telemetry.Counter // scheduler rebalance passes after churn
}

func newRunMetrics(reg *telemetry.Registry) runMetrics {
	return runMetrics{
		updates:     reg.Counter("train_updates_total"),
		examples:    reg.Counter("train_examples_total"),
		redispatch:  reg.Counter("train_redispatches_total"),
		dropped:     reg.Counter("train_dropped_updates_total"),
		checkpoints: reg.Counter("train_checkpoints_total"),
		snapshots:   reg.Counter("train_snapshots_total"),
		blocked:     reg.Counter("train_blocked_dispatches_total"),
		loss:        reg.Gauge("train_loss"),
		epochs:      reg.Gauge("train_epochs"),
		staleMax:    reg.Gauge("train_staleness_max"),

		elasticWorkers:    reg.Gauge("elastic_workers"),
		elasticJoins:      reg.Counter("elastic_joins_total"),
		elasticLeaves:     reg.Counter("elastic_leaves_total"),
		elasticEvictions:  reg.Counter("elastic_evictions_total"),
		elasticRebalances: reg.Counter("elastic_rebalances_total"),
	}
}
