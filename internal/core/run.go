package core

import (
	"errors"
	"fmt"
	"time"

	"heterosgd/internal/data"
	"heterosgd/internal/elastic"
	"heterosgd/internal/metrics"
	"heterosgd/internal/nn"
	"heterosgd/internal/opt"
	"heterosgd/internal/telemetry"
)

// engine names an execution engine in the support table.
type engine uint8

const (
	engineSim engine = 1 << iota
	engineReal
	engineCluster
)

// engineRules is the one table of configurations an engine refuses: every
// algorithm × engine pair either runs or is rejected here, by rule rather
// than by omission.
var engineRules = []struct {
	on   engine
	when func(c *Config) bool
	msg  string
}{
	{engineReal | engineCluster,
		(*Config).costModelOnly,
		"core: AlgTensorFlow and AlgOmnivore are cost-model comparators — the same arithmetic as Hogbatch GPU and a round barrier, at different virtual times — and mean nothing on a wall clock (use RunSim)"},
	{engineReal | engineCluster,
		(*Config).svrgAnchor,
		"core: AlgSVRG is implemented on the simulated engine only (use RunSim)"},
	{engineReal | engineCluster,
		func(c *Config) bool { return c.StaleDamping != 0 },
		"core: StaleDamping is implemented on the simulated engine only (live workers do not count the updates their gradient missed; use RunSim)"},
	{engineCluster,
		(*Config).rounds,
		"core: AlgLocalSGD is not implemented on the cluster engine (its round barrier needs replica transfer, not deltas; use RunSim or RunReal)"},
	{engineCluster,
		(*Config).delayCompensated,
		"core: AlgDCASGD is not implemented on the cluster engine (delay compensation needs the dispatch-time params retained worker-side; use RunSim or RunReal)"},
	{engineCluster,
		func(c *Config) bool { return c.Optimizer != opt.KindSGD },
		"core: RunCluster supports plain SGD only (optimizer state is not replicated to workers)"},
	{engineCluster,
		func(c *Config) bool { return c.Resume != nil && c.Resume.Membership == nil },
		"core: RunCluster resume requires a membership-bearing checkpoint (written by a cluster run); this one has no membership section"},
	{engineCluster,
		func(c *Config) bool { return c.Elastic != nil || c.ElasticPolicy != nil },
		"core: RunCluster membership is transport-driven (workers join and leave on the wire); scripted plans and autoscale policies apply to RunSim and RunReal — set MaxWorkers above the initial count to admit live joiners"},
}

// supportedOn reports why engine e cannot run c, nil when it can: an invalid
// configuration runs nowhere, a valid one wherever no rule names it.
func (c *Config) supportedOn(e engine) error {
	if err := c.Validate(); err != nil {
		return err
	}
	return c.refusedBy(e)
}

// refusedBy returns the first engineRules refusal of c on engine e, nil when
// none applies.
func (c *Config) refusedBy(e engine) error {
	for _, r := range engineRules {
		if r.on&e != 0 && r.when(c) {
			return errors.New(r.msg)
		}
	}
	return nil
}

// ClusterAlgorithmNames lists the AlgorithmNames entries RunCluster runs:
// those no engineRules row refuses on the cluster at NewConfig's defaults.
func ClusterAlgorithmNames() []string {
	var names []string
	for _, e := range algorithms {
		if (&Config{Algorithm: e.alg}).refusedBy(engineCluster) == nil {
			names = append(names, e.names[0])
		}
	}
	return names
}

// run is the state all three engines build the same way before their first
// dispatch and read back when assembling the Result: the model, the
// scheduling coordinator, the health/staleness/guard trackers, the elastic
// membership, and the instruments. The engines differ in how work reaches a
// worker and in what their clock means, not in any of this.
type run struct {
	cfg        *Config
	net        *nn.Network
	ds         *data.Dataset
	global     *nn.Params
	modelBytes int64
	coord      *coordinator
	tel        *telemetry.Tracer
	rm         runMetrics
	coordRing  int
	raw        *metrics.UpdateCounter
	util       *metrics.UtilizationTrace
	trace      *metrics.Trace
	events     *metrics.EventLog
	health     *healthTracker
	stale      *staleTracker
	guard      *guardState
	evalN      int
	evalWS     *nn.Workspace

	// mem is nil for fixed-membership runs; planCur walks the scripted plan.
	mem            *elastic.Membership
	planCur        *elastic.Cursor
	initialWorkers int
	// completed counts dispatches completed across every incarnation of the
	// run; scripted churn triggers and membership captures count against
	// it, so it resumes from the checkpoint rather than zero.
	completed int64

	lastBatch              []int
	batchTrace             []BatchEvent
	converged, interrupted bool
}

// newRun builds the run state for a validated cfg, restoring cfg.Resume when
// set. cfg is the engine's private copy: elastic joins append to its Workers.
func newRun(cfg *Config) (*run, error) {
	r := &run{
		cfg:       cfg,
		net:       cfg.Net,
		ds:        cfg.Dataset,
		global:    cfg.Net.NewParams(nn.InitXavier, cfg.newRNG()),
		coord:     newCoordinator(cfg),
		tel:       cfg.Tracer,
		rm:        newRunMetrics(cfg.Metrics),
		coordRing: cfg.coordRing(),
		raw:       metrics.NewUpdateCounter(),
		util:      metrics.NewUtilizationTrace(),
		trace:     &metrics.Trace{Name: cfg.Algorithm.String()},
		events:    metrics.NewEventLog(),
	}
	if cfg.InitialParams != nil {
		r.global.CopyFrom(cfg.InitialParams)
	}
	r.modelBytes = r.global.SizeBytes()
	r.raw.Mirror(r.rm.updates)
	r.health = newHealthTracker(cfg, r.events)
	r.coord.tracker = r.health
	r.stale = newStaleTracker(cfg, r.health, &r.rm)
	r.guard = newGuardState(cfg.Guards, r.global)

	// A membership-bearing checkpoint restores the worker set before the
	// model: per-worker tables grow to the checkpoint's slot count, departed
	// slots come back departed, and ids are never reused across the restart.
	r.initialWorkers = len(cfg.Workers)
	var ms *MembershipState
	if cfg.Resume != nil {
		ms = cfg.Resume.Membership
	}
	growForMembership(cfg, r.coord, r.health, r.stale)
	if err := restoreRun(cfg, r.coord, r.global, r.guard); err != nil {
		return nil, err
	}
	var err error
	switch {
	case ms != nil && (cfg.elasticEnabled() || len(ms.States) > r.initialWorkers || ms.ActiveCount() < len(ms.States)):
		// The checkpoint was captured mid-churn (or the restarted config is
		// itself elastic): rebuild the manager from the serialized states so
		// joins continue from the next unused id and the churn report
		// accumulates across the restart.
		r.mem, err = restoredMembership(ms)
	case cfg.elasticEnabled():
		r.mem, err = elastic.New(len(cfg.Workers), cfg.MinWorkers, cfg.Capacity())
	}
	if err != nil {
		return nil, err
	}
	if r.mem != nil {
		r.rm.elasticWorkers.Set(float64(r.mem.ActiveCount()))
	}
	if cfg.elasticEnabled() {
		r.planCur = cfg.Elastic.Begin()
	}
	if ms != nil {
		r.completed = ms.Dispatches
	}

	r.lastBatch = make([]int, len(cfg.Workers))
	r.evalN = r.ds.N()
	if cfg.EvalSubset > 0 && cfg.EvalSubset < r.evalN {
		r.evalN = cfg.EvalSubset
	}
	r.evalWS = r.net.NewWorkspace(r.evalN)
	return r, nil
}

// watchdogDeadline is the watchdog's bound on a dispatch of size examples to
// worker id — modeled iteration time × slack, floored — or 0 without one.
func (r *run) watchdogDeadline(id, size int) time.Duration {
	if r.cfg.Watchdog == nil {
		return 0
	}
	return watchdogDeadline(r.cfg.Watchdog, &r.cfg.Workers[id], r.net.Arch, size, r.modelBytes)
}

// name returns worker id's display name (device name; "<device>+<id>" for
// elastic joiners).
func (r *run) name(id int) string { return r.health.report.Workers[id].Worker }

// evalLoss evaluates the loss on the evaluation subset.
func (r *run) evalLoss(gemmWorkers int) float64 {
	v := r.ds.View(0, r.evalN)
	return r.net.LossX(r.global, r.evalWS, v.Input(), v.Y, gemmWorkers)
}

// record adds a loss sample to the trace and the live gauges.
func (r *run) record(at time.Duration, loss float64) {
	epoch := r.coord.epochFrac()
	r.trace.Add(at, epoch, loss)
	r.rm.loss.Set(loss)
	r.rm.epochs.Set(epoch)
}

// noteBatch records worker id's batch size in the batch trace when the
// adaptive policy changed it.
func (r *run) noteBatch(id int, at time.Duration) {
	if r.coord.batch[id] != r.lastBatch[id] {
		r.lastBatch[id] = r.coord.batch[id]
		r.batchTrace = append(r.batchTrace, BatchEvent{At: at, Worker: r.name(id), Size: r.coord.batch[id]})
	}
}

// captureState snapshots everything a RunState carries except the model
// copy and the membership section, which the engines add under their own
// read discipline.
func (r *run) captureState(at time.Duration) (*RunState, error) {
	st, err := r.coord.exportState()
	if err != nil {
		return nil, err
	}
	st.TotalUpdates = r.raw.Total()
	st.GuardLRScale = r.guard.scale()
	st.GuardRetries = r.guard.retryCount()
	st.Interrupted = r.interrupted
	st.At = at
	st.Events = r.events.Events()
	return st, nil
}

// drop records n updates of worker id the divergence guard discarded.
func (r *run) drop(id int, n int64, at time.Duration, kind, detail string) {
	r.health.report.DroppedUpdates += n
	r.rm.dropped.Add(n)
	r.events.Add(at, r.name(id), kind, detail)
}

// rebalanced restarts the adaptive comparators after a membership change.
func (r *run) rebalanced() {
	r.coord.rebalance()
	r.mem.RecordRebalance()
	r.rm.elasticRebalances.Inc()
}

// admit allocates the next membership slot for an elastic joiner and grows
// every per-worker table in lockstep (config, health, scheduler, SSP clock),
// then rebalances the adaptive comparators over the new set. The joiner's
// device clones the initial mix round-robin, and its SSP clock enters at the
// healthy minimum. ok is false when the membership bounds refuse the join.
func (r *run) admit(reason string, at time.Duration) (id int, ok bool) {
	id, err := r.mem.Join()
	if err != nil {
		r.events.Add(at, "", "join-refused", fmt.Sprintf("%s: %v", reason, err))
		return 0, false
	}
	wc := r.cfg.Workers[id%r.initialWorkers]
	r.cfg.Workers = append(r.cfg.Workers, wc)
	r.health.addWorker(fmt.Sprintf("%s+%d", wc.Device.Name(), id), at)
	r.coord.addWorker()
	r.stale.addWorker()
	r.lastBatch = append(r.lastBatch, 0)
	r.rebalanced()
	r.rm.elasticJoins.Inc()
	r.rm.elasticWorkers.Set(float64(r.mem.ActiveCount()))
	return id, true
}

// beginLeave starts worker id's graceful departure (no fresh dispatches; it
// retires once its in-flight work drains). false when the bounds refuse it.
func (r *run) beginLeave(id int, at time.Duration) bool {
	if err := r.mem.Leave(id); err != nil {
		r.events.Add(at, "", "leave-refused", err.Error())
		return false
	}
	r.events.Add(at, r.name(id), "leave", "graceful departure started")
	r.rm.elasticLeaves.Inc()
	return true
}

// beginEvict removes worker id from the membership at once — a departure,
// not a fault. false when the bounds refuse it.
func (r *run) beginEvict(id int, at time.Duration) bool {
	if err := r.mem.Evict(id); err != nil {
		r.events.Add(at, "", "evict-refused", err.Error())
		return false
	}
	r.rm.elasticEvictions.Inc()
	r.health.markDeparted(id, at, "evicted")
	return true
}

// retired records that a draining worker's graceful leave has completed.
func (r *run) retired(id int, at time.Duration) {
	r.health.markDeparted(id, at, "graceful leave drained")
	r.rm.elasticWorkers.Set(float64(r.mem.ActiveCount()))
}

// costliest returns the active healthy worker with the largest modeled
// iteration time at its current batch size (ties to the highest id) — the
// autoscale policy's marginal worker — and that time; -1 when none.
func (r *run) costliest() (victim int, cost time.Duration) {
	victim = -1
	for id := range r.cfg.Workers {
		if !r.mem.Active(id) || !r.health.ok(id) {
			continue
		}
		if it := r.cfg.Workers[id].Device.IterTime(r.net.Arch, r.coord.batch[id], r.modelBytes); victim < 0 || it >= cost {
			victim, cost = id, it
		}
	}
	return victim, cost
}

// result stamps the final loss sample and assembles the Result.
func (r *run) result(duration, overshoot, stamp time.Duration, final float64) *Result {
	r.record(stamp, final)
	if r.cfg.TargetLoss > 0 && isFinite(final) && final <= r.cfg.TargetLoss {
		r.converged = true
	}
	var churn *elastic.Report
	if r.mem != nil {
		churn = r.mem.Report()
	}
	return &Result{
		Algorithm:         r.cfg.Algorithm,
		Trace:             r.trace,
		Updates:           r.raw,
		Utilization:       r.util,
		Epochs:            r.coord.epochFrac(),
		Duration:          duration,
		Overshoot:         overshoot,
		FinalLoss:         final,
		MinLoss:           r.trace.MinLoss(),
		ExamplesProcessed: r.coord.examplesDone,
		FinalBatch:        append([]int(nil), r.coord.batch...),
		Resizes:           append([]int(nil), r.coord.resizes...),
		BatchTrace:        r.batchTrace,
		Converged:         r.converged,
		Params:            r.global,
		Health:            r.health.report,
		Events:            r.events,
		Checkpoint:        r.guard.snapshot(),
		Interrupted:       r.interrupted,
		Staleness:         r.stale.rep,
		Elastic:           churn,
	}
}
