package core

import (
	"errors"
	"fmt"
	"time"

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

// watchdogDeadline is the watchdog's bound on a dispatch of size examples to
// worker id — modeled iteration time × slack, floored — or 0 without one.
func (l *coordLoop) watchdogDeadline(id, size int) time.Duration {
	if l.cfg.Watchdog == nil {
		return 0
	}
	return watchdogDeadline(l.cfg.Watchdog, &l.cfg.Workers[id], l.net.Arch, size, l.modelBytes)
}

// name returns worker id's display name (device name; "<device>+<id>" for
// elastic joiners).
func (l *coordLoop) name(id int) string { return l.health.report.Workers[id].Worker }

// evalLoss evaluates the loss on the evaluation subset.
func (l *coordLoop) evalLoss() float64 {
	v := l.ds.View(0, l.evalN)
	return l.net.LossX(l.global, l.evalWS, v.Input(), v.Y, l.step.gemm)
}

// noteBatch records worker id's batch size in the batch trace when the
// adaptive policy changed it.
func (l *coordLoop) noteBatch(id int) {
	if l.coord.batch[id] != l.lastBatch[id] {
		l.lastBatch[id] = l.coord.batch[id]
		l.rec.batches = append(l.rec.batches, BatchEvent{At: l.elapsed(), Worker: l.name(id), Size: l.coord.batch[id]})
	}
}

// drop records n updates of worker id the divergence guard discarded.
func (l *coordLoop) drop(id int, n int64, kind, detail string) {
	l.health.report.DroppedUpdates += n
	l.rm.dropped.Add(n)
	l.rec.log(l.elapsed(), l.name(id), kind, detail)
}

// rebalanced restarts the adaptive comparators after a membership change,
// which it counts on change.
func (l *coordLoop) rebalanced(change *telemetry.Counter) {
	l.coord.rebalance()
	l.rm.elasticRebalances.Inc()
	change.Inc()
}

// addSlot grows every per-worker table to worker id, the next slot — config,
// health, scheduler, SSP clock, update count, batch trace and dispatch state
// — for a live joiner and for a joiner a mid-churn checkpoint restores alike,
// and logs kind ("join" or "restore") for it. The joiner clones the seed
// device mix round-robin, and its SSP clock enters at the healthy minimum.
func (l *coordLoop) addSlot(id int, at time.Duration, kind, detail string) {
	wc := l.cfg.Workers[id%l.initialWorkers]
	l.cfg.Workers = append(l.cfg.Workers, wc)
	name := fmt.Sprintf("%s+%d", wc.Device.Name(), id)
	l.rec.log(at, name, kind, fmt.Sprintf("elastic worker %d %s", id, detail))
	l.health.addWorker(name)
	l.coord.addWorker()
	l.stale.addWorker()
	l.rec.raw = append(l.rec.raw, 0)
	l.lastBatch = append(l.lastBatch, 0)
	l.busy = append(l.busy, false)
	l.feed = append(l.feed, nil)
}

// costliest returns the healthy worker with the largest modeled
// iteration time at its current batch size (ties to the highest id) — the
// autoscale policy's marginal worker — and that time; -1 when none.
func (l *coordLoop) costliest() (victim int, cost time.Duration) {
	victim = -1
	for id := range l.cfg.Workers {
		if !l.health.ok(id) {
			continue
		}
		if it := l.cfg.Workers[id].Device.IterTime(l.net.Arch, l.coord.batch[id], l.modelBytes); victim < 0 || it >= cost {
			victim, cost = id, it
		}
	}
	return victim, cost
}
