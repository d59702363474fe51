// Package elastic describes runtime worker-set changes for the training
// engines: scripted membership plans in the style of internal/faults for
// deterministic churn tests, a pluggable autoscale policy that decides
// grow/shrink from load telemetry, and the churn Report a run returns.
//
// The paper's Algorithm 2 adapts batch sizes to a fixed heterogeneous
// worker set; the authors' follow-up (arXiv:2110.07029) adapts the worker
// set itself. This package is the description half of that extension: the
// engines' coordinator keeps the one per-worker lifecycle table (core's
// health tracker) that applies these changes, enforces the bounds, and
// fills in the Report.
package elastic

import (
	"fmt"
	"sort"

	"heterosgd/internal/spec"
)

// Report is the churn accounting for one run.
type Report struct {
	// Joins, Leaves, and Evictions count membership transitions: a join
	// admits a fresh worker, a leave starts a graceful drain, an eviction
	// forces a worker out without draining.
	Joins, Leaves, Evictions int
	// Rebalances counts scheduler rebalance passes triggered by
	// membership changes (Algorithm-2 counters and LR scaling recomputed
	// over the new active set).
	Rebalances int
	// Peak and Final are the largest and ending active-worker counts.
	Peak, Final int
}

// Churned reports whether membership changed at all during the run.
func (r *Report) Churned() bool {
	if r == nil {
		return false
	}
	return r.Joins > 0 || r.Leaves > 0 || r.Evictions > 0
}

// String renders a one-line summary.
func (r *Report) String() string {
	if r == nil {
		return "elastic: disabled"
	}
	return fmt.Sprintf("elastic: %d workers at end (peak %d); %d joins, %d leaves, %d evictions, %d rebalances",
		r.Final, r.Peak, r.Joins, r.Leaves, r.Evictions, r.Rebalances)
}

// EventKind identifies a scripted membership change.
type EventKind int

const (
	// EventJoin admits a fresh worker (its id is assigned at join time).
	EventJoin EventKind = iota
	// EventLeave starts a graceful drain of a named worker.
	EventLeave
	// EventEvict forces a named worker out without draining.
	EventEvict
)

var eventKindNames = [...]string{EventJoin: "join", EventLeave: "leave", EventEvict: "evict"}

// String returns the event-kind name used by Parse.
func (k EventKind) String() string {
	if k >= 0 && int(k) < len(eventKindNames) && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is one scripted membership change. After counts completed
// dispatches across the whole run — a protocol event, never wall time — so
// a plan replays identically on the deterministic sim engine and
// reproducibly on the wall-clock engines.
type Event struct {
	// Kind selects the membership change.
	Kind EventKind
	// Worker is the target id for EventLeave/EventEvict (ignored for
	// EventJoin: joiners are assigned the next fresh id).
	Worker int
	// After is the completed-dispatch count that triggers the event.
	After int64
}

// String renders the event in Parse syntax.
func (e Event) String() string {
	if e.Kind == EventJoin {
		return fmt.Sprintf("join:%d", e.After)
	}
	return fmt.Sprintf("%s:%d:%d", e.Kind, e.Worker, e.After)
}

// JoinAt schedules a fresh worker join after n completed dispatches.
func JoinAt(n int64) Event { return Event{Kind: EventJoin, After: n} }

// LeaveAt schedules a graceful leave of worker after n completed dispatches.
func LeaveAt(worker int, n int64) Event {
	return Event{Kind: EventLeave, Worker: worker, After: n}
}

// EvictAt schedules a forced eviction of worker after n completed
// dispatches.
func EvictAt(worker int, n int64) Event {
	return Event{Kind: EventEvict, Worker: worker, After: n}
}

// Plan is a scripted, deterministic membership schedule for one run. The
// zero Plan (and a nil *Plan) changes nothing.
type Plan struct {
	// Seed keeps plan identity stable across runs for reporting parity
	// with faults.Plan; the schedule itself is fully scripted.
	Seed uint64
	// Events lists the membership changes.
	Events []Event
}

// NewPlan assembles a plan from events.
func NewPlan(seed uint64, evs ...Event) *Plan {
	return &Plan{Seed: seed, Events: evs}
}

// Joins returns the number of scripted join events — the extra capacity the
// run must provision beyond its initial workers.
func (p *Plan) Joins() int {
	if p == nil {
		return 0
	}
	n := 0
	for _, e := range p.Events {
		if e.Kind == EventJoin {
			n++
		}
	}
	return n
}

// Validate checks the plan against the run's initial worker count: every
// leave/evict must target an id that exists by the time it fires (initial
// workers plus joiners scheduled no later). Nil-safe.
func (p *Plan) Validate(initialWorkers int) error {
	if p == nil {
		return nil
	}
	for i, e := range p.Events {
		if e.After < 0 {
			return fmt.Errorf("elastic: event %d has negative trigger %d", i, e.After)
		}
		switch e.Kind {
		case EventJoin:
		case EventLeave, EventEvict:
			avail := initialWorkers
			for _, o := range p.Events {
				if o.Kind == EventJoin && o.After <= e.After {
					avail++
				}
			}
			if e.Worker < 0 || e.Worker >= avail {
				return fmt.Errorf("elastic: event %d (%s) targets worker %d, but only %d ids can exist by dispatch %d",
					i, e, e.Worker, avail, e.After)
			}
		default:
			return fmt.Errorf("elastic: event %d has unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// String renders the plan in Parse syntax.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	return spec.Join(p.Events)
}

// Parse reads a comma-separated membership schedule:
//
//	join:AFTER           fresh worker joins after AFTER completed dispatches
//	leave:WORKER:AFTER   WORKER drains gracefully after AFTER completed dispatches
//	evict:WORKER:AFTER   WORKER is forced out after AFTER completed dispatches
//
// e.g. "join:25,leave:1:60". An empty spec returns a nil plan.
func Parse(s string) (*Plan, error) {
	return spec.Parse("elastic", s, &Plan{Seed: 1}, func(p *Plan, e *spec.Entry) error {
		switch e.Kind {
		case "join":
			e.Want("join:AFTER")
			p.Events = append(p.Events, JoinAt(e.Int64(1, "trigger")))
		case "leave":
			e.Want("leave:WORKER:AFTER")
			p.Events = append(p.Events, LeaveAt(e.Int(1, "worker"), e.Int64(2, "trigger")))
		case "evict":
			e.Want("evict:WORKER:AFTER")
			p.Events = append(p.Events, EvictAt(e.Int(1, "worker"), e.Int64(2, "trigger")))
		default:
			return e.Unknown("membership event")
		}
		return nil
	})
}

// Cursor walks a plan's events in trigger order as the run's completed
// dispatch count advances. A nil cursor (from a nil plan) never fires.
type Cursor struct {
	events []Event
	next   int
}

// Begin returns a cursor over the plan's events, stably ordered by trigger
// (equal triggers fire in plan order). Nil-safe.
func (p *Plan) Begin() *Cursor {
	if p == nil || len(p.Events) == 0 {
		return nil
	}
	evs := append([]Event(nil), p.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].After < evs[j].After })
	return &Cursor{events: evs}
}

// Fire returns the events whose trigger has been reached by completed total
// dispatches, each at most once, in order. Nil-safe.
func (c *Cursor) Fire(completed int64) []Event {
	if c == nil {
		return nil
	}
	var out []Event
	for c.next < len(c.events) && c.events[c.next].After <= completed {
		out = append(out, c.events[c.next])
		c.next++
	}
	return out
}
