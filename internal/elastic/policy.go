package elastic

import (
	"fmt"
	"time"
)

// Decision is an autoscale policy's verdict for one load sample.
type Decision int

const (
	// Hold keeps the current worker set.
	Hold Decision = iota
	// Grow admits one more worker (bounded by the membership max).
	Grow
	// Shrink gracefully retires one worker (bounded by the membership min).
	Shrink
)

// String returns the decision name.
func (d Decision) String() string {
	switch d {
	case Hold:
		return "hold"
	case Grow:
		return "grow"
	case Shrink:
		return "shrink"
	default:
		return "unknown"
	}
}

// Sample is one load observation handed to a policy, aggregated by the
// engine since the previous sample (typically one epoch). QueueWait and
// Compute come from the span tracer's queue-wait and gradient spans (virtual
// time in sim, wall time in the real engine); MarginalCost comes from the
// device cost model for the worker the policy would add or retire.
type Sample struct {
	// Active is the current active-worker count; Min and Max are the
	// membership bounds.
	Active, Min, Max int
	// QueueWait is the mean time a dispatch spent waiting (inbox queue or
	// SSP gate) before compute started.
	QueueWait time.Duration
	// Compute is the mean compute span per dispatch.
	Compute time.Duration
	// MarginalCost is the modeled per-iteration cost of the marginal
	// worker (the one a Grow would add or a Shrink would retire).
	MarginalCost time.Duration
	// Dispatches is the number of completions aggregated into this sample;
	// zero-dispatch samples are ignored by the shipped policy.
	Dispatches int64
}

// Policy decides whether the worker set should grow, shrink, or hold for a
// load sample. Implementations may keep state (hysteresis); engines call
// Decide from the coordinator loop only.
type Policy interface {
	Decide(s Sample) Decision
	String() string
}

// LoadPolicy is the shipped telemetry-driven policy: it compares how long
// dispatches wait against how long they compute. When queue wait dominates
// compute, work is starving for workers and the set should grow; when queue
// wait is negligible and the marginal worker's modeled cost exceeds the
// observed compute span (it would finish after everyone else anyway), the
// set should shrink. Hysteresis requires the same raw signal on several
// consecutive samples before acting, so one noisy epoch cannot thrash
// membership.
type LoadPolicy struct {
	last   Decision
	streak int
}

// LoadPolicy's thresholds: grow when dispatches wait longer than growRatio
// of their compute time; shrink when waiting is under shrinkRatio of compute
// and the marginal worker is modeled at ≥ shrinkCostFactor × the observed
// mean compute span (the retiree is a straggler by the cost model's
// account); either only after loadHysteresis consecutive agreeing samples.
const (
	growRatio        = 0.5
	shrinkRatio      = 0.05
	shrinkCostFactor = 2.0
	loadHysteresis   = 2
)

// NewLoadPolicy returns the shipped policy.
func NewLoadPolicy() *LoadPolicy { return &LoadPolicy{} }

// String describes the policy's thresholds.
func (p *LoadPolicy) String() string {
	return fmt.Sprintf("load(grow>%.2g, shrink<%.2g, cost×%.2g, hysteresis %d)",
		growRatio, shrinkRatio, shrinkCostFactor, loadHysteresis)
}

// Decide implements Policy.
func (p *LoadPolicy) Decide(s Sample) Decision {
	if s.Active < s.Min {
		// Below the floor: refill immediately, no hysteresis.
		return Grow
	}
	raw := Hold
	if s.Dispatches > 0 && s.Compute > 0 {
		ratio := float64(s.QueueWait) / float64(s.Compute)
		switch {
		case ratio > growRatio && s.Active < s.Max:
			raw = Grow
		case ratio < shrinkRatio && s.Active > s.Min &&
			s.MarginalCost > shrinkCostFactor*s.Compute:
			raw = Shrink
		}
	}
	if raw == Hold {
		p.last, p.streak = Hold, 0
		return Hold
	}
	if raw == p.last {
		p.streak++
	} else {
		p.last, p.streak = raw, 1
	}
	if p.streak >= loadHysteresis {
		p.streak = 0
		return raw
	}
	return Hold
}
