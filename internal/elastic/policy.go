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

var decisionNames = [...]string{Hold: "hold", Grow: "grow", Shrink: "shrink"}

// String returns the decision name.
func (d Decision) String() string {
	if d >= 0 && int(d) < len(decisionNames) && decisionNames[d] != "" {
		return decisionNames[d]
	}
	return "unknown"
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

// Debounce is the hysteresis every grow/shrink controller shares: a raw
// Grow or Shrink takes effect only once DebounceWindows consecutive windows
// have raised it, and a Hold window resets the streak, so one noisy window
// cannot thrash what it controls. LoadPolicy debounces membership with it,
// the serving batch controller its micro-batch ceiling.
type Debounce struct {
	last   Decision
	streak int
}

// DebounceWindows is how many consecutive agreeing windows a Debounce waits
// for before it acts.
const DebounceWindows = 2

// Confirm folds one window's raw signal into the streak and returns it when
// the streak is complete (starting the next one), Hold otherwise.
func (d *Debounce) Confirm(raw Decision) Decision {
	if raw == Hold {
		d.last, d.streak = Hold, 0
		return Hold
	}
	if raw == d.last {
		d.streak++
	} else {
		d.last, d.streak = raw, 1
	}
	if d.streak < DebounceWindows {
		return Hold
	}
	d.streak = 0
	return raw
}

// LoadPolicy is the shipped telemetry-driven policy: it compares how long
// dispatches wait against how long they compute. When queue wait dominates
// compute, work is starving for workers and the set should grow; when queue
// wait is negligible and the marginal worker's modeled cost exceeds the
// observed compute span (it would finish after everyone else anyway), the
// set should shrink. A Debounce requires the same raw signal on consecutive
// samples before acting, so one noisy epoch cannot thrash membership.
type LoadPolicy struct {
	debounce Debounce
}

// LoadPolicy's thresholds: grow when dispatches wait longer than growRatio
// of their compute time; shrink when waiting is under shrinkRatio of compute
// and the marginal worker is modeled at ≥ shrinkCostFactor × the observed
// mean compute span (the retiree is a straggler by the cost model's
// account); either only after DebounceWindows consecutive agreeing samples.
const (
	growRatio        = 0.5
	shrinkRatio      = 0.05
	shrinkCostFactor = 2.0
)

// NewLoadPolicy returns the shipped policy.
func NewLoadPolicy() *LoadPolicy { return &LoadPolicy{} }

// String describes the policy's thresholds.
func (p *LoadPolicy) String() string {
	return fmt.Sprintf("load(grow>%.2g, shrink<%.2g, cost×%.2g, hysteresis %d)",
		growRatio, shrinkRatio, shrinkCostFactor, DebounceWindows)
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
	return p.debounce.Confirm(raw)
}
