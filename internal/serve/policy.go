package serve

import (
	"fmt"
	"math"

	"heterosgd/internal/device"
	"heterosgd/internal/elastic"
	"heterosgd/internal/nn"
	"heterosgd/internal/telemetry"
)

// PolicyConfig bounds an AdaptivePolicy and names the cost model it judges
// a doubling on.
type PolicyConfig struct {
	// Min and Max clamp the micro-batch ceiling. Min defaults to 1; Max is
	// raised to Min when smaller.
	Min, Max int
	// Dev and Arch feed the efficiency model (device.Device.IterTime with
	// zero model bytes, i.e. pure compute cost per batch).
	Dev  device.Device
	Arch nn.Arch
}

func (c PolicyConfig) withDefaults() PolicyConfig {
	if c.Min < 1 {
		c.Min = 1
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	return c
}

// The controller's fixed tuning.
const (
	// policyCadence is the number of served batches aggregated into one
	// decision window. The policy is windowed by batch count, not by wall
	// clock, so it is exactly reproducible from an arrival trace.
	policyCadence = 16
	// shrinkFill is the mean batch-fill fraction (mean batch size / ceiling)
	// at or below which a window without queue pressure signals shrink.
	// Growth is driven by backlog, not fill: at some point in the window the
	// admission queue must have held at least a full ceiling's worth of
	// waiting requests. Batch fill alone proves nothing in either direction
	// on a loaded single-core box — at ceiling 1 every batch is trivially
	// full (growing on that would tax idle traffic with MaxWait coalescing
	// latency for nothing), and under heavy load scheduling jitter keeps
	// measured fill well below 1 even while the queue is backed up. A shrink
	// additionally requires the backlog to have vanished, so the two signals
	// cannot fire on the same window.
	shrinkFill = 0.35
	// gainEps is the modeled per-example efficiency gain required of a
	// doubling before the policy grows: grow only while
	// cost(b)/cost(2b) ≥ 1+gainEps on the device cost model. This is what
	// makes the ceiling converge to the cost-model optimum instead of
	// climbing to Max under any sustained load.
	gainEps = 0.05
	// p99Factor blocks growth when the window's p99 exceeds p99Factor × the
	// previous window's p99 — batching latency is already deteriorating, so
	// buying more per-example efficiency with even longer coalescing waits
	// would trade away the tail the controller exists to protect. The p99
	// comes from the power-of-two latency histogram, whose adjacent bucket
	// midpoints differ by exactly 2×, so the factor must exceed 2 or
	// single-bucket jitter between windows blocks growth forever; 4
	// tolerates one-bucket moves and blocks on two or more.
	p99Factor = 4
)

// soloBatchMean is the mean batch size at or below which a window reads as
// "no coalescing": essentially every batch held a single request. Kept just
// above 1 so an isolated two-request batch doesn't mask an idle window.
const soloBatchMean = 1.05

// AdaptivePolicy adjusts the serving micro-batch ceiling from telemetry: it
// grows the ceiling while requests queue up behind it, the device cost model
// still promises a per-example win from doubling, and the latency tail is
// not deteriorating; it shrinks when the backlog is gone and batches run
// mostly empty (a large ceiling then only adds MaxWait coalescing latency).
// An elastic.Debounce requires the same raw signal across consecutive windows
// before acting, so one bursty window cannot thrash the ceiling.
//
// The policy is deterministic and wall-clock free — windows advance by served
// batch count and every input is an explicit argument — so its behaviour is
// exactly reproducible from a synthetic arrival trace. It is not safe for
// concurrent use; the Batcher serializes access.
type AdaptivePolicy struct {
	cfg  PolicyConfig
	ceil int

	// Current window accumulation.
	batches   int
	examples  int64
	queueHigh bool

	debounce elastic.Debounce

	prevP99 float64
	changes int64
}

// NewAdaptivePolicy returns a policy starting at cfg.Min — the ceiling ramps
// up under demonstrated load instead of starting wide and shedding.
func NewAdaptivePolicy(cfg PolicyConfig) *AdaptivePolicy {
	cfg = cfg.withDefaults()
	return &AdaptivePolicy{cfg: cfg, ceil: cfg.Min}
}

// Ceiling returns the current micro-batch ceiling.
func (p *AdaptivePolicy) Ceiling() int { return p.ceil }

// Changes returns how many times the ceiling has moved.
func (p *AdaptivePolicy) Changes() int64 { return p.changes }

// String describes the policy's configuration and current ceiling.
func (p *AdaptivePolicy) String() string {
	return fmt.Sprintf("adaptive(ceil %d in [%d,%d], cadence %d, hysteresis %d)",
		p.ceil, p.cfg.Min, p.cfg.Max, policyCadence, elastic.DebounceWindows)
}

// Observe folds one served batch into the current decision window and
// reports whether the window is complete. When it returns true the caller
// computes the window's p99 latency and calls Decide.
func (p *AdaptivePolicy) Observe(batchSize, queueDepth int) bool {
	p.batches++
	p.examples += int64(batchSize)
	if queueDepth >= p.ceil {
		p.queueHigh = true
	}
	return p.batches >= policyCadence
}

// Decide closes the current window and returns the (possibly unchanged)
// ceiling plus whether it moved. windowP99Ms is the p99 latency of requests
// completed during the window (0 when unknown; an unknown tail never blocks
// growth).
func (p *AdaptivePolicy) Decide(windowP99Ms float64) (ceil int, changed bool) {
	fill, mean := 0.0, 0.0
	if p.batches > 0 {
		mean = float64(p.examples) / float64(p.batches)
		fill = mean / float64(p.ceil)
	}
	queueHigh := p.queueHigh
	p.batches, p.examples, p.queueHigh = 0, 0, false
	prev := p.prevP99
	p.prevP99 = windowP99Ms

	raw := elastic.Hold
	switch {
	case queueHigh && p.ceil < p.cfg.Max &&
		modelGain(p.cfg.Dev, p.cfg.Arch, p.ceil) >= 1+gainEps &&
		(prev == 0 || windowP99Ms == 0 || windowP99Ms <= p99Factor*prev):
		raw = elastic.Grow
	case !queueHigh && (fill <= shrinkFill || mean <= soloBatchMean) && p.ceil > p.cfg.Min:
		// No backlog and underfilled, or batches average a lone request —
		// the latter matters at small ceilings where the minimum
		// representable fill (1/ceiling) already exceeds shrinkFill, e.g.
		// fill 0.5 at ceiling 2. No coalescing is happening, so the
		// ceiling only buys MaxWait latency.
		raw = elastic.Shrink
	}
	switch p.debounce.Confirm(raw) {
	case elastic.Hold:
		return p.ceil, false
	case elastic.Grow:
		p.ceil = min(p.ceil*2, p.cfg.Max)
	default:
		p.ceil = max(p.ceil/2, p.cfg.Min)
	}
	p.changes++
	return p.ceil, true
}

// modelGain is the modeled per-example efficiency ratio of doubling the
// batch: cost-per-example at b over cost-per-example at 2b. Values above 1
// mean doubling still buys throughput on the device cost model.
func modelGain(dev device.Device, arch nn.Arch, b int) float64 {
	if dev == nil || b < 1 {
		return 1
	}
	cb := dev.IterTime(arch, b, 0).Seconds() / float64(b)
	c2 := dev.IterTime(arch, 2*b, 0).Seconds() / float64(2*b)
	if c2 <= 0 {
		return 1
	}
	return cb / c2
}

// ModelOptimalBatch returns the ceiling a saturated AdaptivePolicy converges
// to: the smallest power-of-two multiple of min (clamped to max) whose
// modeled gain from doubling falls below 1+gainEps. Exported so tests and
// the load generator can compute the fixed point independently of the
// policy's trajectory.
func ModelOptimalBatch(dev device.Device, arch nn.Arch, minB, maxB int) int {
	cfg := PolicyConfig{Min: minB, Max: maxB}.withDefaults()
	b := cfg.Min
	for b < cfg.Max && modelGain(dev, arch, b) >= 1+gainEps {
		b = min(b*2, cfg.Max)
	}
	return b
}

// deltaQuantile computes the q-quantile over the difference of two histogram
// snapshots (cur − prev), i.e. the quantile of observations recorded between
// the snapshots, in milliseconds. Returns 0 for an empty window. Allocation
// free — snapshots are fixed-size arrays on the caller's stack.
func deltaQuantile(prev, cur *[telemetry.NumBuckets]int64, q float64) float64 {
	var total int64
	for i := range cur {
		total += cur[i] - prev[i]
	}
	if total <= 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range cur {
		seen += cur[i] - prev[i]
		if seen >= rank {
			return telemetry.BucketMidMs(i)
		}
	}
	return telemetry.BucketMidMs(telemetry.NumBuckets - 1)
}
