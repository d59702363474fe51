// Package metrics collects and post-processes the measurements behind the
// paper's evaluation: loss-versus-time traces (Figure 5), loss-versus-epoch
// traces (Figure 6), per-device utilization over time (Figure 7), and the
// per-worker model-update distribution (Figure 8). It also implements the
// paper's normalization methodology (§VII-A): every loss is divided by the
// minimum loss achieved by any algorithm on the same workload.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// LossPoint is one loss observation, stamped with both the elapsed
// (virtual or wall) time and the fractional epoch at which it was taken.
type LossPoint struct {
	Time  time.Duration
	Epoch float64
	Loss  float64
}

// Trace is a named loss curve for one algorithm run.
type Trace struct {
	Name   string
	Points []LossPoint
}

// Add appends an observation.
func (t *Trace) Add(at time.Duration, epoch, loss float64) {
	t.Points = append(t.Points, LossPoint{Time: at, Epoch: epoch, Loss: loss})
}

// MinLoss returns the smallest recorded loss (+Inf when empty).
func (t *Trace) MinLoss() float64 {
	min := math.Inf(1)
	for _, p := range t.Points {
		if p.Loss < min {
			min = p.Loss
		}
	}
	return min
}

// FinalLoss returns the last recorded loss (+Inf when empty).
func (t *Trace) FinalLoss() float64 {
	if len(t.Points) == 0 {
		return math.Inf(1)
	}
	return t.Points[len(t.Points)-1].Loss
}

// TimeToReach returns the earliest time at which the trace's loss drops to
// target or below; ok is false if it never does.
func (t *Trace) TimeToReach(target float64) (time.Duration, bool) {
	for _, p := range t.Points {
		if p.Loss <= target {
			return p.Time, true
		}
	}
	return 0, false
}

// EpochsToReach returns the earliest epoch at which the loss drops to
// target or below; ok is false if it never does.
func (t *Trace) EpochsToReach(target float64) (float64, bool) {
	for _, p := range t.Points {
		if p.Loss <= target {
			return p.Epoch, true
		}
	}
	return 0, false
}

// GlobalMinLoss returns the minimum loss across all traces — the paper's
// normalization basis.
func GlobalMinLoss(traces []*Trace) float64 {
	min := math.Inf(1)
	for _, t := range traces {
		if m := t.MinLoss(); m < min {
			min = m
		}
	}
	return min
}

// Normalize divides every loss in every trace by base, in place, and
// returns the traces. Following §VII-A, base is usually GlobalMinLoss so
// the best algorithm bottoms out at 1.0.
func Normalize(traces []*Trace, base float64) []*Trace {
	if base == 0 || math.IsInf(base, 0) || math.IsNaN(base) {
		return traces
	}
	for _, t := range traces {
		for i := range t.Points {
			t.Points[i].Loss /= base
		}
	}
	return traces
}

// UpdateCounter tracks the number of model updates performed by each worker
// (Figure 8). It is not safe for concurrent use: a run's coordinator is its
// only writer, and its readers come after the run.
type UpdateCounter struct {
	counts map[string]int64
}

// NewUpdateCounter returns an empty counter.
func NewUpdateCounter() *UpdateCounter {
	return &UpdateCounter{counts: make(map[string]int64)}
}

// Add credits worker with n updates.
func (c *UpdateCounter) Add(worker string, n int64) {
	c.counts[worker] += n
}

// Get returns worker's update count.
func (c *UpdateCounter) Get(worker string) int64 {
	return c.counts[worker]
}

// Total returns the sum over all workers.
func (c *UpdateCounter) Total() int64 {
	var sum int64
	for _, v := range c.counts {
		sum += v
	}
	return sum
}

// Snapshot returns a copy of the per-worker counts.
func (c *UpdateCounter) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}

// Share returns worker's fraction of all updates (0 when nothing recorded).
func (c *UpdateCounter) Share(worker string) float64 {
	sum := c.Total()
	if sum == 0 {
		return 0
	}
	return float64(c.counts[worker]) / float64(sum)
}

// Event is one timestamped fault-tolerance incident: a worker crash,
// watchdog timeout, batch re-dispatch, quarantine readmission, dropped
// non-finite update, checkpoint, or rollback.
type Event struct {
	// At is the elapsed (virtual or wall) time of the incident.
	At time.Duration
	// Worker names the device involved ("" for run-level events).
	Worker string
	// Kind classifies the incident ("crash", "timeout", "redispatch",
	// "readmit", "drop", "checkpoint", "rollback", "diverged").
	Kind string
	// Detail carries free-form context for logs.
	Detail string
}

// EventLog records fault-tolerance incidents in occurrence order. Like
// UpdateCounter it has one writer, the run's coordinator.
type EventLog struct {
	events []Event
}

// NewEventLog returns an empty log.
func NewEventLog() *EventLog { return &EventLog{} }

// Add appends an incident.
func (l *EventLog) Add(at time.Duration, worker, kind, detail string) {
	l.events = append(l.events, Event{At: at, Worker: worker, Kind: kind, Detail: detail})
}

// AddEvent appends a pre-built incident — resume seeds the log with the
// checkpoint's history so a restarted run's audit trail spans every
// incarnation.
func (l *EventLog) AddEvent(e Event) {
	l.events = append(l.events, e)
}

// Events returns a copy of the recorded incidents.
func (l *EventLog) Events() []Event {
	return append([]Event(nil), l.events...)
}

// Count returns the number of incidents of the given kind.
func (l *EventLog) Count(kind string) int {
	n := 0
	for _, e := range l.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// String renders the log one incident per line.
func (l *EventLog) String() string {
	var b strings.Builder
	for _, e := range l.events {
		fmt.Fprintf(&b, "%12v %-8s %-10s %s\n", e.At.Round(time.Microsecond), e.Worker, e.Kind, e.Detail)
	}
	return b.String()
}

// busyInterval is a device-busy span weighted by achieved efficiency.
type busyInterval struct {
	from, to time.Duration
	weight   float64
}

// UtilizationTrace records weighted busy intervals per device and bins them
// into a utilization-versus-time series (Figure 7). Like UpdateCounter it has
// one writer, the run's coordinator.
type UtilizationTrace struct {
	intervals map[string][]busyInterval
}

// NewUtilizationTrace returns an empty trace.
func NewUtilizationTrace() *UtilizationTrace {
	return &UtilizationTrace{intervals: make(map[string][]busyInterval)}
}

// AddBusy records that device was busy on [from, to) achieving the given
// efficiency (0–1) of its peak.
func (u *UtilizationTrace) AddBusy(device string, from, to time.Duration, efficiency float64) {
	if to <= from {
		return
	}
	u.intervals[device] = append(u.intervals[device], busyInterval{from, to, efficiency})
}

// Devices returns the recorded device names, sorted.
func (u *UtilizationTrace) Devices() []string {
	names := make([]string, 0, len(u.intervals))
	for k := range u.intervals {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Series bins device's weighted busy time into bins of width bin over
// [0, horizon) and returns the per-bin utilization fractions.
func (u *UtilizationTrace) Series(device string, horizon, bin time.Duration) []float64 {
	if bin <= 0 || horizon <= 0 {
		return nil
	}
	n := int((horizon + bin - 1) / bin)
	out := make([]float64, n)
	for _, s := range u.intervals[device] {
		lo, hi := s.from, s.to
		if hi > horizon {
			hi = horizon
		}
		for b := int(lo / bin); b < n; b++ {
			bStart := time.Duration(b) * bin
			bEnd := bStart + bin
			if bStart >= hi {
				break
			}
			ov := overlap(lo, hi, bStart, bEnd)
			out[b] += s.weight * ov.Seconds() / bin.Seconds()
		}
	}
	for i, v := range out {
		if v > 1 {
			out[i] = 1
		}
	}
	return out
}

// MeanUtilization returns device's average utilization over [0, horizon).
func (u *UtilizationTrace) MeanUtilization(device string, horizon time.Duration) float64 {
	series := u.Series(device, horizon, horizon/100+1)
	if len(series) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range series {
		sum += v
	}
	return sum / float64(len(series))
}

func overlap(aLo, aHi, bLo, bHi time.Duration) time.Duration {
	lo, hi := aLo, aHi
	if bLo > lo {
		lo = bLo
	}
	if bHi < hi {
		hi = bHi
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// CSV renders traces as "time_s,epoch,loss" blocks, one per trace, suitable
// for plotting the paper's figures externally.
func CSV(traces []*Trace) string {
	var b strings.Builder
	for _, t := range traces {
		fmt.Fprintf(&b, "# %s\n", t.Name)
		b.WriteString("time_s,epoch,loss\n")
		for _, p := range t.Points {
			fmt.Fprintf(&b, "%.6f,%.4f,%.6f\n", p.Time.Seconds(), p.Epoch, p.Loss)
		}
	}
	return b.String()
}

// ASCIIChart renders traces as a terminal line chart of loss versus the
// chosen x-axis. Each trace is drawn with its own glyph; the legend maps
// glyphs to trace names. xEpochs selects the epoch axis instead of time.
func ASCIIChart(traces []*Trace, width, height int, xEpochs bool, title string) string {
	if width < 20 {
		width = 20
	}
	if height < 5 {
		height = 5
	}
	glyphs := []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}

	xMax, yMin, yMax := 0.0, math.Inf(1), math.Inf(-1)
	for _, t := range traces {
		for _, p := range t.Points {
			x := p.Time.Seconds()
			if xEpochs {
				x = p.Epoch
			}
			if x > xMax {
				xMax = x
			}
			if p.Loss < yMin {
				yMin = p.Loss
			}
			if p.Loss > yMax {
				yMax = p.Loss
			}
		}
	}
	if xMax == 0 || math.IsInf(yMin, 0) {
		return title + " (no data)\n"
	}
	if yMax == yMin {
		yMax = yMin + 1
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for ti, t := range traces {
		g := glyphs[ti%len(glyphs)]
		for _, p := range t.Points {
			x := p.Time.Seconds()
			if xEpochs {
				x = p.Epoch
			}
			col := int(x / xMax * float64(width-1))
			row := int((yMax - p.Loss) / (yMax - yMin) * float64(height-1))
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = g
			}
		}
	}

	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%8.3f ┤\n", yMax)
	for _, row := range grid {
		b.WriteString("         │")
		b.Write(row)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%8.3f ┼%s\n", yMin, strings.Repeat("─", width))
	xLabel := "seconds"
	if xEpochs {
		xLabel = "epochs"
	}
	fmt.Fprintf(&b, "          0 … %.3g %s\n", xMax, xLabel)
	for ti, t := range traces {
		fmt.Fprintf(&b, "          %c %s\n", glyphs[ti%len(glyphs)], t.Name)
	}
	return b.String()
}
