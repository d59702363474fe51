package core

import "fmt"

// LRSchedule shapes the learning rate over training progress. The paper
// uses a constant rate chosen by grid search (§VII-A) and mentions
// decreasing the rate to compensate for stale gradients (§VI-B); warmup is
// the standard companion of the linear batch-scaling rule (Goyal et al.).
type LRSchedule int

const (
	// ScheduleConstant keeps the tuned rate throughout (paper default).
	ScheduleConstant LRSchedule = iota
	// ScheduleStep halves the rate every stepEvery epochs.
	ScheduleStep
	// ScheduleInvT decays the rate as 1/(1+decayRate·epoch).
	ScheduleInvT
	// ScheduleWarmup ramps linearly from 0 over warmupEpochs, then holds.
	ScheduleWarmup
)

// The schedules' shapes, in epochs.
const (
	stepEvery    = 5
	decayRate    = 0.1
	warmupEpochs = 1
)

var scheduleNames = [...]string{
	ScheduleConstant: "constant", ScheduleStep: "step", ScheduleInvT: "inv-t",
	ScheduleWarmup: "warmup",
}

// String returns the schedule name.
func (s LRSchedule) String() string {
	if s >= 0 && int(s) < len(scheduleNames) && scheduleNames[s] != "" {
		return scheduleNames[s]
	}
	return "unknown"
}

// ParseLRSchedule maps a name to a schedule.
func ParseLRSchedule(name string) (LRSchedule, error) {
	switch name {
	case "constant", "":
		return ScheduleConstant, nil
	case "step":
		return ScheduleStep, nil
	case "inv-t", "invt":
		return ScheduleInvT, nil
	case "warmup":
		return ScheduleWarmup, nil
	default:
		return 0, fmt.Errorf("core: unknown LR schedule %q", name)
	}
}

// ScheduledLR returns the learning rate for a batch of b examples at the
// given training progress (fractional epochs): the batch-scaled base rate
// shaped by the configured schedule.
func (c *Config) ScheduledLR(b int, epoch float64) float64 {
	lr := c.LRFor(b)
	switch c.Schedule {
	case ScheduleStep:
		for e := float64(stepEvery); e <= epoch; e += stepEvery {
			lr *= 0.5
		}
	case ScheduleInvT:
		lr /= 1 + float64(decayRate*epoch)
	case ScheduleWarmup:
		if epoch < warmupEpochs {
			frac := epoch / warmupEpochs
			// Never fully zero — the first batch must still move.
			if frac < 0.05 {
				frac = 0.05
			}
			lr *= frac
		}
	}
	return lr
}
