package faults

import (
	"fmt"
	"strings"
	"time"

	"heterosgd/internal/spec"
)

// ProcPlan scripts process-level failures for a chaos drill: real worker
// and coordinator processes are SIGKILLed at protocol-event triggers and the
// cluster is restarted from its last checkpoint. Unlike Plan, whose faults
// fire inside a live engine, a ProcPlan is executed by an external drill
// runner (cmd/hogcluster -chaos) that spawns, kills, and respawns whole
// processes — the in-process recovery machinery never sees the fault coming,
// which is the point. The zero ProcPlan (and a nil *ProcPlan) kills nothing.
type ProcPlan struct {
	// KillWorkers lists worker processes to SIGKILL mid-run.
	KillWorkers []KillWorker
	// KillCoordinator, when non-nil, SIGKILLs the coordinator process
	// immediately after it checkpoints at the trigger epoch.
	KillCoordinator *KillCoordinator
	// RestartDelay is how long the drill waits after the cluster is down
	// before restarting the coordinator with -resume (simulating the gap a
	// supervisor would take to notice and act). Zero restarts immediately.
	RestartDelay time.Duration
}

// KillWorker SIGKILLs one worker process after it has received AfterFrames
// dispatches — from the coordinator's point of view, a hard crash with a
// batch in flight.
type KillWorker struct {
	// Worker is the target's slot id in the initial worker set.
	Worker int
	// AfterFrames is the 1-based dispatch count at which the process dies
	// (the fatal dispatch is received but never completed).
	AfterFrames int
}

// KillCoordinator SIGKILLs the coordinator process right after its
// checkpoint at the trigger epoch lands on disk — the crash window where
// durable state exists but no goodbye was ever sent to the workers.
type KillCoordinator struct {
	// AtEpoch is the barrier epoch whose checkpoint triggers the kill.
	AtEpoch int
}

// Validate checks the plan against the drill's worker count. It is
// nil-safe.
func (p *ProcPlan) Validate(numWorkers int) error {
	if p == nil {
		return nil
	}
	for i, k := range p.KillWorkers {
		if k.Worker < 0 || k.Worker >= numWorkers {
			return fmt.Errorf("faults: proc kill %d targets worker %d of %d", i, k.Worker, numWorkers)
		}
		if k.AfterFrames <= 0 {
			return fmt.Errorf("faults: proc kill %d has non-positive trigger %d", i, k.AfterFrames)
		}
	}
	if p.KillCoordinator != nil && p.KillCoordinator.AtEpoch <= 0 {
		return fmt.Errorf("faults: coordinator kill at non-positive epoch %d", p.KillCoordinator.AtEpoch)
	}
	if p.RestartDelay < 0 {
		return fmt.Errorf("faults: negative restart delay %v", p.RestartDelay)
	}
	return nil
}

// String renders the plan in ParseProcPlan syntax.
func (p *ProcPlan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	for _, k := range p.KillWorkers {
		parts = append(parts, fmt.Sprintf("kill-worker:%d:%d", k.Worker, k.AfterFrames))
	}
	if p.KillCoordinator != nil {
		parts = append(parts, fmt.Sprintf("kill-coord:%d", p.KillCoordinator.AtEpoch))
	}
	if p.RestartDelay > 0 {
		parts = append(parts, fmt.Sprintf("restart:%v", p.RestartDelay))
	}
	return strings.Join(parts, ",")
}

// ParseProcPlan reads a comma-separated process-fault list:
//
//	kill-worker:WORKER:FRAMES   SIGKILL worker process on its FRAMES-th dispatch
//	kill-coord:EPOCH            SIGKILL coordinator after its epoch-EPOCH checkpoint
//	restart:DURATION            wait DURATION before restarting with -resume
//
// e.g. "kill-worker:1:30,kill-coord:2,restart:300ms". An empty spec returns
// a nil plan; at most one kill-coord and one restart entry are allowed.
func ParseProcPlan(s string) (*ProcPlan, error) {
	return spec.Parse("faults", s, &ProcPlan{}, func(p *ProcPlan, e *spec.Entry) error {
		switch e.Kind {
		case "kill-worker":
			e.Want("kill-worker:WORKER:FRAMES")
			p.KillWorkers = append(p.KillWorkers, KillWorker{Worker: e.Int(1, "worker"), AfterFrames: e.Int(2, "trigger")})
		case "kill-coord":
			if p.KillCoordinator != nil {
				return fmt.Errorf("faults: duplicate kill-coord in %q", s)
			}
			e.Want("kill-coord:EPOCH")
			p.KillCoordinator = &KillCoordinator{AtEpoch: e.Int(1, "epoch")}
		case "restart":
			if p.RestartDelay > 0 {
				return fmt.Errorf("faults: duplicate restart in %q", s)
			}
			e.Want("restart:DURATION")
			p.RestartDelay = e.Duration(1, "duration")
		default:
			return e.Unknown("proc fault kind")
		}
		return nil
	})
}
