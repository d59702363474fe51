// Package faults provides seeded, deterministic fault plans for the
// training engines: worker crashes, hangs, and gradient corruption,
// injectable into both RunSim and RunReal via core.Config. The package
// exists so every recovery path in the fault-tolerance layer — panic
// recovery, watchdog re-dispatch, divergence guards — can be exercised by
// reproducible tests instead of waiting for real hardware to misbehave.
//
// A Plan is a list of per-worker Faults plus a seed. Engines obtain one
// Injector per worker; the injector is consulted once per dispatched
// iteration and answers deterministically: CrashAfter and HangAfter count
// iterations, CorruptGradient draws from a per-worker PCG stream seeded
// from the plan seed and the worker id, so a plan replays identically for
// a fixed seed regardless of scheduling order. Runtime slowdowns compose
// via device.Throttled, which wraps the worker's device model directly.
package faults

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"heterosgd/internal/nn"
	"heterosgd/internal/spec"
)

// Kind identifies a fault class.
type Kind int

const (
	// KindCrash makes the worker panic at the trigger iteration,
	// exercising panic recovery and batch re-dispatch.
	KindCrash Kind = iota
	// KindHang stalls the worker for a duration at the trigger iteration,
	// exercising the watchdog's timeout → quarantine → re-dispatch path.
	KindHang
	// KindCorrupt poisons the worker's gradient with NaNs at a seeded
	// rate, exercising the divergence guards.
	KindCorrupt
)

var kindNames = [...]string{KindCrash: "crash", KindHang: "hang", KindCorrupt: "corrupt"}

// String returns the fault-class name used by Parse.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Fault is one injected failure bound to a worker index.
type Fault struct {
	// Worker is the target worker's index in Config.Workers.
	Worker int
	// Kind selects the failure class.
	Kind Kind
	// After is the number of completed dispatches before the fault
	// triggers (crash and hang).
	After int64
	// Hang is the stall duration (KindHang only).
	Hang time.Duration
	// Rate is the per-iteration corruption probability (KindCorrupt only).
	Rate float64
}

// String renders the fault in Parse syntax.
func (f Fault) String() string {
	switch f.Kind {
	case KindCrash:
		return fmt.Sprintf("crash:%d:%d", f.Worker, f.After)
	case KindHang:
		return fmt.Sprintf("hang:%d:%d:%v", f.Worker, f.After, f.Hang)
	case KindCorrupt:
		return fmt.Sprintf("corrupt:%d:%g", f.Worker, f.Rate)
	default:
		return "unknown"
	}
}

// CrashAfter makes worker panic on its n-th dispatch (0-based: n completed
// iterations precede the crash).
func CrashAfter(worker int, n int64) Fault {
	return Fault{Worker: worker, Kind: KindCrash, After: n}
}

// HangAfter stalls worker for d on its n-th dispatch.
func HangAfter(worker int, n int64, d time.Duration) Fault {
	return Fault{Worker: worker, Kind: KindHang, After: n, Hang: d}
}

// CorruptGradient poisons worker's gradients with NaNs at the given
// per-iteration rate.
func CorruptGradient(worker int, rate float64) Fault {
	return Fault{Worker: worker, Kind: KindCorrupt, Rate: rate}
}

// Plan is a seeded, deterministic set of faults for one training run. The
// zero Plan (and a nil *Plan) injects nothing.
type Plan struct {
	// Seed drives the corruption streams; plans with equal seeds and
	// faults replay identically.
	Seed uint64
	// Faults lists the injected failures.
	Faults []Fault
}

// NewPlan assembles a plan from faults.
func NewPlan(seed uint64, fs ...Fault) *Plan {
	return &Plan{Seed: seed, Faults: fs}
}

// Validate checks every fault against the run's worker count. It is
// nil-safe.
func (p *Plan) Validate(numWorkers int) error {
	if p == nil {
		return nil
	}
	for i, f := range p.Faults {
		if f.Worker < 0 || f.Worker >= numWorkers {
			return fmt.Errorf("faults: fault %d targets worker %d of %d", i, f.Worker, numWorkers)
		}
		switch f.Kind {
		case KindCrash, KindHang:
			if f.After < 0 {
				return fmt.Errorf("faults: fault %d has negative trigger %d", i, f.After)
			}
			if f.Kind == KindHang && f.Hang <= 0 {
				return fmt.Errorf("faults: fault %d hangs for non-positive duration %v", i, f.Hang)
			}
		case KindCorrupt:
			if f.Rate <= 0 || f.Rate > 1 {
				return fmt.Errorf("faults: fault %d corruption rate %v outside (0,1]", i, f.Rate)
			}
		default:
			return fmt.Errorf("faults: fault %d has unknown kind %d", i, int(f.Kind))
		}
	}
	return nil
}

// String renders the plan in Parse syntax.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	return spec.Join(p.Faults)
}

// Parse reads a comma-separated fault list:
//
//	crash:WORKER:AFTER            worker panics on dispatch AFTER
//	hang:WORKER:AFTER:DURATION    worker stalls for DURATION on dispatch AFTER
//	corrupt:WORKER:RATE           gradients poisoned with probability RATE
//
// e.g. "crash:1:20,hang:0:10:50ms,corrupt:0:0.05". An empty spec returns a
// nil plan.
func Parse(s string) (*Plan, error) {
	return spec.Parse("faults", s, &Plan{Seed: 1}, func(p *Plan, e *spec.Entry) error {
		switch e.Kind {
		case "crash":
			e.Want("crash:WORKER:AFTER")
			p.Faults = append(p.Faults, CrashAfter(e.Int(1, "worker"), e.Int64(2, "trigger")))
		case "hang":
			e.Want("hang:WORKER:AFTER:DURATION")
			p.Faults = append(p.Faults, HangAfter(e.Int(1, "worker"), e.Int64(2, "trigger"), e.Duration(3, "duration")))
		case "corrupt":
			e.Want("corrupt:WORKER:RATE")
			p.Faults = append(p.Faults, CorruptGradient(e.Int(1, "worker"), e.Float(2, "rate")))
		default:
			return e.Unknown("fault kind")
		}
		return nil
	})
}

// Step is the injector's verdict for one dispatched iteration, resolved
// once so concurrent sub-batch lanes need no further coordination.
type Step struct {
	// Crash instructs the worker to panic before processing.
	Crash bool
	// Hang instructs the worker to stall this long before processing.
	Hang time.Duration
	// Corrupt instructs the worker to poison this iteration's gradients.
	Corrupt bool
}

// Injector is a single worker's deterministic fault stream. Engines call
// Begin once per dispatched iteration from the worker's own goroutine (or
// the simulation loop); the injector is not safe for concurrent use, which
// the one-consumer discipline guarantees. A nil Injector injects nothing.
type Injector struct {
	worker int
	faults []Fault
	iter   int64
	rng    *rand.Rand
}

// ForWorker returns worker id's injector, or nil when the plan (or the
// receiver) holds no faults for it.
func (p *Plan) ForWorker(id int) *Injector {
	if p == nil {
		return nil
	}
	var fs []Fault
	for _, f := range p.Faults {
		if f.Worker == id {
			fs = append(fs, f)
		}
	}
	if len(fs) == 0 {
		return nil
	}
	// Deterministic trigger order regardless of plan order: crashes fire
	// after hangs scheduled at the same iteration.
	sort.SliceStable(fs, func(i, j int) bool { return fs[i].Kind > fs[j].Kind })
	return &Injector{
		worker: id,
		faults: fs,
		rng:    rand.New(rand.NewPCG(p.Seed, 0x9e3779b97f4a7c15^uint64(id))),
	}
}

// Begin advances the injector to the next iteration and reports what, if
// anything, goes wrong during it. Nil-safe.
func (in *Injector) Begin() Step {
	if in == nil {
		return Step{}
	}
	n := in.iter
	in.iter++
	var s Step
	for _, f := range in.faults {
		switch f.Kind {
		case KindCrash:
			if n >= f.After {
				s.Crash = true
			}
		case KindHang:
			if n == f.After {
				s.Hang += f.Hang
			}
		case KindCorrupt:
			if in.rng.Float64() < f.Rate {
				s.Corrupt = true
			}
		}
	}
	return s
}

// Iterations reports how many dispatches the injector has seen. Nil-safe.
func (in *Injector) Iterations() int64 {
	if in == nil {
		return 0
	}
	return in.iter
}

// Poison overwrites the head of every weight matrix and bias vector in g
// with NaN — the minimal corruption that any sound non-finite guard must
// catch.
func Poison(g *nn.Params) {
	for i := range g.Weights {
		if len(g.Weights[i].Data) > 0 {
			g.Weights[i].Data[0] = math.NaN()
		}
		if len(g.Biases[i].Data) > 0 {
			g.Biases[i].Data[0] = math.NaN()
		}
	}
}

// CrashError is the panic value of an injected crash, so recovery layers
// can distinguish injected faults from genuine bugs in logs.
type CrashError struct {
	// Worker is the crashed worker's index.
	Worker int
	// Iteration is the dispatch at which the crash fired.
	Iteration int64
}

// Error implements error.
func (e CrashError) Error() string {
	return fmt.Sprintf("faults: injected crash on worker %d at iteration %d", e.Worker, e.Iteration)
}
