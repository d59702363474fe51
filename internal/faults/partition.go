package faults

// This file extends the fault package from process faults (crash, hang,
// corrupt) to *network* faults: seeded, deterministic plans of frame drops,
// duplications, delays, and link severs, injected between a transport
// coordinator and its workers by internal/transport's fault proxy. The same
// design rules apply as for the process faults: a plan with a fixed seed
// replays identically, triggers count protocol events (frames) rather than
// wall time, and the injector is consulted from a bounded set of goroutines
// so every decision sequence is reproducible.

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"heterosgd/internal/spec"
)

// LinkKind identifies a network fault class.
type LinkKind int

const (
	// LinkDrop discards completion (Done) frames at a seeded rate,
	// exercising the worker's ack-timeout retransmit and the coordinator's
	// dispatch-timeout re-dispatch.
	LinkDrop LinkKind = iota
	// LinkDup delivers completion frames twice at a seeded rate,
	// exercising the coordinator's idempotent apply (dispatch-ID dedupe).
	LinkDup
	// LinkDelay stalls every Nth completion frame, exercising watchdog
	// quarantine followed by late-completion readmission.
	LinkDelay
	// LinkSever closes the link after a fixed number of dispatched Work
	// frames and refuses a fixed number of reconnection attempts before
	// healing — the partition → quarantine → heal → readmission path.
	LinkSever
)

var linkKindNames = [...]string{LinkDrop: "drop", LinkDup: "dup", LinkDelay: "delay", LinkSever: "sever"}

// String returns the fault-class name used by ParseLinks.
func (k LinkKind) String() string {
	if k >= 0 && int(k) < len(linkKindNames) && linkKindNames[k] != "" {
		return linkKindNames[k]
	}
	return "unknown"
}

// LinkFault is one injected network failure bound to a worker's link.
type LinkFault struct {
	// Worker is the target worker's index.
	Worker int
	// Kind selects the failure class.
	Kind LinkKind
	// Rate is the per-frame probability for LinkDrop and LinkDup.
	Rate float64
	// Every triggers LinkDelay on every Every-th completion frame.
	Every int64
	// Delay is the LinkDelay stall duration.
	Delay time.Duration
	// After is the number of delivered Work frames before LinkSever
	// triggers.
	After int64
	// Refuse is the number of reconnection attempts LinkSever rejects
	// before the partition heals (0 heals on the first redial).
	Refuse int
}

// String renders the fault in ParseLinks syntax.
func (f LinkFault) String() string {
	switch f.Kind {
	case LinkDrop:
		return fmt.Sprintf("drop:%d:%g", f.Worker, f.Rate)
	case LinkDup:
		return fmt.Sprintf("dup:%d:%g", f.Worker, f.Rate)
	case LinkDelay:
		return fmt.Sprintf("delay:%d:%d:%v", f.Worker, f.Every, f.Delay)
	case LinkSever:
		return fmt.Sprintf("sever:%d:%d:%d", f.Worker, f.After, f.Refuse)
	default:
		return "unknown"
	}
}

// DropFrames discards worker's completion frames with probability rate.
func DropFrames(worker int, rate float64) LinkFault {
	return LinkFault{Worker: worker, Kind: LinkDrop, Rate: rate}
}

// DupFrames duplicates worker's completion frames with probability rate.
func DupFrames(worker int, rate float64) LinkFault {
	return LinkFault{Worker: worker, Kind: LinkDup, Rate: rate}
}

// DelayFrames stalls every nth completion frame of worker by d.
func DelayFrames(worker int, every int64, d time.Duration) LinkFault {
	return LinkFault{Worker: worker, Kind: LinkDelay, Every: every, Delay: d}
}

// SeverLink severs worker's link after n delivered Work frames and refuses
// the next refuse reconnection attempts before healing.
func SeverLink(worker int, n int64, refuse int) LinkFault {
	return LinkFault{Worker: worker, Kind: LinkSever, After: n, Refuse: refuse}
}

// LinkPlan is a seeded, deterministic set of network faults for one run.
// The zero LinkPlan (and a nil *LinkPlan) injects nothing.
type LinkPlan struct {
	// Seed drives the drop/dup probability streams; plans with equal seeds
	// and faults replay identically.
	Seed uint64
	// Faults lists the injected link failures.
	Faults []LinkFault
}

// NewLinkPlan assembles a plan from faults.
func NewLinkPlan(seed uint64, fs ...LinkFault) *LinkPlan {
	return &LinkPlan{Seed: seed, Faults: fs}
}

// Validate checks every fault against the run's worker count. Nil-safe.
func (p *LinkPlan) Validate(numWorkers int) error {
	if p == nil {
		return nil
	}
	for i, f := range p.Faults {
		if f.Worker < 0 || f.Worker >= numWorkers {
			return fmt.Errorf("faults: link fault %d targets worker %d of %d", i, f.Worker, numWorkers)
		}
		switch f.Kind {
		case LinkDrop, LinkDup:
			if f.Rate <= 0 || f.Rate > 1 {
				return fmt.Errorf("faults: link fault %d rate %v outside (0,1]", i, f.Rate)
			}
		case LinkDelay:
			if f.Every < 1 {
				return fmt.Errorf("faults: link fault %d delays every %d frames (need ≥ 1)", i, f.Every)
			}
			if f.Delay <= 0 {
				return fmt.Errorf("faults: link fault %d delays for non-positive %v", i, f.Delay)
			}
		case LinkSever:
			if f.After < 0 {
				return fmt.Errorf("faults: link fault %d has negative trigger %d", i, f.After)
			}
			if f.Refuse < 0 {
				return fmt.Errorf("faults: link fault %d refuses %d dials (need ≥ 0)", i, f.Refuse)
			}
		default:
			return fmt.Errorf("faults: link fault %d has unknown kind %d", i, int(f.Kind))
		}
	}
	return nil
}

// String renders the plan in ParseLinks syntax.
func (p *LinkPlan) String() string {
	if p == nil {
		return ""
	}
	return spec.Join(p.Faults)
}

// ParseLinks reads a comma-separated link-fault list:
//
//	drop:WORKER:RATE              completion frames dropped with probability RATE
//	dup:WORKER:RATE               completion frames duplicated with probability RATE
//	delay:WORKER:EVERY:DURATION   every EVERY-th completion frame stalled for DURATION
//	sever:WORKER:AFTER:REFUSE     link severed after AFTER dispatches; next REFUSE redials refused
//
// e.g. "sever:1:20:2,drop:0:0.05". An empty spec returns a nil plan.
func ParseLinks(s string) (*LinkPlan, error) {
	return spec.Parse("faults", s, &LinkPlan{Seed: 1}, func(p *LinkPlan, e *spec.Entry) error {
		switch e.Kind {
		case "drop":
			e.Want("drop:WORKER:RATE")
			p.Faults = append(p.Faults, DropFrames(e.Int(1, "worker"), e.Float(2, "rate")))
		case "dup":
			e.Want("dup:WORKER:RATE")
			p.Faults = append(p.Faults, DupFrames(e.Int(1, "worker"), e.Float(2, "rate")))
		case "delay":
			e.Want("delay:WORKER:EVERY:DURATION")
			p.Faults = append(p.Faults, DelayFrames(e.Int(1, "worker"), e.Int64(2, "period"), e.Duration(3, "duration")))
		case "sever":
			e.Want("sever:WORKER:AFTER:REFUSE")
			p.Faults = append(p.Faults, SeverLink(e.Int(1, "worker"), e.Int64(2, "trigger"), e.Int(3, "refuse count")))
		default:
			return e.Unknown("link fault kind")
		}
		return nil
	})
}

// LinkVerdict is the injector's decision for one completion frame.
type LinkVerdict struct {
	// Drop discards the frame.
	Drop bool
	// Dup delivers the frame twice.
	Dup bool
	// Delay stalls the frame this long before delivery.
	Delay time.Duration
}

// LinkInjector is a single worker link's deterministic fault stream. The
// fault proxy consults Work once per delivered dispatch frame, Done once per
// completion frame, and Dial once per connection attempt. Each decision
// stream advances its own counter, and the drop/dup randomness draws from a
// per-worker PCG seeded from the plan seed — so a plan replays identically
// for a fixed seed regardless of frame timing. The injector is internally
// locked: the proxy's two copy directions and its accept loop may share it.
// A nil *LinkInjector injects nothing.
type LinkInjector struct {
	mu     sync.Mutex
	worker int
	faults []LinkFault
	rng    *rand.Rand
	// work and done count frames seen per direction; refuseLeft counts
	// remaining dial rejections after a sever fired.
	work, done int64
	severed    bool
	refuseLeft int
}

// ForLink returns worker id's link injector, or nil when the plan (or the
// receiver) holds no link faults for it. The injector persists across
// reconnections: frame counters continue where the severed session stopped.
func (p *LinkPlan) ForLink(id int) *LinkInjector {
	if p == nil {
		return nil
	}
	var fs []LinkFault
	for _, f := range p.Faults {
		if f.Worker == id {
			fs = append(fs, f)
		}
	}
	if len(fs) == 0 {
		return nil
	}
	return &LinkInjector{
		worker: id,
		faults: fs,
		rng:    rand.New(rand.NewPCG(p.Seed, 0x9e3779b97f4a7c15^uint64(id))),
	}
}

// Work advances the dispatch-frame counter and reports whether the link
// must be severed after delivering this frame. Nil-safe.
func (in *LinkInjector) Work() (sever bool) {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	n := in.work
	in.work++
	for _, f := range in.faults {
		if f.Kind == LinkSever && !in.severed && n >= f.After {
			in.severed = true
			in.refuseLeft = f.Refuse
			return true
		}
	}
	return false
}

// Done advances the completion-frame counter and returns the verdict for
// this frame. Nil-safe.
func (in *LinkInjector) Done() LinkVerdict {
	if in == nil {
		return LinkVerdict{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	n := in.done
	in.done++
	var v LinkVerdict
	for _, f := range in.faults {
		switch f.Kind {
		case LinkDrop:
			if in.rng.Float64() < f.Rate {
				v.Drop = true
			}
		case LinkDup:
			if in.rng.Float64() < f.Rate {
				v.Dup = true
			}
		case LinkDelay:
			if f.Every > 0 && (n+1)%f.Every == 0 {
				v.Delay += f.Delay
			}
		}
	}
	return v
}

// Dial reports whether a connection attempt may proceed; after a sever it
// refuses LinkSever.Refuse attempts before healing the partition. Nil-safe.
func (in *LinkInjector) Dial() bool {
	if in == nil {
		return true
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.refuseLeft > 0 {
		in.refuseLeft--
		return false
	}
	return true
}

// Severed reports whether a sever fault has fired on this link. Nil-safe.
func (in *LinkInjector) Severed() bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.severed
}
