// Package serve is the online inference subsystem: it serves predictions
// from a model that may still be training.
//
// Three pieces compose it. The Publisher is an RCU-style snapshot holder —
// a training engine (or a checkpoint loader) hands it deep-copied
// parameters, it wraps them in an immutable nn.Snapshot and swaps the
// current pointer atomically, so any number of readers proceed lock-free
// against concurrent Hogwild writers. The Batcher coalesces concurrent
// prediction requests into one dense or CSR forward pass — the serving-side
// mirror of Hogbatch's insight that batch size trades per-example
// efficiency against latency — with a bounded admission queue providing
// backpressure. The Server exposes the batcher over HTTP with JSON and
// LIBSVM-line predict endpoints plus health and stats probes.
package serve

import (
	"sync/atomic"
	"time"

	"heterosgd/internal/nn"
)

// Publisher holds the current model snapshot behind an atomic pointer.
// Publishing swaps the pointer; reading loads it. Neither path takes a
// lock, so inference readers never block training updates and training
// never blocks inference — the RCU discipline. Old snapshots stay valid for
// readers that still hold them and are reclaimed by the garbage collector.
//
// Publisher satisfies core.SnapshotSink, so a training Config can publish
// into it directly (Config.SnapshotSink = publisher).
type Publisher struct {
	net *nn.Network
	cur atomic.Pointer[nn.Snapshot]
}

// NewPublisher returns a Publisher for models of net's topology. No
// snapshot exists until the first publish; Load returns nil and the server
// reports itself unhealthy until then.
func NewPublisher(net *nn.Network) *Publisher {
	return &Publisher{net: net}
}

// Net returns the topology snapshots belong to.
func (p *Publisher) Net() *nn.Network { return p.net }

// PublishParams wraps params in a new snapshot and makes it current. It
// takes ownership: params must be a private deep copy (the engines clone
// mode-appropriately before calling) and must not be mutated afterwards.
// The snapshot's version is its predecessor's plus one, fixed by the same
// compare-and-swap that installs it, so concurrent publishers (a trainer and
// a reload) never make the served version go backwards, and the version
// counts the publishes.
func (p *Publisher) PublishParams(params *nn.Params) {
	s := &nn.Snapshot{Net: p.net, Params: params}
	for {
		prev := p.cur.Load()
		s.Version, s.At = 1, time.Now()
		if prev != nil {
			s.Version = prev.Version + 1
		}
		if p.cur.CompareAndSwap(prev, s) {
			return
		}
	}
}

// Load returns the current snapshot, or nil before the first publish. The
// returned snapshot is immutable and remains valid indefinitely.
func (p *Publisher) Load() *nn.Snapshot { return p.cur.Load() }

// Version returns the current snapshot's version (0 before any publish).
func (p *Publisher) Version() uint64 {
	if s := p.cur.Load(); s != nil {
		return s.Version
	}
	return 0
}
