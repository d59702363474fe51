package nn

import (
	"time"

	"heterosgd/internal/tensor"
)

// Snapshot is an immutable published model: a deep copy of the shared
// parameters taken at a point in training, plus provenance metadata. Once
// constructed, neither the snapshot nor its Params may be mutated — readers
// on any goroutine may hold it indefinitely (RCU discipline: the serving
// subsystem swaps snapshots through an atomic.Pointer and old versions are
// reclaimed by the garbage collector once the last reader drops them).
type Snapshot struct {
	// Net is the topology the parameters belong to.
	Net *Network
	// Params is the deep-copied model. Read-only by contract.
	Params *Params
	// Version counts publishes (1 = first snapshot).
	Version uint64
	// At is the wall-clock publish time.
	At time.Time
}

// CloneAtomic returns a deep copy of p taken a row at a time, each row under
// the stripe lock UpdateAtomic writers take (tensor.AtomicCopy), so it is
// race-free against concurrent Hogwild writers — the snapshot publisher's
// read discipline. It holds one row's stripe at a time, never the model: the
// copy is row-consistent (every row is a value of that row between two
// writes), not a point-in-time image of the whole model; that is more than
// the consistency Hogwild gradient reads already tolerate, and SGD's
// robustness to it is the paper's premise.
func (p *Params) CloneAtomic() *Params {
	out := newParams(p.dims())
	for i, w := range p.Weights {
		tensor.AtomicCopy(out.Weights[i], w)
		tensor.AtomicCopyVec(out.Biases[i], p.Biases[i])
	}
	return out
}
