package tensor

import (
	"sync"
	"unsafe"
)

// UpdateMode selects how concurrent workers write into a shared model.
type UpdateMode int

const (
	// UpdateAtomic writes the model a row at a time: a writer locks the
	// row's stripe (one of a fixed table of mutexes, picked by the row's
	// address), adds into the row with plain stores, and unlocks. No add is
	// ever lost, writers to different rows rarely meet, and concurrent
	// writers and AtomicCopy readers are free of data races under the Go
	// memory model. It is not lock-free — a writer holds one row's stripe at
	// a time, never the model — and it is the default; DESIGN.md §5.1 has
	// the measurements that chose it over a compare-and-swap per element.
	UpdateAtomic UpdateMode = iota
	// UpdateRacy uses plain stores with no synchronization, exactly like
	// the paper's Hogwild/Hogbatch C implementation — the paper-exact mode.
	// Concurrent writes may clobber each other; SGD tolerates this (Niu et
	// al., 2011). It is faster but is flagged by the race detector.
	UpdateRacy
	// UpdateLocked guards the whole model with a mutex at the caller.
	// Provided for ablation benchmarks only; the tensor kernels treat it
	// as UpdateRacy because the caller holds the lock.
	UpdateLocked
)

// String returns the mode name used in benchmark output.
func (m UpdateMode) String() string {
	switch m {
	case UpdateAtomic:
		return "atomic"
	case UpdateRacy:
		return "racy"
	case UpdateLocked:
		return "locked"
	default:
		return "unknown"
	}
}

// stripes is the lock table behind UpdateAtomic. A row of a shared matrix
// (or a whole shared vector) is guarded by the stripe its base address hashes
// to, so every view of the same storage — the matrix, a RowView of it — meets
// on the same mutex. Each stripe has a cache line to itself: two lanes writing
// different rows must not bounce one line between their cores.
var stripes [256]struct {
	sync.Mutex
	_ [64 - unsafe.Sizeof(sync.Mutex{})]byte
}

// rowStripe returns the stripe guarding row, which must not be empty. The
// multiplicative hash spreads a matrix's equally spaced rows over the table
// whatever the stride.
func rowStripe(row []float64) *sync.Mutex {
	h := uint64(uintptr(unsafe.Pointer(&row[0]))) * 0x9E3779B97F4A7C15
	return &stripes[h>>56].Mutex
}

// addScaledRow performs d += a*s under d's stripe, skipping zero terms: a
// sparse gradient leaves most of a row untouched, and with one writer the
// stored floats are exactly the plain loop's.
func addScaledRow(d []float64, a float64, s []float64) {
	if len(d) == 0 {
		return
	}
	s = s[:len(d)]
	mu := rowStripe(d)
	mu.Lock()
	for j := range d {
		if v := a * s[j]; v != 0 {
			d[j] += v
		}
	}
	mu.Unlock()
}

// copyRow copies s into d under s's stripe, so the reader sees the row
// between two writes, never inside one.
func copyRow(d, s []float64) {
	if len(s) == 0 {
		return
	}
	mu := rowStripe(s)
	mu.Lock()
	copy(d, s)
	mu.Unlock()
}

// AtomicAddScaled performs dst += a*src a row at a time, each row under its
// stripe, so concurrent callers never lose updates. Shapes must match.
func AtomicAddScaled(dst *Matrix, a float64, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("tensor: atomicAddScaled shape mismatch")
	}
	for i := 0; i < dst.Rows; i++ {
		addScaledRow(dst.Row(i), a, src.Row(i))
	}
}

// AtomicAddScaledVec performs dst += a*src on vectors, the whole vector
// being one row.
func AtomicAddScaledVec(dst *Vector, a float64, src *Vector) {
	if dst.Len() != src.Len() {
		panic("tensor: atomicAddScaledVec length mismatch")
	}
	addScaledRow(dst.Data, a, src.Data)
}

// ApplyUpdate performs dst += a*src according to mode. UpdateLocked is
// applied as a plain add; the caller is responsible for holding the lock.
func ApplyUpdate(mode UpdateMode, dst *Matrix, a float64, src *Matrix) {
	if mode == UpdateAtomic {
		AtomicAddScaled(dst, a, src)
		return
	}
	dst.AddScaled(a, src)
}

// AtomicAddScaledCols performs dst += a*src restricted to the given columns,
// each row under its stripe. It is the sparse partial update: a worker whose
// batch only touched those feature columns writes nothing else.
func AtomicAddScaledCols(dst *Matrix, a float64, src *Matrix, cols []int) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("tensor: atomicAddScaledCols shape mismatch")
	}
	if dst.Cols == 0 {
		return
	}
	for i := 0; i < dst.Rows; i++ {
		d, s := dst.Row(i), src.Row(i)
		mu := rowStripe(d)
		mu.Lock()
		for _, j := range cols {
			if v := a * s[j]; v != 0 {
				d[j] += v
			}
		}
		mu.Unlock()
	}
}

// ApplyUpdateCols is ApplyUpdate restricted to the given columns.
func ApplyUpdateCols(mode UpdateMode, dst *Matrix, a float64, src *Matrix, cols []int) {
	if mode == UpdateAtomic {
		AtomicAddScaledCols(dst, a, src, cols)
		return
	}
	AddScaledCols(dst, a, src, cols)
}

// ApplyUpdateVec is ApplyUpdate for vectors.
func ApplyUpdateVec(mode UpdateMode, dst *Vector, a float64, src *Vector) {
	if mode == UpdateAtomic {
		AtomicAddScaledVec(dst, a, src)
		return
	}
	dst.AddScaled(a, src)
}

// AtomicCopy copies src into dst a row at a time, each row under its stripe,
// so the copy is race-free against concurrent AtomicAddScaled writers — the
// model snapshot read path of the serving subsystem. dst must be private to
// the caller. Every copied row is whole (no writer was inside it), but rows
// are copied one after another, so the copy is not a point-in-time image of
// the matrix — the consistency Hogwild gradient reads already live with.
func AtomicCopy(dst, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("tensor: atomicCopy shape mismatch")
	}
	for i := 0; i < dst.Rows; i++ {
		copyRow(dst.Row(i), src.Row(i))
	}
}

// AtomicCopyVec is AtomicCopy for vectors.
func AtomicCopyVec(dst, src *Vector) {
	if dst.Len() != src.Len() {
		panic("tensor: atomicCopyVec length mismatch")
	}
	copyRow(dst.Data, src.Data)
}
