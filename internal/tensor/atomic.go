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

var updateModeNames = [...]string{UpdateAtomic: "atomic", UpdateRacy: "racy", UpdateLocked: "locked"}

// String returns the mode name used in benchmark output.
func (m UpdateMode) String() string {
	if m >= 0 && int(m) < len(updateModeNames) && updateModeNames[m] != "" {
		return updateModeNames[m]
	}
	return "unknown"
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

// lockRow locks and returns row's stripe when mode is UpdateAtomic; the other
// modes take no stripe and get nil.
func lockRow(mode UpdateMode, row []float64) *sync.Mutex {
	if mode != UpdateAtomic {
		return nil
	}
	mu := rowStripe(row)
	mu.Lock()
	return mu
}

// addScaledRow performs d += a*s, under d's stripe in UpdateAtomic mode,
// skipping zero terms: a sparse gradient leaves most of a row untouched, and
// a ±0 term leaves d's bits alone, so a -0 weight stays -0. Every mode runs
// this one loop — the AVX2 kernel (addScaledAVX) over whole quads, Go for the
// rest — so with one writer all three store the same floats.
func addScaledRow(mode UpdateMode, d []float64, a float64, s []float64) {
	if len(d) == 0 {
		return
	}
	s = s[:len(d)]
	mu := lockRow(mode, d)
	j := 0
	if exactKernels {
		j = len(d) &^ 3
		addScaledAVX(&d[0], a, &s[0], j)
	}
	for ; j < len(d); j++ {
		if v := float64(a * s[j]); v != 0 {
			d[j] += v
		}
	}
	if mu != nil {
		mu.Unlock()
	}
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

// ApplyUpdate performs dst += a*src a row at a time (addScaledRow). With
// UpdateAtomic each row is added under its stripe, so concurrent callers
// never lose updates; UpdateLocked is applied like UpdateRacy, the caller
// holding the lock. Shapes must match.
func ApplyUpdate(mode UpdateMode, dst *Matrix, a float64, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("tensor: applyUpdate shape mismatch")
	}
	for i := 0; i < dst.Rows; i++ {
		addScaledRow(mode, dst.Row(i), a, src.Row(i))
	}
}

// ApplyUpdateVec is ApplyUpdate for vectors, the whole vector being one row.
func ApplyUpdateVec(mode UpdateMode, dst *Vector, a float64, src *Vector) {
	if dst.Len() != src.Len() {
		panic("tensor: applyUpdateVec length mismatch")
	}
	addScaledRow(mode, dst.Data, a, src.Data)
}

// ApplyUpdateCols is ApplyUpdate restricted to the given columns: the sparse
// partial update, where a worker whose batch only touched those feature
// columns writes nothing else. It skips zero terms as addScaledRow does.
func ApplyUpdateCols(mode UpdateMode, dst *Matrix, a float64, src *Matrix, cols []int) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("tensor: applyUpdateCols shape mismatch")
	}
	if dst.Cols == 0 {
		return
	}
	for i := 0; i < dst.Rows; i++ {
		d, s := dst.Row(i), src.Row(i)
		mu := lockRow(mode, d)
		for _, j := range cols {
			if v := float64(a * s[j]); v != 0 {
				d[j] += v
			}
		}
		if mu != nil {
			mu.Unlock()
		}
	}
}

// AtomicCopy copies src into dst a row at a time, each row under its stripe,
// so the copy is race-free against concurrent UpdateAtomic writers — the
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
