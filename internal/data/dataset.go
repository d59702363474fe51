// Package data provides the training datasets used by the heterosgd
// framework: an in-memory dense Dataset with zero-copy batch views (the
// paper's "reference to a range in the training data"), a LIBSVM
// reader/writer for the real datasets the paper evaluates (covtype, w8a,
// delicious, real-sim), and synthetic generators matched to those datasets'
// shapes for environments where the originals are unavailable.
package data

import (
	"fmt"
	"math/rand/v2"

	"heterosgd/internal/nn"
	"heterosgd/internal/tensor"
)

// Dataset is a fully-materialized training set. Features are stored either
// densely (X) or in CSR form (XS) — exactly one is set. The coordinator
// shares it with workers by reference; batches are views, never copies.
type Dataset struct {
	// Name identifies the dataset in logs and experiment output.
	Name string
	// X holds one example per row (dense datasets).
	X *tensor.Matrix
	// XS holds one example per row in CSR form (sparse datasets such as
	// real-sim). Mutually exclusive with X.
	XS *tensor.CSR
	// Y holds the labels (Class for multiclass, Multi for multi-label).
	Y nn.Labels
	// NumClasses is the number of classes (or labels when MultiLabel).
	NumClasses int
	// MultiLabel marks per-example label *sets* (delicious).
	MultiLabel bool

	// shuf is Shuffle's scratch, sized by ReserveShuffle.
	shuf shuffleScratch
}

// shuffleScratch holds the buffers one Shuffle fills and drains: a dense
// row, or the CSR permutation, row pointers and entry copies.
type shuffleScratch struct {
	row, val        []float64
	perm, ptr, cols []int
}

// grow returns s resized to n, reallocating only when its capacity is short.
// The contents are not preserved.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// N returns the number of examples.
func (d *Dataset) N() int {
	if d.XS != nil {
		return d.XS.Rows
	}
	return d.X.Rows
}

// Dim returns the feature dimensionality.
func (d *Dataset) Dim() int {
	if d.XS != nil {
		return d.XS.Cols
	}
	return d.X.Cols
}

// Sparse reports whether the features are CSR-backed.
func (d *Dataset) Sparse() bool { return d.XS != nil }

// Density returns the nonzero feature fraction (1 for dense storage).
func (d *Dataset) Density() float64 {
	if d.XS != nil {
		return d.XS.Density()
	}
	return 1
}

// Input returns the whole feature matrix as an nn.Input.
func (d *Dataset) Input() nn.Input {
	if d.XS != nil {
		return nn.SparseInput(d.XS)
	}
	return nn.DenseInput(d.X)
}

// Validate checks internal consistency.
func (d *Dataset) Validate() error {
	if d.X == nil && d.XS == nil {
		return fmt.Errorf("data: %s has no feature matrix", d.Name)
	}
	if d.X != nil && d.XS != nil {
		return fmt.Errorf("data: %s has both dense and sparse features", d.Name)
	}
	if d.XS != nil {
		if err := d.XS.Check(); err != nil {
			return fmt.Errorf("data: %s: %w", d.Name, err)
		}
	}
	if d.NumClasses < 2 {
		return fmt.Errorf("data: %s has %d classes, need ≥2", d.Name, d.NumClasses)
	}
	if d.MultiLabel {
		if len(d.Y.Multi) != d.N() {
			return fmt.Errorf("data: %s has %d label sets for %d examples", d.Name, len(d.Y.Multi), d.N())
		}
		for i, ls := range d.Y.Multi {
			for _, l := range ls {
				if l < 0 || int(l) >= d.NumClasses {
					return fmt.Errorf("data: %s example %d label %d out of range [0,%d)", d.Name, i, l, d.NumClasses)
				}
			}
		}
		return nil
	}
	if len(d.Y.Class) != d.N() {
		return fmt.Errorf("data: %s has %d labels for %d examples", d.Name, len(d.Y.Class), d.N())
	}
	for i, c := range d.Y.Class {
		if c < 0 || c >= d.NumClasses {
			return fmt.Errorf("data: %s example %d class %d out of range [0,%d)", d.Name, i, c, d.NumClasses)
		}
	}
	return nil
}

// Batch is a zero-copy view of a contiguous example range: the paper's unit
// of work handed from coordinator to worker. Exactly one of X and XS is set,
// matching the parent dataset's representation.
type Batch struct {
	X  *tensor.Matrix
	XS *tensor.CSR
	Y  nn.Labels
	// Lo, Hi record the source range [Lo, Hi) within the dataset.
	Lo, Hi int
}

// Size returns the number of examples in the batch.
func (b Batch) Size() int { return b.Hi - b.Lo }

// Input returns the batch features as an nn.Input for the network kernels.
func (b Batch) Input() nn.Input {
	if b.XS != nil {
		return nn.SparseInput(b.XS)
	}
	return nn.DenseInput(b.X)
}

// Views is the header storage behind one batch view. View and Sub allocate
// the header their batch points at; ViewInto and SubInto write it here
// instead, so a worker that keeps a Views per lane takes its batches without
// garbage. The returned Batch points into the storage and is valid until the
// storage is used again.
type Views struct {
	x  tensor.Matrix
	xs tensor.CSR
}

// Sub returns the sub-batch covering examples [lo, hi) RELATIVE to b —
// the representation-agnostic way engines split a batch across lanes.
func (b Batch) Sub(lo, hi int) Batch {
	if b.XS != nil {
		return b.subInto(nil, new(tensor.CSR), lo, hi)
	}
	return b.subInto(new(tensor.Matrix), nil, lo, hi)
}

// SubInto is Sub with the feature view's header stored in st.
func (b Batch) SubInto(st *Views, lo, hi int) Batch { return b.subInto(&st.x, &st.xs, lo, hi) }

// subInto writes the header of the representation b has into x or xs.
func (b Batch) subInto(x *tensor.Matrix, xs *tensor.CSR, lo, hi int) Batch {
	if lo < 0 || hi > b.Size() || lo > hi {
		panic(fmt.Sprintf("data: sub-batch [%d,%d) out of range for %d examples", lo, hi, b.Size()))
	}
	out := Batch{Y: b.Y.Slice(lo, hi), Lo: b.Lo + lo, Hi: b.Lo + hi}
	if b.XS != nil {
		out.XS = b.XS.RowViewInto(xs, lo, hi-lo)
	} else {
		out.X = b.X.RowViewInto(x, lo, hi-lo)
	}
	return out
}

// all is the dataset as the batch [0, N), so that a view is a sub-batch.
func (d *Dataset) all() Batch { return Batch{X: d.X, XS: d.XS, Y: d.Y, Hi: d.N()} }

// View returns the batch covering examples [lo, hi).
func (d *Dataset) View(lo, hi int) Batch { return d.all().Sub(lo, hi) }

// ViewInto is View with the feature view's header stored in st.
func (d *Dataset) ViewInto(st *Views, lo, hi int) Batch { return d.all().SubInto(st, lo, hi) }

// Shuffle permutes examples in place (Fisher-Yates), keeping X and Y aligned.
// The sparse path consumes the RNG identically to the dense path, so a seed
// yields the same example order in either representation.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	d.ReserveShuffle()
	n := d.N()
	if d.XS != nil {
		d.shuffleSparse(rng, n)
		return
	}
	rowBuf := d.shuf.row
	for i := n - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		if i == j {
			continue
		}
		ri, rj := d.X.Row(i), d.X.Row(j)
		copy(rowBuf, ri)
		copy(ri, rj)
		copy(rj, rowBuf)
		d.swapLabels(i, j)
	}
}

// ReserveShuffle sizes the scratch Shuffle works in, which d keeps between
// calls: one row for dense features; the permutation, row pointers and a
// copy of the entries for CSR. It reallocates only what is too short, so
// after it Shuffle allocates nothing. Shuffle calls it itself; an engine calls
// it when a shuffling run starts, so that the first epoch barrier costs what
// every other one does.
func (d *Dataset) ReserveShuffle() {
	s := &d.shuf
	if d.XS == nil {
		s.row = grow(s.row, d.Dim())
		return
	}
	n, total := d.N(), d.XS.NNZ()
	s.perm, s.ptr, s.cols, s.val = grow(s.perm, n), grow(s.ptr, n+1), grow(s.cols, total), grow(s.val, total)
}

func (d *Dataset) swapLabels(i, j int) {
	if d.MultiLabel {
		d.Y.Multi[i], d.Y.Multi[j] = d.Y.Multi[j], d.Y.Multi[i]
	} else {
		d.Y.Class[i], d.Y.Class[j] = d.Y.Class[j], d.Y.Class[i]
	}
}

// shuffleSparse applies the same Fisher-Yates permutation to a CSR dataset.
// Because permuting rows conserves the view's total nnz, the row span
// [RowPtr[0], RowPtr[n]) is recompacted in place: entries are rebuilt in
// permuted order through scratch and RowPtr is rewritten with the span's
// endpoints unchanged, so parents/siblings sharing the backing arrays (e.g.
// a test split) stay coherent — mirroring the dense in-place row swaps.
func (d *Dataset) shuffleSparse(rng *rand.Rand, n int) {
	perm, newPtr, colScratch, valScratch := d.shuf.perm, d.shuf.ptr, d.shuf.cols, d.shuf.val
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		if i == j {
			continue
		}
		perm[i], perm[j] = perm[j], perm[i]
		d.swapLabels(i, j)
	}
	base, total := d.XS.RowPtr[0], d.XS.NNZ()
	pos := 0
	for i, src := range perm {
		lo, hi := d.XS.RowPtr[src], d.XS.RowPtr[src+1]
		newPtr[i] = base + pos
		copy(colScratch[pos:], d.XS.ColIdx[lo:hi])
		copy(valScratch[pos:], d.XS.Val[lo:hi])
		pos += hi - lo
	}
	newPtr[n] = base + pos
	copy(d.XS.ColIdx[base:base+total], colScratch)
	copy(d.XS.Val[base:base+total], valScratch)
	copy(d.XS.RowPtr, newPtr)
}

// Split partitions the dataset into a train set with the first
// round(frac·N) examples and a test set with the rest. Both share the
// original backing storage.
func (d *Dataset) Split(frac float64) (train, test *Dataset) {
	if frac <= 0 || frac > 1 {
		panic(fmt.Sprintf("data: split fraction %v outside (0,1]", frac))
	}
	cut := int(float64(d.N())*frac + 0.5)
	mk := func(name string, lo, hi int) *Dataset {
		v := d.View(lo, hi)
		return &Dataset{Name: name, X: v.X, XS: v.XS, Y: v.Y, NumClasses: d.NumClasses, MultiLabel: d.MultiLabel}
	}
	return mk(d.Name+"/train", 0, cut), mk(d.Name+"/test", cut, d.N())
}

// Subset returns a dataset view of the first n examples (n is clamped to N).
func (d *Dataset) Subset(n int) *Dataset {
	if n > d.N() {
		n = d.N()
	}
	v := d.View(0, n)
	return &Dataset{Name: d.Name, X: v.X, XS: v.XS, Y: v.Y, NumClasses: d.NumClasses, MultiLabel: d.MultiLabel}
}

// String summarizes the dataset in Table II style.
func (d *Dataset) String() string {
	kind := "multiclass"
	if d.MultiLabel {
		kind = "multi-label"
	}
	if d.XS != nil {
		return fmt.Sprintf("%s: %d examples × %d features, %d classes (%s, sparse %.3g%% nnz)",
			d.Name, d.N(), d.Dim(), d.NumClasses, kind, 100*d.Density())
	}
	return fmt.Sprintf("%s: %d examples × %d features, %d classes (%s)", d.Name, d.N(), d.Dim(), d.NumClasses, kind)
}
