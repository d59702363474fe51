package data

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"heterosgd/internal/nn"
	"heterosgd/internal/tensor"
)

// LIBSVMOptions controls parsing of LIBSVM/SVMlight-format files.
type LIBSVMOptions struct {
	// Dim forces the feature dimensionality; 0 infers it from the data.
	Dim int
	// MultiLabel parses comma-separated label lists (delicious).
	MultiLabel bool
	// NumClasses forces the class count; 0 infers it from the labels.
	NumClasses int
	// Name sets the dataset name.
	Name string
	// Sparse keeps the data in CSR form instead of densifying — required
	// for wide datasets like real-sim whose dense form would not fit.
	Sparse bool
}

const (
	// maxFeatureIndex caps the accepted 1-based feature index. Anything
	// larger is virtually certainly corrupt input, and admitting it would
	// let a single malformed line force a multi-gigabyte allocation.
	maxFeatureIndex = 1 << 24
	// maxDenseElements caps the element count of a densified dataset
	// (2 GiB of float64); beyond it the reader demands Sparse mode.
	maxDenseElements = 1 << 28
)

// ReadLIBSVM parses a LIBSVM-format stream into a Dataset — dense by
// default (the paper processes covtype and w8a in dense format, §VII-A), or
// CSR when opts.Sparse is set. Feature indices are 1-based per the format;
// out-of-order and duplicate indices are tolerated (duplicates keep the last
// value, matching a dense scatter). Multiclass labels may be arbitrary
// integers (including ±1, remapped to {0, 1}); multi-label lines start with
// a comma-separated label list. Malformed input yields an error, never a
// panic.
func ReadLIBSVM(r io.Reader, opts LIBSVMOptions) (*Dataset, error) {
	type row struct {
		idx  []int
		val  []float64
		cls  int
		lbls []int32
	}
	var rows []row
	maxDim := opts.Dim
	maxLabel := -1
	classSet := map[int]int{} // raw label → class id (multiclass)

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		var rw row
		if opts.MultiLabel {
			for _, part := range strings.Split(fields[0], ",") {
				if part == "" {
					continue
				}
				l, err := strconv.Atoi(part)
				if err != nil || l < 0 || l > maxFeatureIndex {
					return nil, fmt.Errorf("data: line %d: bad label %q", lineNo, part)
				}
				rw.lbls = append(rw.lbls, int32(l))
				if l > maxLabel {
					maxLabel = l
				}
			}
		} else {
			raw, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return nil, fmt.Errorf("data: line %d: bad label %q: %w", lineNo, fields[0], err)
			}
			key := int(raw)
			id, ok := classSet[key]
			if !ok {
				id = len(classSet)
				classSet[key] = id
			}
			rw.cls = id
		}
		for _, f := range fields[1:] {
			idx, val, err := parseFeature(f)
			if err != nil {
				return nil, fmt.Errorf("data: line %d: %w", lineNo, err)
			}
			rw.idx = append(rw.idx, idx-1)
			rw.val = append(rw.val, val)
			if idx > maxDim {
				maxDim = idx
			}
		}
		rows = append(rows, rw)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("data: scanning LIBSVM input: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("data: empty LIBSVM input")
	}

	d := &Dataset{Name: opts.Name, MultiLabel: opts.MultiLabel}
	if opts.MultiLabel {
		d.Y = nn.Labels{Multi: make([][]int32, len(rows))}
		d.NumClasses = maxLabel + 1
	} else {
		d.Y = nn.Labels{Class: make([]int, len(rows))}
		d.NumClasses = len(classSet)
	}
	if opts.NumClasses > 0 {
		d.NumClasses = opts.NumClasses
	}
	for i, rw := range rows {
		if opts.MultiLabel {
			d.Y.Multi[i] = rw.lbls
		} else {
			d.Y.Class[i] = rw.cls
		}
	}
	if opts.Sparse {
		csr := &tensor.CSR{Rows: len(rows), Cols: maxDim, RowPtr: make([]int, len(rows)+1)}
		for i, rw := range rows {
			idx, val := SortDedupe(rw.idx, rw.val)
			csr.ColIdx = append(csr.ColIdx, idx...)
			csr.Val = append(csr.Val, val...)
			csr.RowPtr[i+1] = len(csr.ColIdx)
		}
		d.XS = csr
	} else {
		if int64(len(rows))*int64(maxDim) > maxDenseElements {
			return nil, fmt.Errorf("data: %d×%d dense matrix exceeds the %d-element cap; set LIBSVMOptions.Sparse",
				len(rows), maxDim, maxDenseElements)
		}
		d.X = tensor.NewMatrix(len(rows), maxDim)
		for i, rw := range rows {
			dst := d.X.Row(i)
			for k, idx := range rw.idx {
				dst[idx] = rw.val[k]
			}
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// parseFeature parses one "index:value" token, returning the 1-based index.
func parseFeature(f string) (int, float64, error) {
	colon := strings.IndexByte(f, ':')
	if colon < 0 {
		return 0, 0, fmt.Errorf("malformed feature %q", f)
	}
	idx, err := strconv.Atoi(f[:colon])
	if err != nil || idx < 1 || idx > maxFeatureIndex {
		return 0, 0, fmt.Errorf("bad feature index %q", f[:colon])
	}
	val, err := strconv.ParseFloat(f[colon+1:], 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad feature value %q", f[colon+1:])
	}
	return idx, val, nil
}

// ParseLIBSVMFeatures parses the feature part of a single LIBSVM line into
// 0-based, sorted, deduplicated (index, value) pairs — the single-line
// counterpart of ReadLIBSVM, used by the serving path to parse prediction
// requests. A leading label token (any token without a ':') is skipped, so
// both bare feature lines and full training lines are accepted.
func ParseLIBSVMFeatures(line string) ([]int, []float64, error) {
	fields := strings.Fields(line)
	if len(fields) > 0 && !strings.ContainsRune(fields[0], ':') {
		fields = fields[1:] // optional label
	}
	idxs := make([]int, 0, len(fields))
	vals := make([]float64, 0, len(fields))
	for _, f := range fields {
		idx, val, err := parseFeature(f)
		if err != nil {
			return nil, nil, fmt.Errorf("data: %w", err)
		}
		idxs = append(idxs, idx-1)
		vals = append(vals, val)
	}
	idxs, vals = SortDedupe(idxs, vals)
	return idxs, vals, nil
}

// SortDedupe returns the row's (index, value) pairs sorted ascending by
// index with duplicates collapsed to the LAST occurrence — the same value a
// dense scatter would keep. It leaves its arguments untouched; the reader
// and the serving path both normalise sparse rows with it.
func SortDedupe(idx []int, val []float64) ([]int, []float64) {
	order := make([]int, len(idx))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return idx[order[a]] < idx[order[b]] })
	outIdx := make([]int, 0, len(idx))
	outVal := make([]float64, 0, len(val))
	for _, k := range order {
		if n := len(outIdx); n > 0 && outIdx[n-1] == idx[k] {
			outVal[n-1] = val[k] // duplicate: last wins
			continue
		}
		outIdx = append(outIdx, idx[k])
		outVal = append(outVal, val[k])
	}
	return outIdx, outVal
}

// ReadLIBSVMFile is ReadLIBSVM over a file path.
func ReadLIBSVMFile(path string, opts LIBSVMOptions) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if opts.Name == "" {
		opts.Name = path
	}
	return ReadLIBSVM(f, opts)
}

// WriteLIBSVM renders the dataset in LIBSVM format (zero features omitted;
// indices 1-based). Multi-label datasets emit comma-separated label lists.
func WriteLIBSVM(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w) // its first write error sticks, and Flush returns it
	for i := 0; i < d.N(); i++ {
		if d.MultiLabel {
			for k, l := range d.Y.Multi[i] {
				if k > 0 {
					bw.WriteByte(',')
				}
				bw.WriteString(strconv.Itoa(int(l)))
			}
		} else {
			bw.WriteString(strconv.Itoa(d.Y.Class[i]))
		}
		if d.XS != nil {
			for t := d.XS.RowPtr[i]; t < d.XS.RowPtr[i+1]; t++ {
				if d.XS.Val[t] != 0 {
					fmt.Fprintf(bw, " %d:%g", d.XS.ColIdx[t]+1, d.XS.Val[t])
				}
			}
		} else {
			for j, v := range d.X.Row(i) {
				if v != 0 {
					fmt.Fprintf(bw, " %d:%g", j+1, v)
				}
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteLIBSVMFile is WriteLIBSVM to a file path.
func WriteLIBSVMFile(path string, d *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteLIBSVM(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
