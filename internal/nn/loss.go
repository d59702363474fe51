package nn

import (
	"math"

	"heterosgd/internal/tensor"
)

// Labels carries the supervision for a batch. For multiclass data Class[i]
// is the class index of row i. For multi-label data (delicious) Multi[i]
// lists the active label indices of row i; Class is unused.
type Labels struct {
	Class []int
	Multi [][]int32
}

// Slice returns the labels for rows [lo, hi).
func (y Labels) Slice(lo, hi int) Labels {
	out := Labels{}
	if y.Class != nil {
		out.Class = y.Class[lo:hi]
	}
	if y.Multi != nil {
		out.Multi = y.Multi[lo:hi]
	}
	return out
}

// Len returns the number of labeled rows.
func (y Labels) Len() int {
	if y.Class != nil {
		return len(y.Class)
	}
	return len(y.Multi)
}

// softmaxCEBackward computes the mean softmax cross-entropy loss of logits
// against class labels and writes dL/dlogits (softmax − onehot) into delta.
// Uses the log-sum-exp form, stable for arbitrary logit magnitudes.
func softmaxCEBackward(logits *tensor.Matrix, y Labels, delta *tensor.Matrix) float64 {
	total := 0.0
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		drow := delta.Row(i)
		total += softmaxRow(row, drow, y.Class[i])
	}
	return total / float64(logits.Rows)
}

// softmaxRow fills drow with softmax(row) − onehot(class) and returns the
// row's cross-entropy loss.
func softmaxRow(row, drow []float64, class int) float64 {
	maxv := row[0]
	for _, v := range row[1:] {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	for j, v := range row {
		e := math.Exp(v - maxv)
		drow[j] = e
		sum += e
	}
	inv := 1 / sum
	for j := range drow {
		drow[j] *= inv
	}
	loss := math.Log(sum) + maxv - row[class]
	drow[class] -= 1
	return loss
}

// softmaxCELoss is softmaxCEBackward without the gradient.
func softmaxCELoss(logits *tensor.Matrix, y Labels) float64 {
	total := 0.0
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(v - maxv)
		}
		total += math.Log(sum) + maxv - row[y.Class[i]]
	}
	return total / float64(logits.Rows)
}

// sigmoidBCEBackward computes the mean per-label sigmoid binary
// cross-entropy (summed over labels, averaged over examples — the delicious
// multi-label objective) and writes dL/dlogits = σ(z) − y into delta.
func sigmoidBCEBackward(logits *tensor.Matrix, y Labels, delta *tensor.Matrix) float64 {
	for i := 0; i < logits.Rows; i++ {
		drow := delta.Row(i)
		copy(drow, logits.Row(i))
		tensor.SigmoidSlice(drow)
		for _, lbl := range y.Multi[i] {
			drow[lbl] -= 1
		}
	}
	return sigmoidBCELoss(logits, y)
}

// sigmoidBCELoss is sigmoidBCEBackward without the gradient.
func sigmoidBCELoss(logits *tensor.Matrix, y Labels) float64 {
	total := 0.0
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		for _, z := range row {
			// Stable: log(1+e^z) − y·z = max(z,0) − y·z + log(1+e^{−|z|})
			total += math.Max(z, 0) + math.Log1p(math.Exp(-math.Abs(z)))
		}
		for _, lbl := range y.Multi[i] {
			total -= row[lbl]
		}
	}
	return total / float64(logits.Rows)
}
