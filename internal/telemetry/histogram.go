package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of power-of-two latency histogram buckets:
// bucket i counts observations whose duration fell in [2^i, 2^(i+1)) µs,
// with bucket 0 also absorbing sub-microsecond observations. 2^31 µs ≈ 36
// min comfortably covers any operation that ever completes.
//
// The bucket layout is the one internal/serve's latency histogram used
// before it was extracted here; TestServeHistogramEquivalence pins the
// boundaries against the original formula.
const NumBuckets = 32

// Histogram is a lock-free latency histogram over power-of-two microsecond
// buckets. The zero value is ready to use; all methods are safe for
// concurrent use, and every method is a no-op (or zero) on a nil receiver.
type Histogram struct {
	buckets [NumBuckets]atomic.Int64
	count   atomic.Int64
	sumUS   atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// BucketOf returns the bucket index for one duration.
func BucketOf(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		return 0
	}
	b := int(math.Log2(float64(us)))
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// BucketMidMs returns the representative latency of bucket i (its geometric
// midpoint), in milliseconds.
func BucketMidMs(i int) float64 {
	lo := math.Exp2(float64(i))     // µs
	return lo * math.Sqrt2 / 1000.0 // ms
}

// BucketHiSec returns bucket i's exclusive upper bound in seconds — the
// Prometheus `le` label value.
func BucketHiSec(i int) float64 {
	return math.Exp2(float64(i+1)) / 1e6
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.buckets[BucketOf(d)].Add(1)
	h.count.Add(1)
	h.sumUS.Add(d.Microseconds())
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// SumSeconds returns the total of all recorded durations in seconds (at
// microsecond resolution).
func (h *Histogram) SumSeconds() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sumUS.Load()) / 1e6
}

// Counts returns a snapshot of the per-bucket counts. The snapshot is not
// atomic across buckets; concurrent observers may land between loads, which
// is fine for monitoring (each bucket is individually exact).
func (h *Histogram) Counts() [NumBuckets]int64 {
	var out [NumBuckets]int64
	if h == nil {
		return out
	}
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Quantile returns the q-quantile (0 < q ≤ 1) of recorded durations in
// milliseconds, resolved to histogram-bucket granularity (≈×√2). Returns 0
// when nothing has been recorded.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts := h.Counts()
	return QuantileOf(&counts, q)
}

// QuantileOf returns the q-quantile (0 < q ≤ 1) in milliseconds of the
// observations a set of bucket counts holds — a snapshot, or the difference
// of two, which is the quantile of what was recorded between them. Returns
// 0 when the counts are empty.
func QuantileOf(counts *[NumBuckets]int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total <= 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			return BucketMidMs(i)
		}
	}
	return BucketMidMs(NumBuckets - 1)
}

// Occupied returns the bucket midpoints (ms) and counts trimmed to the
// occupied range, or (nil, nil) when empty — the shape /statsz renders.
func (h *Histogram) Occupied() (midsMs []float64, counts []int64) {
	if h == nil {
		return nil, nil
	}
	all := h.Counts()
	lo, hi := -1, -1
	for i, c := range all {
		if c > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	if lo < 0 {
		return nil, nil
	}
	for i := lo; i <= hi; i++ {
		midsMs = append(midsMs, BucketMidMs(i))
		counts = append(counts, all[i])
	}
	return midsMs, counts
}
