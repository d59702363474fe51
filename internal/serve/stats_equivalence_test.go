package serve

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"heterosgd/internal/nn"
	"heterosgd/internal/telemetry"
)

// This file pins the histogram extraction: the latency histogram that lived
// in Stats moved to internal/telemetry, and nothing observable may have
// changed. The ref* functions below are verbatim copies of the original
// implementation (git history: internal/serve/stats.go before the
// extraction), kept here as the independent oracle.

const refLatBuckets = 32

func refLatBucket(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		return 0
	}
	b := int(math.Log2(float64(us)))
	if b >= refLatBuckets {
		b = refLatBuckets - 1
	}
	return b
}

func refBucketMid(i int) float64 {
	lo := math.Exp2(float64(i))     // µs
	return lo * math.Sqrt2 / 1000.0 // ms
}

// refQuantile is the original Stats.Quantile over raw bucket counts.
func refQuantile(counts [refLatBuckets]int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
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
			return refBucketMid(i)
		}
	}
	return refBucketMid(refLatBuckets - 1)
}

// sampleDurations covers every boundary the bucketing formula cares about:
// sub-microsecond, exact powers of two, one tick either side of each
// boundary, and values past the 2^31 µs clamp.
func sampleDurations() []time.Duration {
	ds := []time.Duration{0, time.Nanosecond, 500 * time.Nanosecond, 999 * time.Nanosecond}
	for i := 0; i <= 32; i++ {
		us := time.Duration(1) << i * time.Microsecond
		ds = append(ds, us-time.Microsecond, us, us+time.Microsecond)
	}
	ds = append(ds, time.Hour, 24*time.Hour)
	rng := rand.New(rand.NewPCG(7, 11))
	for i := 0; i < 2000; i++ {
		ds = append(ds, time.Duration(rng.Int64N(int64(10*time.Second))))
	}
	return ds
}

// TestServeHistogramEquivalence proves the extracted histogram assigns every
// duration to the same bucket, and reports the same per-bucket midpoints,
// as the original serve-local implementation.
func TestServeHistogramEquivalence(t *testing.T) {
	if telemetry.NumBuckets != refLatBuckets {
		t.Fatalf("telemetry.NumBuckets = %d, original had %d", telemetry.NumBuckets, refLatBuckets)
	}
	for _, d := range sampleDurations() {
		if got, want := telemetry.BucketOf(d), refLatBucket(d); got != want {
			t.Fatalf("BucketOf(%v) = %d, original latBucket gave %d", d, got, want)
		}
	}
	for i := 0; i < refLatBuckets; i++ {
		if got, want := telemetry.BucketMidMs(i), refBucketMid(i); got != want {
			t.Fatalf("BucketMidMs(%d) = %v, original bucketMid gave %v", i, got, want)
		}
	}
}

// TestStatszUnchangedByHistogramExtraction replays one stream of requests
// into today's Stats and into the reference bucket array, then checks that
// everything /statsz derives from the histogram — the quantiles, the
// occupied-range histogram, and the JSON field set — is unchanged.
func TestStatszUnchangedByHistogramExtraction(t *testing.T) {
	s := NewStatsIn(nil)
	var ref [refLatBuckets]int64
	var refRequests, refBatches, refExamples int64

	rng := rand.New(rand.NewPCG(3, 5))
	for i := 0; i < 5000; i++ {
		d := time.Duration(rng.Int64N(int64(2 * time.Second)))
		s.RecordAdmit()
		s.RecordLatency(d)
		ref[refLatBucket(d)]++
		refRequests++
	}
	for i := 0; i < 40; i++ {
		s.RecordBatch(8)
		refBatches++
		refExamples += 8
	}
	s.RecordReject()
	s.RecordError()

	for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.99, 1.0} {
		if got, want := s.Quantile(q), refQuantile(ref, q); got != want {
			t.Fatalf("Quantile(%v) = %v, original gave %v", q, got, want)
		}
	}

	mids, counts := s.Histogram()
	lo, hi := -1, -1
	for i, c := range ref {
		if c > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	if len(mids) != hi-lo+1 || len(counts) != len(mids) {
		t.Fatalf("Histogram() returned %d buckets, original occupied range is %d", len(mids), hi-lo+1)
	}
	for j := range mids {
		if mids[j] != refBucketMid(lo+j) || counts[j] != ref[lo+j] {
			t.Fatalf("Histogram() bucket %d = (%v, %d), original (%v, %d)",
				j, mids[j], counts[j], refBucketMid(lo+j), ref[lo+j])
		}
	}

	// The /statsz document: same field set, same histogram-derived values.
	rep := s.Snapshot(3, 17)
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"uptime_sec", "requests", "rejected", "errors", "batches", "mean_batch",
		"throughput_rps", "p50_ms", "p90_ms", "p99_ms", "queue_depth", "model_version",
		// Added by the serving-pool PR: worker count, live adaptive batch
		// ceiling, and applied controller decisions.
		"pool_workers", "batch_ceiling", "policy_changes",
	} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("/statsz lost field %q after the extraction", key)
		}
	}
	if len(doc) != 15 {
		t.Fatalf("/statsz now has %d fields, expected the original 12 plus the 3 pool fields: %v", len(doc), doc)
	}
	if rep.Requests != refRequests || rep.Rejected != 1 || rep.Errors != 1 || rep.Batches != refBatches {
		t.Fatalf("counter fields drifted: %+v", rep)
	}
	if want := float64(refExamples) / float64(refBatches); rep.MeanBatch != want {
		t.Fatalf("mean_batch = %v, want %v", rep.MeanBatch, want)
	}
	if rep.P50Ms != refQuantile(ref, 0.50) || rep.P90Ms != refQuantile(ref, 0.90) || rep.P99Ms != refQuantile(ref, 0.99) {
		t.Fatalf("snapshot quantiles drifted: %+v", rep)
	}
	if rep.QueueDepth != 3 || rep.ModelVersion != 17 {
		t.Fatalf("pass-through fields drifted: %+v", rep)
	}
}

// TestPoolGlobalAdmissionAccounting pins that admission-control accounting
// is pool-global: the same deterministic request stream produces the same
// /statsz counters whether one worker or several drain the queue. Admission
// (requests/rejected) happens on the shared queue before any worker sees a
// request, and every worker records batches into the shared Stats — so the
// worker count can never skew the 429 math or the serving counters.
func TestPoolGlobalAdmissionAccounting(t *testing.T) {
	const (
		queueCap = 8
		offered  = 20
	)
	type countFields struct {
		requests, rejected, errors, batches int64
		meanBatch                           float64
		queueDepth                          int
	}
	var reference *countFields
	for _, workers := range []int{1, 2, 4} {
		net := nn.MustNetwork(nn.Arch{InputDim: 4, Hidden: []int{8}, OutputDim: 2, Activation: nn.ActSigmoid})
		params := net.NewParams(nn.InitXavier, rand.New(rand.NewPCG(23, 29)))
		pub := NewPublisher(net)
		pub.PublishParams(params)
		// White-box, no worker goroutines: the queue fills
		// deterministically, then the workers drain it synchronously.
		b := &Batcher{
			pub:   pub,
			opts:  Options{MaxBatch: 4, QueueCap: queueCap, PoolWorkers: workers}.withDefaults(net.Arch),
			stats: NewStatsIn(nil),
			queue: make(chan *request, queueCap),
			stop:  make(chan struct{}),
		}
		inst := Instance{Dense: make([]float64, 4)}
		admitted, rejected := 0, 0
		for i := 0; i < offered; i++ {
			if _, err := b.Submit(inst); err == nil {
				admitted++
			} else if err == ErrOverloaded {
				rejected++
			} else {
				t.Fatalf("submit: %v", err)
			}
		}
		if admitted != queueCap || rejected != offered-queueCap {
			t.Fatalf("workers=%d: admitted %d rejected %d, want %d/%d", workers, admitted, rejected, queueCap, offered-queueCap)
		}
		// Drain round-robin across the pool in batches of MaxBatch, exactly
		// what the worker loops do minus the timers.
		pool := make([]*poolWorker, workers)
		for i := range pool {
			pool[i] = b.newPoolWorker()
		}
		reqs := make([]*request, 0, b.opts.MaxBatch)
		for i := 0; len(b.queue) > 0; i++ {
			reqs = reqs[:0]
			for len(reqs) < b.opts.MaxBatch && len(b.queue) > 0 {
				reqs = append(reqs, <-b.queue)
			}
			pool[i%workers].serveBatch(reqs)
			for _, r := range reqs {
				if resp := <-r.done; resp.Err != nil {
					t.Fatalf("workers=%d: serve: %v", workers, resp.Err)
				}
			}
		}
		rep := b.Report()
		got := countFields{rep.Requests, rep.Rejected, rep.Errors, rep.Batches, rep.MeanBatch, rep.QueueDepth}
		if reference == nil {
			reference = &got
		} else if got != *reference {
			t.Fatalf("workers=%d: counters %+v diverge from single-worker reference %+v", workers, got, *reference)
		}
		if rep.PoolWorkers != workers {
			t.Fatalf("report pool_workers = %d, want %d", rep.PoolWorkers, workers)
		}
	}
}
