package serve

import (
	"time"

	"heterosgd/internal/telemetry"
)

// Stats accumulates serving telemetry with lock-free instruments only, so
// the request hot path never takes a lock. All methods are safe for
// concurrent use.
//
// The counters and latency histogram are telemetry instruments: NewStatsIn
// resolves them in a shared registry (surfacing them on the /metrics
// exposition as serve_* series); a nil registry keeps them private. The
// histogram bucket layout — power-of-two microsecond buckets, [2^i, 2^(i+1)) µs —
// lived here before it was extracted into internal/telemetry;
// TestStatszUnchangedByHistogramExtraction pins the /statsz output against
// the original formulas.
type Stats struct {
	start time.Time

	requests *telemetry.Counter // admitted requests
	rejected *telemetry.Counter // admission-control rejections (HTTP 429)
	errors   *telemetry.Counter // per-request failures (bad input, no model)
	batches  *telemetry.Counter // forward passes executed
	examples *telemetry.Counter // requests served across all batches
	policy   *telemetry.Counter // adaptive batch-ceiling changes applied

	lat *telemetry.Histogram // queue-to-response latency
}

// NewStatsIn returns a stats accumulator whose instruments live in reg, so
// the serving series (serve_requests_total, serve_latency_seconds, ...)
// appear on the registry's /metrics exposition alongside everything else.
// A nil registry keeps them in a private one.
func NewStatsIn(reg *telemetry.Registry) *Stats {
	s := &Stats{start: time.Now()}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s.requests = reg.Counter("serve_requests_total")
	s.rejected = reg.Counter("serve_rejected_total")
	s.errors = reg.Counter("serve_errors_total")
	s.batches = reg.Counter("serve_batches_total")
	s.examples = reg.Counter("serve_examples_total")
	s.policy = reg.Counter("serve_policy_changes_total")
	s.lat = reg.Histogram("serve_latency_seconds")
	return s
}

// RecordAdmit counts one admitted request.
func (s *Stats) RecordAdmit() { s.requests.Inc() }

// RecordReject counts one admission-control rejection.
func (s *Stats) RecordReject() { s.rejected.Inc() }

// RecordError counts one failed request.
func (s *Stats) RecordError() { s.errors.Inc() }

// RecordBatch counts one executed forward pass over size requests.
func (s *Stats) RecordBatch(size int) {
	s.batches.Inc()
	s.examples.Add(int64(size))
}

// RecordLatency adds one request's queue-to-response latency.
func (s *Stats) RecordLatency(d time.Duration) {
	s.lat.Observe(d)
}

// RecordPolicyChange counts one applied adaptive batch-ceiling change.
func (s *Stats) RecordPolicyChange() { s.policy.Inc() }

// Quantile returns the q-quantile (0 < q ≤ 1) of recorded latencies in
// milliseconds, resolved to histogram-bucket granularity (≈×√2). Returns 0
// when nothing has been recorded.
func (s *Stats) Quantile(q float64) float64 {
	return s.lat.Quantile(q)
}

// Histogram returns the latency bucket counts alongside each bucket's
// midpoint in milliseconds, trimmed to the occupied range.
func (s *Stats) Histogram() (midsMs []float64, counts []int64) {
	return s.lat.Occupied()
}

// Report is a point-in-time summary of serving telemetry, shaped for the
// /statsz endpoint and the load-generator output.
type Report struct {
	UptimeSec     float64 `json:"uptime_sec"`
	Requests      int64   `json:"requests"`
	Rejected      int64   `json:"rejected"`
	Errors        int64   `json:"errors"`
	Batches       int64   `json:"batches"`
	MeanBatch     float64 `json:"mean_batch"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"p50_ms"`
	P90Ms         float64 `json:"p90_ms"`
	P99Ms         float64 `json:"p99_ms"`
	QueueDepth    int     `json:"queue_depth"`
	ModelVersion  uint64  `json:"model_version"`
	PoolWorkers   int     `json:"pool_workers"`
	BatchCeiling  int     `json:"batch_ceiling"`
	PolicyChanges int64   `json:"policy_changes"`
}

// Snapshot summarizes the accumulated stats. queueDepth and version are
// provided by the caller (the batcher owns the queue, the publisher the
// version).
func (s *Stats) Snapshot(queueDepth int, version uint64) Report {
	up := time.Since(s.start).Seconds()
	r := Report{
		UptimeSec:     up,
		Requests:      s.requests.Value(),
		Rejected:      s.rejected.Value(),
		Errors:        s.errors.Value(),
		Batches:       s.batches.Value(),
		P50Ms:         s.Quantile(0.50),
		P90Ms:         s.Quantile(0.90),
		P99Ms:         s.Quantile(0.99),
		QueueDepth:    queueDepth,
		ModelVersion:  version,
		PolicyChanges: s.policy.Value(),
	}
	if r.Batches > 0 {
		r.MeanBatch = float64(s.examples.Value()) / float64(r.Batches)
	}
	if up > 0 {
		r.ThroughputRPS = float64(r.Requests) / up
	}
	return r
}
