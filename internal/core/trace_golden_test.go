package core

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"heterosgd/internal/telemetry"
)

// runGoldenTrace produces the Chrome trace JSON for a fixed-seed adaptive
// sim run. Every span is stamped with the virtual clock and modeled
// durations, so the bytes are fully deterministic.
func runGoldenTrace(t *testing.T) []byte {
	t.Helper()
	// A quarter of the usual horizon keeps the checked-in file small while
	// still covering several epochs and batch resizes.
	horizon := simHorizon / 4
	cfg := tinyConfig(t, AlgAdaptiveHogbatch)
	cfg.SampleEvery = horizon / 10
	cfg.Tracer = NewRunTracer(&cfg, 0)
	if _, err := RunSim(context.Background(), cfg, horizon); err != nil {
		t.Fatal(err)
	}
	buf, err := cfg.Tracer.MarshalChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestGoldenChromeTrace pins the tracer's Chrome trace_event export for a
// fixed-seed sim run byte-for-byte: the sim engine is deterministic, so any
// drift means either the engine's schedule changed or the exporter's format
// changed. Intended changes regenerate the file with
// `go test ./internal/core/ -run TestGoldenChromeTrace -update-golden`.
func TestGoldenChromeTrace(t *testing.T) {
	path := filepath.Join("testdata", "golden_trace_chrome.json")
	got := runGoldenTrace(t)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}

	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace export drifted from golden file (%d bytes, golden %d); regenerate with -update-golden if intended",
			len(got), len(want))
	}

	// Independent of the exact bytes, the export must be valid trace_event
	// JSON with at least one span on every ring.
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want \"ms\"", doc.DisplayTimeUnit)
	}
	spansPerTid := map[int]int{}
	meta := 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			spansPerTid[e.Tid]++
		default:
			t.Errorf("unexpected event phase %q", e.Ph)
		}
	}
	cfg := tinyConfig(t, AlgAdaptiveHogbatch)
	rings := len(cfg.Workers) + 1 // workers + coordinator
	if meta != rings {
		t.Errorf("%d thread_name metadata events, want %d", meta, rings)
	}
	for tid := 0; tid < rings; tid++ {
		if spansPerTid[tid] == 0 {
			t.Errorf("ring %d has no spans", tid)
		}
	}
}

// TestTraceDisabledByDefault pins the zero-cost contract: a run without a
// tracer must behave identically to one with, and a nil tracer must export
// an empty (but valid) trace document.
func TestTraceDisabledByDefault(t *testing.T) {
	cfg := tinyConfig(t, AlgAdaptiveHogbatch)
	if cfg.Tracer != nil || cfg.Metrics != nil {
		t.Fatal("telemetry must be off by default")
	}
	res, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}

	traced := tinyConfig(t, AlgAdaptiveHogbatch)
	traced.Tracer = NewRunTracer(&traced, 0)
	traced.Metrics = telemetry.NewRegistry()
	res2, err := RunSim(context.Background(), traced, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss != res2.FinalLoss || res.TotalUpdates() != res2.TotalUpdates() {
		t.Errorf("telemetry changed the run: loss %v vs %v, updates %d vs %d",
			res.FinalLoss, res2.FinalLoss, res.TotalUpdates(), res2.TotalUpdates())
	}
	if got := traced.Metrics.Counter("train_updates_total").Value(); got != res2.TotalUpdates() {
		t.Errorf("train_updates_total = %d, want %d", got, res2.TotalUpdates())
	}
}
