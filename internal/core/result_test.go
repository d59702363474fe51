package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"heterosgd/internal/metrics"
)

func resultWithUpdates(counts map[string]int64) *Result {
	tr := &metrics.Trace{Name: "x"}
	tr.Add(0, 0, 2)
	tr.Add(time.Second, 1, 1)
	return &Result{
		Algorithm: AlgCPUGPUHogbatch,
		Trace:     tr,
		Updates:   counts,
		FinalLoss: 1,
		Epochs:    1,
		Duration:  time.Second,
	}
}

func TestCPUShare(t *testing.T) {
	cases := []struct {
		counts map[string]int64
		want   float64
	}{
		{map[string]int64{"cpu0": 75, "gpu0": 25}, 0.75},
		{map[string]int64{"cpu0": 40, "cpu1": 40, "gpu0": 20}, 0.8},
		{map[string]int64{"gpu0": 10}, 0},
		{map[string]int64{}, 0},
	}
	for i, c := range cases {
		r := resultWithUpdates(c.counts)
		if got := r.CPUShare(); got != c.want {
			t.Fatalf("case %d: share %v, want %v", i, got, c.want)
		}
	}
}

func TestResultString(t *testing.T) {
	r := resultWithUpdates(map[string]int64{"cpu0": 3, "gpu0": 1})
	s := r.String()
	for _, want := range []string{"CPU+GPU", "epochs", "loss", "75%"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q: %s", want, s)
		}
	}
	// Empty-trace results must not panic.
	empty := &Result{Algorithm: AlgHogbatchCPU, Trace: &metrics.Trace{}}
	if empty.String() == "" {
		t.Fatal("empty result summary")
	}
}

func TestBatchTraceRecordedInSim(t *testing.T) {
	cfg := tinyConfig(t, AlgAdaptiveHogbatch)
	res, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BatchTrace) < 2 {
		t.Fatalf("adaptive run recorded %d batch events", len(res.BatchTrace))
	}
	// First events record the initial batch sizes at t=0.
	if res.BatchTrace[0].At != 0 {
		t.Fatalf("first event at %v", res.BatchTrace[0].At)
	}
	prev := time.Duration(-1)
	for _, ev := range res.BatchTrace {
		if ev.At < prev {
			t.Fatal("batch trace timestamps regress")
		}
		prev = ev.At
		if ev.Size <= 0 || ev.Worker == "" {
			t.Fatalf("malformed event %+v", ev)
		}
	}
}

func TestBatchTraceStaticOnlyInitial(t *testing.T) {
	cfg := tinyConfig(t, AlgCPUGPUHogbatch)
	res, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	// Static: exactly one event per worker (the initial size).
	if len(res.BatchTrace) != len(cfg.Workers) {
		t.Fatalf("static run recorded %d events, want %d", len(res.BatchTrace), len(cfg.Workers))
	}
}
