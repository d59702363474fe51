package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestTelemetryOverheadGuard is the telemetry layer's acceptance gate: a
// fixed-seed sim run with the tracer and metrics registry attached must
// cost no more than 5% wall clock over the identical untraced run, in the
// median of five interleaved off/on pairs. The row
// is written the way results/BENCH_telemetry.json stores it, but into the
// test's temp dir: the committed artifact regenerates only through
// `hogbench -exp telbench -benchjson results/BENCH_telemetry.json`.
func TestTelemetryOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several full sim-engine training runs")
	}
	row, out, err := TelemetryBench(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)

	if row.Spans == 0 {
		t.Fatal("traced run recorded no spans; the overhead number is meaningless")
	}
	if row.Dropped > 0 {
		t.Errorf("%d spans dropped: the default ring capacity no longer covers the bench run", row.Dropped)
	}

	path := filepath.Join(t.TempDir(), "BENCH_telemetry.json")
	if _, err := (Options{BenchOut: path}).archive(out, func() ([]byte, error) { return TelemetryBenchJSON(row) }); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back TelemetryBenchResult
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("BENCH_telemetry.json payload does not round-trip: %v", err)
	}

	const maxOverheadPct = 5.0
	if row.OverheadPct > maxOverheadPct {
		t.Fatalf("telemetry overhead %.2f%% exceeds the %.0f%% budget (off %.2fms, on %.2fms)",
			row.OverheadPct, maxOverheadPct, 1e3*row.OffSec, 1e3*row.OnSec)
	}
}
