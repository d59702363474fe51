package core

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"heterosgd/internal/device"
	"heterosgd/internal/elastic"
	"heterosgd/internal/faults"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_traces.json from the current engine output")

// goldenTrace is one checked-in reference run: an algorithm's fault-free
// trajectory, or (Recovery set) a recovery scenario's.
type goldenTrace struct {
	Algorithm string          `json:"algorithm"`
	Updates   int64           `json:"updates"`
	FinalLoss float64         `json:"final_loss"`
	Points    []goldenPoint   `json:"points"`
	Recovery  *goldenRecovery `json:"recovery,omitempty"`
}

// goldenRecovery pins what a loss trace alone cannot: how often the recovery
// state machine, the SSP gate and the membership manager acted. Same-seed
// determinism tests pass on any consistent behaviour change; these do not.
type goldenRecovery struct {
	Redispatches int             `json:"redispatches"`
	Quarantines  int             `json:"quarantines"`
	Readmissions int             `json:"readmissions"`
	Crashes      int             `json:"crashes"`
	StaleMax     int64           `json:"stale_max"`
	Blocked      int64           `json:"blocked"`
	Examples     int64           `json:"examples"`
	Elastic      *elastic.Report `json:"elastic,omitempty"`
}

type goldenPoint struct {
	TimeNS int64   `json:"time_ns"`
	Epoch  float64 `json:"epoch"`
	Loss   float64 `json:"loss"`
}

// goldenAlgorithms are the paper's four headline algorithms (Figure 4) plus
// the three consistency modes; the consistency-mode entries pin the SSP
// gate, the LocalSGD round barrier, and DC-ASGD's compensation byte for
// byte, so an accidental semantic change to any of them fails here.
var goldenAlgorithms = []Algorithm{
	AlgHogbatchCPU, AlgHogbatchGPU, AlgCPUGPUHogbatch, AlgAdaptiveHogbatch,
	AlgSSP, AlgLocalSGD, AlgDCASGD,
}

// goldenScenarios are the sim paths the fault-free entries never reach:
// crash → re-dispatch, hang → quarantine → readmission (once with a healthy
// survivor, once with none, so the pending queue is used), the SSP gate
// parking a fast worker behind a slowed one, and join/leave/evict churn.
var goldenScenarios = []struct {
	name string
	cfg  func(t *testing.T) Config
}{
	{"scenario: hang, crash, hang with a watchdog", func(t *testing.T) Config {
		cfg := tinyConfig(t, AlgCPUGPUHogbatch)
		cfg.Faults = faults.NewPlan(7,
			faults.HangAfter(1, 4, time.Millisecond),
			faults.CrashAfter(0, 1500),
			faults.HangAfter(1, 40, time.Millisecond))
		cfg.Watchdog = &WatchdogConfig{Slack: 2, Floor: 10 * time.Microsecond}
		return cfg
	}},
	{"scenario: SSP bound 1 with a slowed worker", func(t *testing.T) Config {
		cfg := tinyConfig(t, AlgSSP)
		cfg.StalenessBound = 1
		cfg.Workers[0].Device = device.NewThrottled(cfg.Workers[0].Device, 20, 3)
		return cfg
	}},
	{"scenario: join, join, leave, evict", func(t *testing.T) Config {
		cfg := tinyConfig(t, AlgCPUGPUHogbatch)
		cfg.Shuffle = true
		cfg.Elastic = elastic.NewPlan(7,
			elastic.JoinAt(4), elastic.JoinAt(900), elastic.LeaveAt(1, 1500), elastic.EvictAt(3, 2500))
		return cfg
	}},
}

// goldenCases lists every entry of golden_traces.json in file order: the
// seven algorithms, then the recovery scenarios.
func goldenCases() (names []string, runs []func(t *testing.T) goldenTrace) {
	for _, alg := range goldenAlgorithms {
		alg := alg
		names = append(names, alg.String())
		runs = append(runs, func(t *testing.T) goldenTrace {
			return runGolden(t, alg.String(), tinyConfig(t, alg), false)
		})
	}
	for _, sc := range goldenScenarios {
		sc := sc
		names = append(names, sc.name)
		runs = append(runs, func(t *testing.T) goldenTrace {
			return runGolden(t, sc.name, sc.cfg(t), true)
		})
	}
	return names, runs
}

func runGolden(t *testing.T, name string, cfg Config, recovery bool) goldenTrace {
	t.Helper()
	cfg.SampleEvery = simHorizon / 10
	res, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	g := goldenTrace{Algorithm: name, Updates: res.Updates.Total(), FinalLoss: res.FinalLoss}
	for _, p := range res.Trace.Points {
		g.Points = append(g.Points, goldenPoint{TimeNS: int64(p.Time), Epoch: p.Epoch, Loss: p.Loss})
	}
	if recovery {
		r := &goldenRecovery{
			Redispatches: res.Health.Redispatches,
			StaleMax:     res.Staleness.Max,
			Blocked:      res.Staleness.Blocked,
			Examples:     res.ExamplesProcessed,
			Elastic:      res.Elastic,
		}
		for _, w := range res.Health.Workers {
			r.Quarantines += w.Timeouts
			r.Readmissions += w.Readmissions
			r.Crashes += w.Crashes
		}
		g.Recovery = r
	}
	return g
}

// TestGoldenTraces pins the sim engine's exact training trajectories: every
// fixed-seed run of the seven algorithms and the recovery scenarios must
// reproduce the checked-in loss trace (and, for scenarios, the counters).
// The sim engine is deterministic (virtual clock, one writer, kernels whose
// bits do not depend on how many cores they fork across), so any drift here
// means a numerical change somewhere in the data→tensor→nn→core stack —
// intended changes regenerate the file with
// `go test ./internal/core/ -run TestGoldenTraces -update-golden`.
func TestGoldenTraces(t *testing.T) {
	path := filepath.Join("testdata", "golden_traces.json")
	names, runs := goldenCases()

	if *updateGolden {
		var traces []goldenTrace
		for _, run := range runs {
			traces = append(traces, run(t))
		}
		buf, err := json.MarshalIndent(traces, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d traces", path, len(traces))
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update-golden): %v", err)
	}
	var want []goldenTrace
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if len(want) != len(names) {
		t.Fatalf("golden file has %d traces, want %d", len(want), len(names))
	}

	const relTol = 1e-6
	closeEnough := func(a, b float64) bool {
		return math.Abs(a-b) <= relTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	}
	for i, alg := range names {
		g := want[i]
		if g.Algorithm != alg {
			t.Fatalf("golden trace %d is %q, want %q", i, g.Algorithm, alg)
		}
		got := runs[i](t)
		gr, _ := json.Marshal(got.Recovery)
		wr, _ := json.Marshal(g.Recovery)
		if string(gr) != string(wr) {
			t.Errorf("%v: recovery counters %s, golden %s", alg, gr, wr)
		}
		if got.Updates != g.Updates {
			t.Errorf("%v: %d updates, golden %d", alg, got.Updates, g.Updates)
		}
		if !closeEnough(got.FinalLoss, g.FinalLoss) {
			t.Errorf("%v: final loss %v, golden %v", alg, got.FinalLoss, g.FinalLoss)
		}
		if len(got.Points) != len(g.Points) {
			t.Errorf("%v: %d trace points, golden %d", alg, len(got.Points), len(g.Points))
			continue
		}
		for j, p := range got.Points {
			w := g.Points[j]
			if p.TimeNS != w.TimeNS || !closeEnough(p.Epoch, w.Epoch) || !closeEnough(p.Loss, w.Loss) {
				t.Errorf("%v: point %d = {%v %.6g %.9g}, golden {%v %.6g %.9g}",
					alg, j, time.Duration(p.TimeNS), p.Epoch, p.Loss,
					time.Duration(w.TimeNS), w.Epoch, w.Loss)
			}
		}
	}
}
