package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// manifest mirrors BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesCode keeps BENCHMARK.json and the declarations in
// spec.go and run.go from drifting apart.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(m.Workloads) != len(workloads) || len(workloads) != 6 {
		t.Fatalf("workloads: manifest has %d, code has %d, want 6", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: manifest %q/%q, code %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.Name)
		}
	}

	compare := func(kind string, got []manifestMetric, want []metricDef, limit int, bounded bool) {
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: manifest has %d metrics, code has %d, limit %d", kind, len(got), len(want), limit)
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: manifest %+v, code %+v", kind, i, g, w)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) || (g.Better != "lower" && g.Better != "higher") {
				t.Errorf("%s %q: name, unit %q or better %q outside the contract", kind, g.Name, g.Unit, g.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || w.Bound <= 0 || w.Bound > 0.25):
				t.Errorf("%s %q: bound %v, code %v, want equal and in (0, 0.25]", kind, g.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %q: per-layer metrics carry no bound", kind, g.Name)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, 16, true)
	compare("per_layer", m.PerLayer, perLayer, 128, false)

	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
}

// TestSmokeEveryWorkload runs each workload briefly in this process, both
// passes, and checks that the result line carries exactly the declared
// metrics. The learning-quality guards are off at this length.
func TestSmokeEveryWorkload(t *testing.T) {
	passes := []bool{false, true}
	if testing.Short() {
		passes = passes[:1]
	}
	for _, def := range workloads {
		for _, traced := range passes {
			def, traced := def, traced
			name := def.name + "/end-to-end"
			if traced {
				name = def.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				out, err := runWorkload(&def, 1, 600*time.Millisecond, traced, t.TempDir(), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, %d declared", len(out.Metrics), len(want))
				}
				for _, d := range want {
					v, ok := out.Metrics[d.Name]
					if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %q: emitted %+v (present %v)", d.Name, v, ok)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %q = %v, must never be 0", d.Name, v.Value)
					}
				}
				if !out.Correct || out.Attempted < 1 || out.Failed != 0 {
					t.Errorf("correct %v, attempted %d, failed %d", out.Correct, out.Attempted, out.Failed)
				}
			})
		}
	}
}

// TestOpenLoopKeepsSchedule checks the two open-loop properties: due times
// never move when the system stalls, and the generator's lateness is
// reported, so latency from the due time charges the stall to every
// request it delayed.
func TestOpenLoopKeepsSchedule(t *testing.T) {
	const rate, n = 1000.0, 40
	const stall = 20 * time.Millisecond
	start := time.Now()
	var dues []time.Time
	var lates []time.Duration
	openLoop(start, rate, n, func(i int, due time.Time, late time.Duration) {
		dues = append(dues, due)
		lates = append(lates, late)
		if i == 10 {
			time.Sleep(stall) // a stalled Submit
		}
	})
	if len(dues) != n {
		t.Fatalf("%d sends, want %d", len(dues), n)
	}
	for i, due := range dues {
		if want := start.Add(time.Duration(i) * time.Millisecond); due != want {
			t.Errorf("request %d due %v after start, want %v", i, due.Sub(start), want.Sub(start))
		}
	}
	// Request 11 was due 1 ms after request 10 but could not be sent until
	// the stall ended: it is late by nearly the whole stall.
	if lates[11] < stall-2*time.Millisecond {
		t.Errorf("request after the stall reported %v late, want about %v", lates[11], stall)
	}
	// The generator catches up by sending at once, so lateness shrinks by
	// one interval per request and is gone before the end.
	if lates[12] > lates[11] || lates[n-1] > 10*time.Millisecond {
		t.Errorf("lateness did not drain: %v then %v, last %v", lates[11], lates[12], lates[n-1])
	}
	for i, late := range lates[:10] {
		if late < 0 {
			t.Errorf("request %d lateness %v is negative", i, late)
		}
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	at := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "core:run", Start: at(0), End: at(100), Parent: -1},
		{Name: "nn:a", Start: at(10), End: at(30), Parent: 0},
		{Name: "nn:b", Start: at(20), End: at(50), Parent: 0},     // overlaps a: 10..50 covered once
		{Name: "nn:c", Start: at(90), End: at(120), Parent: 0},    // clipped to the parent: 90..100
		{Name: "tensor:k", Start: at(12), End: at(18), Parent: 1}, // grandchild: only a's self time
		{Name: "core:virtual", Start: at(0), End: at(60), Parent: 0, Virtual: true},
	}
	self := selfTimes(spans)
	want := []time.Duration{at(50), at(14), at(30), at(30), at(6), at(60)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, self[i], want[i])
		}
	}
	rows := layerTable(spans)
	byLayer := make(map[string]layerRow)
	for _, r := range rows {
		byLayer[r.Layer] = r
	}
	if r := byLayer["nn"]; r.Spans != 3 || r.Self != at(74) || r.Total != at(80) {
		t.Errorf("nn row = %+v", r)
	}
	if r := byLayer["core (virtual clock)"]; r.Spans != 1 || r.Self != at(60) {
		t.Errorf("virtual row = %+v", r)
	}
}

func TestChromeTraceRowsNest(t *testing.T) {
	at := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "serve:req", Start: at(0), End: at(10), Parent: -1},
		{Name: "serve:req", Start: at(5), End: at(15), Parent: -1}, // overlaps without nesting: second row
		{Name: "serve:req", Start: at(6), End: at(8), Parent: -1},  // nests inside the first
		{Name: "core:gradient", Start: at(0), End: at(3), Parent: -1, Virtual: true},
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	tids := make(map[int][]chromeEvent)
	complete := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			complete++
			tids[ev.Tid] = append(tids[ev.Tid], ev)
		}
	}
	if complete != len(spans) || len(tids) != 3 {
		t.Fatalf("%d complete events on %d rows, want %d on 3", complete, len(tids), len(spans))
	}
	for tid, evs := range tids {
		for i := 1; i < len(evs); i++ {
			prev, cur := evs[i-1], evs[i]
			nested := cur.Ts >= prev.Ts && cur.Ts+cur.Dur <= prev.Ts+prev.Dur
			after := cur.Ts >= prev.Ts+prev.Dur
			if !nested && !after {
				t.Errorf("row %d: %v and %v overlap without nesting", tid, prev, cur)
			}
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1.0, 2.0, 4.0], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v, %v, want 1, 4", q1, q3)
	}
	sp := spreadOf([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if sp.Median != 5.5 || sp.IQR != 1 || math.Abs(sp.Range-9/5.5) > 1e-12 {
		t.Errorf("spreadOf(1..10) = %+v", sp)
	}
}
