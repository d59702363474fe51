package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func mkTrace(name string, losses ...float64) *Trace {
	t := &Trace{Name: name}
	for i, l := range losses {
		t.Add(time.Duration(i)*time.Second, float64(i), l)
	}
	return t
}

func TestTraceMinFinalAndReach(t *testing.T) {
	tr := mkTrace("a", 5, 3, 2, 2.5)
	if tr.MinLoss() != 2 {
		t.Fatalf("min = %v", tr.MinLoss())
	}
	if tr.FinalLoss() != 2.5 {
		t.Fatalf("final = %v", tr.FinalLoss())
	}
	at, ok := tr.TimeToReach(3)
	if !ok || at != time.Second {
		t.Fatalf("TimeToReach(3) = %v %v", at, ok)
	}
	ep, ok := tr.EpochsToReach(2)
	if !ok || ep != 2 {
		t.Fatalf("EpochsToReach(2) = %v %v", ep, ok)
	}
	if _, ok := tr.TimeToReach(0.5); ok {
		t.Fatal("unreachable target reported reached")
	}
	empty := &Trace{Name: "e"}
	if !math.IsInf(empty.MinLoss(), 1) || !math.IsInf(empty.FinalLoss(), 1) {
		t.Fatal("empty trace must report +Inf")
	}
}

func TestNormalizeToGlobalMin(t *testing.T) {
	a := mkTrace("a", 8, 4)
	b := mkTrace("b", 6, 2)
	traces := []*Trace{a, b}
	base := GlobalMinLoss(traces)
	if base != 2 {
		t.Fatalf("global min = %v", base)
	}
	Normalize(traces, base)
	if a.Points[0].Loss != 4 || b.Points[1].Loss != 1 {
		t.Fatalf("normalized losses wrong: %v %v", a.Points[0].Loss, b.Points[1].Loss)
	}
	// Degenerate bases leave traces untouched.
	Normalize(traces, 0)
	if a.Points[0].Loss != 4 {
		t.Fatal("base 0 must be a no-op")
	}
}

func TestEventsCountAndString(t *testing.T) {
	es := Events{
		{At: time.Millisecond, Worker: "gpu0", Kind: "crash", Detail: "boom"},
		{At: 2 * time.Millisecond, Worker: "cpu0", Kind: "redispatch", Detail: "64 examples from gpu0"},
		{At: 3 * time.Millisecond, Kind: "redispatch"},
	}
	if es.Count("redispatch") != 2 || es.Count("crash") != 1 || es.Count("rollback") != 0 {
		t.Fatalf("counts %d %d %d", es.Count("redispatch"), es.Count("crash"), es.Count("rollback"))
	}
	out := es.String()
	if strings.Count(out, "\n") != 3 || !strings.Contains(out, "gpu0     crash      boom") {
		t.Fatalf("log rendering:\n%s", out)
	}
	if Events(nil).String() != "" {
		t.Fatal("empty log must render empty")
	}
}

func TestUtilizationSeries(t *testing.T) {
	// Device busy the whole first second at 100%, half of the second
	// second at 50%.
	busy := []Busy{{0, time.Second, 1.0}, {time.Second, 1500 * time.Millisecond, 0.5}}
	s := Series(busy, 2*time.Second, time.Second)
	if len(s) != 2 {
		t.Fatalf("series length %d", len(s))
	}
	if math.Abs(s[0]-1) > 1e-9 {
		t.Fatalf("bin 0 = %v", s[0])
	}
	if math.Abs(s[1]-0.25) > 1e-9 {
		t.Fatalf("bin 1 = %v", s[1])
	}
}

func TestUtilizationSeriesSpanningBins(t *testing.T) {
	s := Series([]Busy{{500 * time.Millisecond, 2500 * time.Millisecond, 0.8}}, 3*time.Second, time.Second)
	want := []float64{0.4, 0.8, 0.4}
	for i, w := range want {
		if math.Abs(s[i]-w) > 1e-9 {
			t.Fatalf("bin %d = %v, want %v", i, s[i], w)
		}
	}
}

func TestUtilizationClampsAndIgnoresEmpty(t *testing.T) {
	busy := []Busy{
		{0, time.Second, 1},
		{0, time.Second, 1}, // overlapping → clamp at 1
		{time.Second, time.Second, 1},
	}
	s := Series(busy, time.Second, time.Second)
	if s[0] != 1 {
		t.Fatalf("clamped bin = %v", s[0])
	}
	if got := Series(busy, 0, time.Second); got != nil {
		t.Fatal("zero horizon must return nil")
	}
	if got := Series(nil, time.Second, time.Second); got[0] != 0 {
		t.Fatal("a device with no spans is all-idle")
	}
	if got := Series([]Busy{{time.Second, time.Second, 1}}, 2*time.Second, time.Second); got[0] != 0 || got[1] != 0 {
		t.Fatalf("an empty span must add nothing, got %v", got)
	}
}

func TestMeanUtilization(t *testing.T) {
	m := MeanUtilization([]Busy{{0, time.Second, 1}}, 2*time.Second)
	if math.Abs(m-0.5) > 0.02 {
		t.Fatalf("mean = %v, want ≈0.5", m)
	}
}

func TestCSV(t *testing.T) {
	out := CSV([]*Trace{mkTrace("alg", 3, 2)})
	if !strings.Contains(out, "# alg") || !strings.Contains(out, "time_s,epoch,loss") {
		t.Fatalf("CSV header missing:\n%s", out)
	}
	if !strings.Contains(out, "1.000000,1.0000,2.000000") {
		t.Fatalf("CSV data missing:\n%s", out)
	}
}

func TestASCIIChart(t *testing.T) {
	a := mkTrace("one", 4, 3, 2, 1)
	b := mkTrace("two", 4, 3.5, 3, 2.8)
	out := ASCIIChart([]*Trace{a, b}, 40, 10, false, "fig")
	if !strings.Contains(out, "fig") || !strings.Contains(out, "one") || !strings.Contains(out, "two") {
		t.Fatalf("chart missing pieces:\n%s", out)
	}
	if !strings.Contains(out, "seconds") {
		t.Fatal("time axis label missing")
	}
	epochs := ASCIIChart([]*Trace{a}, 40, 10, true, "fig6")
	if !strings.Contains(epochs, "epochs") {
		t.Fatal("epoch axis label missing")
	}
	empty := ASCIIChart([]*Trace{{Name: "e"}}, 40, 10, false, "none")
	if !strings.Contains(empty, "no data") {
		t.Fatal("empty chart should say so")
	}
}
