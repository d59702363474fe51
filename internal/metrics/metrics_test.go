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

func TestUpdateCounter(t *testing.T) {
	c := NewUpdateCounter()
	for i := 0; i < 800; i++ {
		c.Add("cpu0", 2)
		c.Add("gpu0", 1)
	}
	if c.Get("cpu0") != 1600 || c.Get("gpu0") != 800 {
		t.Fatalf("counts %d %d", c.Get("cpu0"), c.Get("gpu0"))
	}
	if c.Total() != 2400 {
		t.Fatalf("total %d", c.Total())
	}
	if s := c.Share("cpu0"); math.Abs(s-2.0/3) > 1e-12 {
		t.Fatalf("share %v", s)
	}
	snap := c.Snapshot()
	if snap["gpu0"] != 800 {
		t.Fatalf("snapshot %v", snap)
	}
	snap["gpu0"] = 0
	if c.Get("gpu0") != 800 {
		t.Fatal("snapshot must be a copy")
	}
	if NewUpdateCounter().Share("x") != 0 {
		t.Fatal("empty counter share must be 0")
	}
}

func TestUtilizationSeries(t *testing.T) {
	u := NewUtilizationTrace()
	// Device busy the whole first second at 100%, half of the second
	// second at 50%.
	u.AddBusy("gpu0", 0, time.Second, 1.0)
	u.AddBusy("gpu0", time.Second, 1500*time.Millisecond, 0.5)
	s := u.Series("gpu0", 2*time.Second, time.Second)
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
	u := NewUtilizationTrace()
	u.AddBusy("cpu0", 500*time.Millisecond, 2500*time.Millisecond, 0.8)
	s := u.Series("cpu0", 3*time.Second, time.Second)
	want := []float64{0.4, 0.8, 0.4}
	for i, w := range want {
		if math.Abs(s[i]-w) > 1e-9 {
			t.Fatalf("bin %d = %v, want %v", i, s[i], w)
		}
	}
}

func TestUtilizationClampsAndIgnoresEmpty(t *testing.T) {
	u := NewUtilizationTrace()
	u.AddBusy("d", 0, time.Second, 1)
	u.AddBusy("d", 0, time.Second, 1) // overlapping → clamp at 1
	u.AddBusy("d", time.Second, time.Second, 1)
	s := u.Series("d", time.Second, time.Second)
	if s[0] != 1 {
		t.Fatalf("clamped bin = %v", s[0])
	}
	if got := u.Series("d", 0, time.Second); got != nil {
		t.Fatal("zero horizon must return nil")
	}
	if got := u.Series("missing", time.Second, time.Second); got[0] != 0 {
		t.Fatal("unknown devices are all-idle")
	}
}

func TestMeanUtilization(t *testing.T) {
	u := NewUtilizationTrace()
	u.AddBusy("d", 0, time.Second, 1)
	m := u.MeanUtilization("d", 2*time.Second)
	if math.Abs(m-0.5) > 0.02 {
		t.Fatalf("mean = %v, want ≈0.5", m)
	}
}

func TestDevicesSorted(t *testing.T) {
	u := NewUtilizationTrace()
	u.AddBusy("gpu0", 0, 1, 1)
	u.AddBusy("cpu0", 0, 1, 1)
	d := u.Devices()
	if len(d) != 2 || d[0] != "cpu0" || d[1] != "gpu0" {
		t.Fatalf("devices %v", d)
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
