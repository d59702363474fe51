package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"heterosgd/internal/core"
	"heterosgd/internal/data"
	"heterosgd/internal/nn"
)

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"small", "medium", "full"} {
		sc, err := ScaleByName(name)
		if err != nil || sc.Name != name {
			t.Fatalf("ScaleByName(%q) = %v, %v", name, sc.Name, err)
		}
		if sc.DataFrac <= 0 || sc.DataFrac > 1 || sc.HiddenUnits < 32 {
			t.Fatalf("%s: degenerate scale %+v", name, sc)
		}
	}
	if _, err := ScaleByName("huge"); err == nil {
		t.Fatal("expected error")
	}
	if Full().DataFrac != 1 || Full().HiddenUnits != 512 {
		t.Fatal("full scale must be paper-exact")
	}
}

func TestNewProblem(t *testing.T) {
	for _, name := range []string{"covtype", "w8a", "delicious", "real-sim"} {
		p, err := NewProblem(name, Small(), 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Dataset.N() == 0 || p.Net == nil {
			t.Fatalf("%s: empty problem", name)
		}
		if p.Net.Arch.InputDim != p.Dataset.Dim() {
			t.Fatalf("%s: arch/dataset mismatch", name)
		}
		if p.GPUEpochTime() <= 0 || p.Horizon() <= p.GPUEpochTime() {
			t.Fatalf("%s: degenerate horizons", name)
		}
	}
	if _, err := NewProblem("bogus", Small(), 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestTable1ContainsPaperRows(t *testing.T) {
	out := Table1()
	for _, want := range []string{"TABLE I", "cores", "45 MB", "16 GB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I missing %q", want)
		}
	}
}

func TestTable2ContainsDatasets(t *testing.T) {
	out := Table2(Small())
	for _, want := range []string{"TABLE II", "covtype", "581012", "w8a", "delicious", "983", "real-sim", "20958", "generated at scale"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table II missing %q:\n%s", want, out)
		}
	}
	full := Table2(Full())
	if strings.Contains(full, "generated at scale") {
		t.Fatal("full scale must not print the scaled block")
	}
}

func TestSpeedRatioInPaperBand(t *testing.T) {
	out := SpeedRatio()
	if !strings.Contains(out, "236–317") {
		t.Fatal("missing paper reference band")
	}
	for _, ds := range []string{"covtype", "w8a", "delicious", "real-sim"} {
		if !strings.Contains(out, ds) {
			t.Fatalf("missing dataset %s", ds)
		}
	}
}

func TestRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"table1", "table2", "fig5", "fig6", "fig7", "fig8", "ratio"} {
		if !ids[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
	if _, err := ByID("fig5"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

func TestCheapExperimentsRun(t *testing.T) {
	opts := Options{Scale: Medium(), Seed: 1}
	for _, id := range []string{"table1", "table2", "ratio"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.Run(opts)
		if err != nil || len(out) < 40 {
			t.Fatalf("%s: %v (%d bytes)", id, err, len(out))
		}
	}
}

func TestTuneLRReturnsFiniteChoice(t *testing.T) {
	if testing.Short() {
		t.Skip("run-heavy")
	}
	p, err := NewProblem("covtype", Small(), 1)
	if err != nil {
		t.Fatal(err)
	}
	lr := TuneLR(context.Background(), p, 1)
	if lr <= 0 || lr > 3 {
		t.Fatalf("tuned LR %v outside grid", lr)
	}
}

func TestRunAllProducesFiveAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("run-heavy")
	}
	p, err := NewProblem("covtype", Small(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RunAll(context.Background(), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Order) != 5 || len(rs.Results) != 5 {
		t.Fatalf("have %d algorithms", len(rs.Results))
	}
	for name, res := range rs.Results {
		if res.TotalUpdates() == 0 {
			t.Fatalf("%s recorded no updates", name)
		}
	}

	// The headline shape: a heterogeneous algorithm converges no slower
	// than every single-device algorithm (paper Fig 5).
	reached := rs.TimeToTarget(1.25)
	bestHetero, okH := bestOf(reached, "CPU+GPU", "Adaptive")
	bestSingle, okS := bestOf(reached, "Hogbatch CPU", "Hogbatch GPU", "TensorFlow")
	if !okH {
		t.Fatal("no heterogeneous algorithm reached 1.25× best loss")
	}
	if okS && bestHetero > bestSingle {
		t.Fatalf("heterogeneous (%v) slower than single-device (%v)", bestHetero, bestSingle)
	}

	// Figure 6 output drops Hogwild CPU; Figure 5 keeps it.
	fig5 := Fig5(rs)
	fig6 := Fig6(rs)
	if !strings.Contains(fig5, "Hogbatch CPU") {
		t.Fatal("Fig5 must include Hogbatch CPU")
	}
	if strings.Contains(strings.Split(fig6, "epochs to reach")[1], "Hogbatch CPU") {
		t.Fatal("Fig6 must omit Hogbatch CPU (as the paper does)")
	}
	fig8 := Fig8(rs)
	if !strings.Contains(fig8, "CPU+GPU") || !strings.Contains(fig8, "Adaptive") {
		t.Fatalf("Fig8 incomplete:\n%s", fig8)
	}
}

func TestFig7Renders(t *testing.T) {
	if testing.Short() {
		t.Skip("run-heavy")
	}
	p, err := NewProblem("covtype", Small(), 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Fig7(context.Background(), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cpu0", "gpu0", "mean", "Adaptive", "CPU+GPU"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig7 missing %q:\n%s", want, out)
		}
	}
}

func bestOf(m map[string]time.Duration, names ...string) (time.Duration, bool) {
	best, ok := time.Duration(0), false
	for _, n := range names {
		if at, have := m[n]; have {
			if !ok || at < best {
				best, ok = at, true
			}
		}
	}
	return best, ok
}

func TestRelatedWorkComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("run-heavy")
	}
	p, err := NewProblem("covtype", Small(), 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := RelatedWork(context.Background(), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Adaptive", "AdaptiveLR", "Omnivore (exact)", "Omnivore (10× mis-est)", "barrier stall"} {
		if !strings.Contains(out, want) {
			t.Fatalf("related-work output missing %q:\n%s", want, out)
		}
	}
}

// tinyOmnivore is the Omnivore comparator on a problem small enough that the
// GPU's fixed per-iteration costs make the CPU a real contender: rounds of
// 128 examples on a two-layer, 16-unit network.
func tinyOmnivore(gpuSkew float64) core.Config {
	spec := data.SynthSpec{
		Name: "tiny", N: 512, Dim: 10, Classes: 2,
		Density: 1.0, Separation: 2.5, Noise: 0.5,
		HiddenLayers: 2, HiddenUnits: 16,
	}
	sc := Small()
	sc.Preset.GPUMax = 128
	p := &Problem{Spec: spec, Dataset: data.Generate(spec, 42), Net: nn.MustNetwork(spec.Arch()), Scale: sc}
	return omnivoreConfig(p, 1, gpuSkew)
}

func TestStallFractionGrowsWithMisestimation(t *testing.T) {
	exact, skewed := tinyOmnivore(1), tinyOmnivore(20)
	se, ss := stallFraction(&exact), stallFraction(&skewed)
	if ss <= se {
		t.Fatalf("misestimation must increase the barrier stall: %v vs %v", ss, se)
	}
	if se < 0 || se >= 1 || ss < 0 || ss >= 1 {
		t.Fatalf("stall fractions out of range: %v %v", se, ss)
	}
}

func TestMisestimationHurtsThroughput(t *testing.T) {
	// Same time budget: a badly-skewed plan should process fewer examples
	// (its rounds stall at the barrier) — the paper's critique of static
	// proportional splitting.
	run := func(gpuSkew float64) int64 {
		res, err := core.RunSim(context.Background(), tinyOmnivore(gpuSkew), 20*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return res.ExamplesProcessed
	}
	if exact, skewed := run(1), run(50); skewed >= exact {
		t.Fatalf("skewed plan should be slower: %d vs %d examples", skewed, exact)
	}
}

func TestPlanReportsAllDatasets(t *testing.T) {
	out := Plan()
	for _, want := range []string{"covtype", "w8a", "delicious", "real-sim", "epoch:", "Adaptive equilibrium", "Hogwild"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plan missing %q", want)
		}
	}
}

func TestBatchEvolutionOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("run-heavy")
	}
	p, err := NewProblem("covtype", Small(), 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := BatchEvolution(context.Background(), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cpu0", "gpu0", "final:", "resizes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("batch evolution missing %q:\n%s", want, out)
		}
	}
}

func TestVerifyCertificate(t *testing.T) {
	if testing.Short() {
		t.Skip("run-heavy")
	}
	checks, out, err := Verify(context.Background(), "covtype", Small(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) < 6 {
		t.Fatalf("only %d checks", len(checks))
	}
	if !strings.Contains(out, "claims reproduced") {
		t.Fatalf("malformed report:\n%s", out)
	}
	passed := 0
	for _, c := range checks {
		if c.Pass {
			passed++
		}
	}
	if passed < 5 {
		t.Fatalf("only %d/%d claims reproduced:\n%s", passed, len(checks), out)
	}
}
