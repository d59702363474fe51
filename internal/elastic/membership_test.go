package elastic_test

import (
	"context"
	"testing"
	"time"

	"heterosgd/internal/core"
	"heterosgd/internal/data"
	"heterosgd/internal/elastic"
	"heterosgd/internal/nn"
)

// The engine's worker table applies a Plan and fills in its Report; these
// tests drive scripted plans through the deterministic engine and check the
// membership contract the Report records.

// horizon is long enough for every scripted event below to fire.
const horizon = 40 * time.Millisecond

// membershipConfig is a fast two-worker (CPU + GPU) run under plan.
func membershipConfig(plan *elastic.Plan, min, max int) core.Config {
	spec := data.SynthSpec{
		Name: "tiny", N: 512, Dim: 10, Classes: 2,
		Density: 1.0, Separation: 2.5, Noise: 0.5,
		HiddenLayers: 2, HiddenUnits: 16,
	}
	cfg := core.NewConfig(core.AlgCPUGPUHogbatch, nn.MustNetwork(spec.Arch()), data.Generate(spec, 42),
		core.Preset{CPUThreads: 4, CPUMinPerThread: 1, CPUMaxPerThread: 8, GPUMin: 32, GPUMax: 128})
	cfg.BaseLR = 0.1
	cfg.RefBatch = 4
	cfg.EvalSubset = 256
	cfg.Elastic = plan
	cfg.MinWorkers, cfg.MaxWorkers = min, max
	return cfg
}

func run(t *testing.T, cfg core.Config) *core.Result {
	t.Helper()
	res, err := core.RunSim(context.Background(), cfg, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elastic == nil {
		t.Fatal("elastic run produced no report")
	}
	return res
}

// TestMembershipLifecycle: a join takes the next fresh id, a leave drains
// and then departs, an evict departs at once, and the Report counts each.
func TestMembershipLifecycle(t *testing.T) {
	res := run(t, membershipConfig(elastic.NewPlan(1,
		elastic.JoinAt(3),
		elastic.LeaveAt(0, 8),
		elastic.EvictAt(1, 14),
	), 1, 4))
	if len(res.Health.Workers) != 3 {
		t.Fatalf("%d worker slots, want the joiner at fresh id 2", len(res.Health.Workers))
	}
	for id, want := range []core.WorkerState{core.WorkerDeparted, core.WorkerDeparted, core.WorkerHealthy} {
		if got := res.Health.Workers[id].State; got != want {
			t.Fatalf("worker %d is %v, want %v", id, got, want)
		}
	}
	rep := res.Elastic
	if rep.Joins != 1 || rep.Leaves != 1 || rep.Evictions != 1 {
		t.Fatalf("report %+v, want 1 join / 1 leave / 1 eviction", rep)
	}
	if rep.Peak != 3 || rep.Final != 1 {
		t.Fatalf("report peak %d final %d, want 3 and 1", rep.Peak, rep.Final)
	}
	if !rep.Churned() {
		t.Fatal("churned report claims no churn")
	}
}

// scripted replays a fixed decision sequence, then holds.
type scripted []elastic.Decision

func (p *scripted) Decide(elastic.Sample) elastic.Decision {
	if len(*p) == 0 {
		return elastic.Hold
	}
	d := (*p)[0]
	*p = (*p)[1:]
	return d
}

func (p *scripted) String() string { return "scripted" }

// TestMembershipBounds: a join above the max and a leave below the min are
// refused, a forced eviction ignores the min, and bounds that do not admit
// the initial workers are rejected up front. A scripted join raises the max
// to cover itself, so the max is exercised by a policy grow.
func TestMembershipBounds(t *testing.T) {
	cfg := membershipConfig(nil, 2, 2)
	cfg.ElasticPolicy = &scripted{elastic.Grow, elastic.Shrink}
	res := run(t, cfg)
	if n := res.Events.Count("join-refused"); n != 1 {
		t.Fatalf("%d join refusals, want 1 (join above max)", n)
	}
	if n := res.Events.Count("leave-refused"); n != 1 {
		t.Fatalf("%d leave refusals, want 1 (leave below min)", n)
	}
	if rep := res.Elastic; rep.Joins != 0 || rep.Leaves != 0 || rep.Final != 2 {
		t.Fatalf("report %+v, want no change at the bounds", rep)
	}

	res = run(t, membershipConfig(elastic.NewPlan(1, elastic.EvictAt(0, 6)), 2, 2))
	if rep := res.Elastic; rep.Evictions != 1 || rep.Final != 1 {
		t.Fatalf("report %+v, want the eviction below min to land", rep)
	}
	if st := res.Health.Workers[0].State; st != core.WorkerDeparted {
		t.Fatalf("evicted worker is %v, want departed", st)
	}

	plan := elastic.NewPlan(1, elastic.JoinAt(2))
	for _, b := range [][2]int{{3, 4}, {1, 1}} {
		if cfg := membershipConfig(plan, b[0], b[1]); cfg.Validate() == nil {
			t.Fatalf("bounds [%d, %d] around 2 initial workers accepted", b[0], b[1])
		}
	}
}
