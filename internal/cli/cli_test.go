package cli

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"heterosgd/internal/checkpoint"
	"heterosgd/internal/core"
	"heterosgd/internal/nn"
)

// bind declares both bindings on a fresh flag set, from hogcluster's
// defaults when cluster is set and hogtrain's otherwise.
func bind(cluster bool) (*flag.FlagSet, *Problem, *Run) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	p, r := DefaultProblem(), DefaultRun()
	if cluster {
		r.LR, r.Time, r.Shuffle, r.Guards = 0.1, 2*time.Second, true, true
	}
	p.Bind(fs)
	p.BindHidden(fs)
	r.Bind(fs, core.AlgorithmNames())
	return fs, &p, &r
}

// TestBindingRoundTrip: a flag line becomes a Problem, a Run and a
// core.Config; the binding rendered as a child's arguments parses back to
// the same Problem, Run and Config, whichever command's defaults the child
// starts from.
func TestBindingRoundTrip(t *testing.T) {
	dir := t.TempDir()
	line := []string{
		"-dataset", "w8a", "-hidden", "16", "-seed", "7",
		"-alg", "ssp", "-lr", "0.07", "-time", "1s", "-shuffle", "-guards", "-staleness", "2",
		"-max-workers", "3", "-checkpoint", filepath.Join(dir, "run.ckpt"), "-checkpoint-every", "5s", "-checkpoint-keep", "2",
	}
	fs, p, r := bind(false)
	if err := fs.Parse(line); err != nil {
		t.Fatal(err)
	}
	ep, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ep.Spec.Name != "w8a" || ep.Net.Arch.Hidden[0] != 16 {
		t.Fatalf("problem %s %v, want w8a at width 16", ep.Spec.Name, ep.Net.Arch)
	}
	cfg, err := r.Config(p, ep.Net, ep.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	sink, _ := cfg.CheckpointSink.(*checkpoint.Writer)
	if cfg.Algorithm != core.AlgSSP || cfg.BaseLR != 0.07 || cfg.Seed != 7 || !cfg.Shuffle ||
		!cfg.Guards || cfg.StalenessBound != 2 || cfg.MaxWorkers != 3 || cfg.CheckpointEvery != 5*time.Second ||
		sink == nil || sink.Keep != 2 || sink.Path != filepath.Join(dir, "run.ckpt") || cfg.Resume != nil {
		t.Fatalf("config does not carry the flag line: %+v", cfg)
	}

	args := append(p.Args(), r.Args()...)
	for _, cluster := range []bool{false, true} {
		fs2, p2, r2 := bind(cluster)
		if err := fs2.Parse(args); err != nil {
			t.Fatalf("child args %q: %v", args, err)
		}
		if *p2 != *p || *r2 != *r {
			t.Fatalf("child parsed %+v %+v from %q, want %+v %+v", *p2, *r2, args, *p, *r)
		}
		cfg2, err := r2.Config(p2, ep.Net, ep.Dataset)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cfg, cfg2) {
			t.Fatalf("child config differs:\n%+v\nwant\n%+v", cfg2, cfg)
		}
	}
}

// TestResumeRecordsFallback: resuming through the binding when the newest
// generation is corrupt loads the previous one and records a ckpt-fallback
// event in the resumed run's log.
func TestResumeRecordsFallback(t *testing.T) {
	fs, p, r := bind(false)
	if err := fs.Parse([]string{"-hidden", "8"}); err != nil {
		t.Fatal(err)
	}
	ep, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	w := &checkpoint.Writer{Path: path, Keep: 3}
	for epoch := 1; epoch <= 2; epoch++ {
		st := &core.RunState{
			Algorithm: core.AlgAdaptiveHogbatch, Seed: 1, Epoch: epoch,
			Batch: []int{56, 256}, Updates: []int64{0, 0}, LRMult: []float64{1, 1},
			Membership: &core.MembershipState{States: []int{0, 0}},
			Params:     ep.Net.NewParams(nn.InitXavier, core.RunRNG(1)),
		}
		if err := w.WriteState(st); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	r.Resume = path
	cfg, err := r.Config(p, ep.Net, ep.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Resume == nil || cfg.Resume.Epoch != 1 {
		t.Fatalf("resumed %+v, want the epoch-1 generation", cfg.Resume)
	}
	evs := cfg.Resume.Events
	if len(evs) == 0 || evs[len(evs)-1].Kind != "ckpt-fallback" {
		t.Fatalf("resume events %+v end without a ckpt-fallback", evs)
	}
}
