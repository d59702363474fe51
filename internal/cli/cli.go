// Package cli is the input layer of the commands under cmd/: it owns every
// flag two commands share, so each is declared, defaulted and turned into a
// core.Config in one place.
//
//   - Parse adds -version; Fatal and SignalContext are how a command stops.
//   - Telemetry is -telemetry-addr.
//   - Problem is -dataset -scale -hidden -seed: the synthetic problem every
//     process of a run must agree on.
//   - Run is the training-run flags hogtrain and hogcluster's coordinator
//     share, and Run.Config the one path from them to a core.Config,
//     including the checkpoint sink and resume.
//
// A flag a second command needs moves here. Bindings take their defaults
// from the struct's fields on entry, so two commands may default one flag
// differently, and Args renders a binding back as a child's command line.
package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"heterosgd/internal/buildinfo"
	"heterosgd/internal/checkpoint"
	"heterosgd/internal/core"
	"heterosgd/internal/data"
	"heterosgd/internal/experiments"
	"heterosgd/internal/nn"
	"heterosgd/internal/telemetry"
)

// Parse parses the command line with -version added; -version prints the
// build version and exits 0.
func Parse() {
	ver := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *ver {
		fmt.Println(buildinfo.Version())
		os.Exit(0)
	}
}

// Fatal prints err after the command's name to stderr and exits 1.
func Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", command(), err)
	os.Exit(1)
}

func command() string { return filepath.Base(os.Args[0]) }

// SignalContext is cancelled by SIGINT or SIGTERM: a run drains its
// in-flight work and the command exits 0 with what it has.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// Telemetry is the -telemetry-addr binding.
type Telemetry struct {
	Addr string
}

// Bind declares -telemetry-addr on fs.
func (t *Telemetry) Bind(fs *flag.FlagSet) {
	fs.StringVar(&t.Addr, "telemetry-addr", t.Addr, "serve /metrics (Prometheus text) and /debug/pprof on this address while the command runs")
}

// Serve starts the debug server when -telemetry-addr is set and returns the
// registry it serves, with the Go runtime gauges; nil when it is not set.
func (t *Telemetry) Serve() (*telemetry.Registry, error) {
	if t.Addr == "" {
		return nil, nil
	}
	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(reg)
	addr, err := telemetry.ServeDebug(t.Addr, reg)
	if err != nil {
		return nil, fmt.Errorf("telemetry server: %w", err)
	}
	fmt.Printf("telemetry: serving /metrics and /debug/pprof on http://%s\n", addr)
	return reg, nil
}

// Problem is the -dataset -scale -hidden -seed binding.
type Problem struct {
	Dataset string
	Scale   string
	Hidden  int
	Seed    uint64
}

// DefaultProblem is the problem a command trains unless told otherwise.
func DefaultProblem() Problem {
	return Problem{Dataset: "covtype", Scale: "small", Seed: 1}
}

// Bind declares -dataset, -scale and -seed on fs.
func (p *Problem) Bind(fs *flag.FlagSet) {
	fs.StringVar(&p.Dataset, "dataset", p.Dataset, "synthetic dataset: covtype, w8a, delicious, real-sim")
	fs.StringVar(&p.Scale, "scale", p.Scale, "scale: small, medium, full")
	fs.Uint64Var(&p.Seed, "seed", p.Seed, "random seed (must match across the processes of a cluster run)")
}

// BindHidden declares -hidden on fs, for the commands whose network width
// is not fixed by -scale alone.
func (p *Problem) BindHidden(fs *flag.FlagSet) {
	fs.IntVar(&p.Hidden, "hidden", p.Hidden, "override hidden-layer width (0 = the scale's)")
}

// Fidelity resolves -scale, with -hidden applied.
func (p *Problem) Fidelity() (experiments.Scale, error) {
	sc, err := experiments.ScaleByName(p.Scale)
	if err != nil {
		return sc, err
	}
	if p.Hidden != 0 {
		sc.HiddenUnits = p.Hidden
	}
	return sc, nil
}

// Build generates the synthetic dataset and its network.
func (p *Problem) Build() (*experiments.Problem, error) {
	sc, err := p.Fidelity()
	if err != nil {
		return nil, err
	}
	return experiments.NewProblem(p.Dataset, sc, p.Seed)
}

// Args renders the binding for a child process.
func (p Problem) Args() []string {
	return args(func(fs *flag.FlagSet) { p.Bind(fs); p.BindHidden(fs) })
}

// Run is the binding of the training-run flags hogtrain and hogcluster's
// coordinator share.
type Run struct {
	Alg             string
	LR              float64
	Time            time.Duration
	Shuffle         bool
	Guards          bool
	Staleness       int
	MaxWorkers      int
	Checkpoint      string
	CheckpointEvery time.Duration
	CheckpointKeep  int
	Resume          string
}

// DefaultRun holds hogtrain's defaults; hogcluster overrides a few.
func DefaultRun() Run {
	return Run{Alg: "adaptive", Time: 50 * time.Millisecond, Staleness: 4, CheckpointKeep: 3}
}

// Bind declares the run flags on fs; algs lists the -alg values the
// command runs, for its help text.
func (r *Run) Bind(fs *flag.FlagSet, algs []string) {
	fs.StringVar(&r.Alg, "alg", r.Alg, "algorithm: "+strings.Join(algs, ", "))
	fs.Float64Var(&r.LR, "lr", r.LR, "base learning rate")
	fs.DurationVar(&r.Time, "time", r.Time, "training budget (virtual time on the sim engine, wall time on the live ones)")
	fs.BoolVar(&r.Shuffle, "shuffle", r.Shuffle, "reshuffle data between epochs")
	fs.BoolVar(&r.Guards, "guards", r.Guards, "enable divergence guards (drop non-finite updates, roll back on a NaN loss)")
	fs.IntVar(&r.Staleness, "staleness", r.Staleness, "SSP staleness bound s (-alg ssp): max dispatch-time steps ahead of the slowest worker")
	fs.IntVar(&r.MaxWorkers, "max-workers", r.MaxWorkers, "upper bound on worker slots for autoscaling, scripted joins and live-attaching cluster joiners (0 = the initial workers plus scripted joins)")
	fs.StringVar(&r.Checkpoint, "checkpoint", r.Checkpoint, "write run-state checkpoints (model, scheduler, RNG and membership) to this path")
	fs.DurationVar(&r.CheckpointEvery, "checkpoint-every", r.CheckpointEvery, "also checkpoint on this wall-clock period (live engines; 0 = epoch barriers and exit only)")
	fs.IntVar(&r.CheckpointKeep, "checkpoint-keep", r.CheckpointKeep, "run-state generations to retain (path, path.1, ...)")
	fs.StringVar(&r.Resume, "resume", r.Resume, "resume from a run-state checkpoint (same alg/seed/arch; falls back through rotated generations)")
}

// Args renders the binding for a child process.
func (r Run) Args() []string {
	return args(func(fs *flag.FlagSet) { r.Bind(fs, nil) })
}

// Config builds the run's core.Config for net and ds: NewConfig at prob's
// seed with the batch thresholds of its scale, the flags applied, the
// checkpoint sink, and the resume state. A resume that falls back past a
// rejected newer generation records a ckpt-fallback event in the run's
// log, so the Result shows which history this run continued.
func (r *Run) Config(prob *Problem, net *nn.Network, ds *data.Dataset) (core.Config, error) {
	alg, err := core.ParseAlgorithm(r.Alg)
	if err != nil {
		return core.Config{}, err
	}
	sc, err := prob.Fidelity()
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.NewConfig(alg, net, ds, sc.Preset)
	cfg.BaseLR = r.LR
	cfg.Seed = prob.Seed
	cfg.Shuffle = r.Shuffle
	cfg.StalenessBound = r.Staleness
	cfg.MaxWorkers = r.MaxWorkers
	cfg.Guards = r.Guards
	if r.Checkpoint != "" {
		cfg.CheckpointSink = &checkpoint.Writer{Path: r.Checkpoint, Keep: r.CheckpointKeep}
		cfg.CheckpointEvery = r.CheckpointEvery
	}
	if r.Resume == "" {
		return cfg, nil
	}
	st, rep, err := checkpoint.LoadLatestReport(r.Resume, r.CheckpointKeep, net)
	if err != nil {
		return core.Config{}, fmt.Errorf("loading resume state: %w", err)
	}
	if e, ok := rep.Event(); ok {
		st.Events = append(st.Events, e)
		fmt.Fprintf(os.Stderr, "%s: checkpoint fallback: %s\n", command(), e.Detail)
	}
	cfg.Resume = st
	detail := fmt.Sprintf(", %d active workers", st.Membership.ActiveCount())
	if st.Interrupted {
		detail += " (interrupted run)"
	}
	fmt.Printf("resuming from %s: epoch %d, %.2f epochs of examples, %d updates%s\n",
		rep.Path, st.Epoch, float64(st.ExamplesDone)/float64(ds.N()), st.TotalUpdates, detail)
	return cfg, nil
}

// args renders every flag bind declares as one -name=value token, with the
// values bind's receiver holds: a boolean flag rejects a detached value.
func args(bind func(*flag.FlagSet)) []string {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	bind(fs)
	var out []string
	fs.VisitAll(func(f *flag.Flag) { out = append(out, "-"+f.Name+"="+f.Value.String()) })
	return out
}
