// Command hogtrain trains a fully-connected MLP with any of the paper's SGD
// algorithms on a real (LIBSVM) or synthetic dataset, using either the
// simulated CPU+GPU engine (virtual time, faithful device ratios) or the
// live goroutine engine (wall clock).
//
// Usage:
//
//	hogtrain -alg adaptive -dataset covtype -scale small -time 50ms
//	hogtrain -alg cpu+gpu -libsvm train.svm -engine real -time 10s
//	hogtrain -alg adaptive -libsvm real-sim.svm -sparse -time 1s
//	hogtrain -alg tf -dataset delicious -scale small -time 50ms
//
// Runs are durable: -checkpoint writes crash-consistent run-state files
// (model + scheduler + RNG state) at every epoch barrier and on exit, and
// -resume continues a run from one. SIGINT/SIGTERM interrupt gracefully —
// the run drains in-flight work, writes a final checkpoint, and exits 0:
//
//	hogtrain -alg adaptive -checkpoint run.ckpt -checkpoint-every 5s -engine real -time 10m
//	hogtrain -alg adaptive -checkpoint run.ckpt -resume run.ckpt -engine real -time 10m
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"heterosgd/internal/atomicio"
	"heterosgd/internal/buildinfo"
	"heterosgd/internal/checkpoint"
	"heterosgd/internal/core"
	"heterosgd/internal/data"
	"heterosgd/internal/elastic"
	"heterosgd/internal/experiments"
	"heterosgd/internal/faults"
	"heterosgd/internal/nn"
	"heterosgd/internal/opt"
	"heterosgd/internal/telemetry"
)

func main() {
	var (
		algName   = flag.String("alg", "adaptive", "algorithm: "+strings.Join(core.AlgorithmNames(), ", "))
		dsName    = flag.String("dataset", "covtype", "synthetic dataset: covtype, w8a, delicious, real-sim")
		libsvm    = flag.String("libsvm", "", "train on a LIBSVM file instead of synthetic data")
		multi     = flag.Bool("multilabel", false, "parse the LIBSVM file as multi-label")
		sparse    = flag.Bool("sparse", false, "keep LIBSVM features in CSR form (required for very wide inputs like real-sim)")
		scale     = flag.String("scale", "small", "synthetic scale: small, medium, full")
		engine    = flag.String("engine", "sim", "execution engine: sim (virtual clock) or real (goroutines)")
		budget    = flag.Duration("time", 50*time.Millisecond, "training budget (virtual for sim, wall for real)")
		lr        = flag.Float64("lr", 0, "base learning rate (0 = grid-tune like the paper)")
		alpha     = flag.Float64("alpha", 2, "adaptive batch scale factor α")
		beta      = flag.Float64("beta", 1, "CPU update survival fraction β")
		seed      = flag.Uint64("seed", 1, "random seed")
		csv       = flag.Bool("csv", false, "emit the loss trace as CSV")
		hidden    = flag.Int("hidden", 0, "override hidden-layer width")
		shuffled  = flag.Bool("shuffle", false, "reshuffle data between epochs")
		optName   = flag.String("opt", "sgd", "optimizer: sgd, momentum, adagrad, adam")
		schedule  = flag.String("schedule", "constant", "LR schedule: constant, step, inv-t, warmup")
		savePath  = flag.String("save", "", "write the trained model to this path")
		loadPath  = flag.String("load", "", "initialize from a model checkpoint")
		ckptPath  = flag.String("checkpoint", "", "write run-state checkpoints (model + scheduler + RNG) to this path")
		ckptEvr   = flag.Duration("checkpoint-every", 0, "also checkpoint on this wall-clock period (real engine; 0 = barriers and exit only)")
		ckptKeep  = flag.Int("checkpoint-keep", 3, "run-state generations to retain (path, path.1, ...)")
		resume    = flag.String("resume", "", "resume a run from a run-state checkpoint (same alg/seed/arch)")
		tracePath = flag.String("trace", "", "write a Chrome trace_event JSON of the run to this path (open in chrome://tracing or ui.perfetto.dev)")
		telAddr   = flag.String("telemetry-addr", "", "serve /metrics (Prometheus text) and /debug/pprof on this address during the run")
		faultStr  = flag.String("faults", "", "inject faults: crash:W:N,hang:W:N:DUR,corrupt:W:RATE (enables watchdog+guards)")
		wdSlack   = flag.Float64("watchdog-slack", 0, "quarantine a worker past slack × modeled iteration time (0 = off unless -faults)")
		wdFloor   = flag.Duration("watchdog-floor", 100*time.Millisecond, "minimum watchdog deadline")
		guards    = flag.Bool("guards", false, "enable divergence guards (drop non-finite updates, rollback on NaN loss)")
		staleness = flag.Int("staleness", 4, "SSP staleness bound s (-alg ssp): max dispatch-time steps ahead of the slowest worker")
		elasticSp = flag.String("elastic", "", "scripted membership plan: join:N,leave:W:N,evict:W:N (N = completed dispatches); 'policy' runs the load-driven autoscaler instead")
		minWork   = flag.Int("min-workers", 0, "autoscale lower bound on active workers (0 = 1)")
		maxWork   = flag.Int("max-workers", 0, "autoscale/membership upper bound on worker slots (0 = initial + scripted joins)")
		locSteps  = flag.Int("local-steps", 4, "LocalSGD local steps K per round (-alg localsgd)")
		dcLambda  = flag.Float64("dc-lambda", 0.04, "DC-ASGD compensation strength λ (-alg dcasgd; 0 = plain async)")
		showVer   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println(buildinfo.Version())
		return
	}

	alg, err := core.ParseAlgorithm(*algName)
	if err != nil {
		fatal(err)
	}
	if *engine != "sim" && *engine != "real" {
		fatal(fmt.Errorf("unknown engine %q (valid: sim, real)", *engine))
	}
	optKind, err := opt.ParseKind(*optName)
	if err != nil {
		fatal(err)
	}
	sched, err := core.ParseLRSchedule(*schedule)
	if err != nil {
		fatal(err)
	}
	sc, err := experiments.ScaleByName(*scale)
	if err != nil {
		fatal(err)
	}
	plan, err := faults.Parse(*faultStr)
	if err != nil {
		fatal(err)
	}
	if plan != nil {
		plan.Seed = *seed
	}

	var ds *data.Dataset
	var net *nn.Network
	if *libsvm != "" {
		ds, err = data.ReadLIBSVMFile(*libsvm, data.LIBSVMOptions{MultiLabel: *multi, Sparse: *sparse})
		if err != nil {
			fatal(err)
		}
		width := *hidden
		if width == 0 {
			width = sc.HiddenUnits
		}
		arch := nn.Arch{
			InputDim:   ds.Dim(),
			Hidden:     []int{width, width, width, width},
			OutputDim:  ds.NumClasses,
			Activation: nn.ActSigmoid,
			MultiLabel: ds.MultiLabel,
		}
		if ds.Sparse() {
			arch.InputDensity = ds.Density()
		}
		net, err = nn.NewNetwork(arch)
		if err != nil {
			fatal(err)
		}
	} else {
		if *hidden != 0 {
			sc.HiddenUnits = *hidden
		}
		p, perr := experiments.NewProblem(*dsName, sc, *seed)
		if perr != nil {
			fatal(perr)
		}
		ds, net = p.Dataset, p.Net
	}

	fmt.Printf("dataset: %s\n", ds)
	fmt.Printf("network: %s (%d parameters)\n", net.Arch, net.Arch.NumParameters())
	var warmStart *nn.Params
	if *loadPath != "" {
		warmStart, err = nn.LoadParamsFile(*loadPath, net)
		if err != nil {
			fatal(fmt.Errorf("checkpoint does not match this network: %w", err))
		}
		fmt.Printf("warm-starting from %s\n", *loadPath)
	}

	// SIGINT/SIGTERM cancel the run context: the engine stops scheduling,
	// drains in-flight work, writes a final checkpoint (with -checkpoint),
	// and the process exits 0 with the partial result.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	baseLR := *lr
	if baseLR == 0 {
		p := &experiments.Problem{Spec: data.SynthSpec{Name: ds.Name}, Dataset: ds, Net: net, Scale: sc}
		baseLR = experiments.TuneLR(ctx, p, *seed)
		fmt.Printf("grid-tuned base LR: %g\n", baseLR)
	}

	cfg := core.NewConfig(alg, net, ds, sc.Preset)
	cfg.BaseLR = baseLR
	cfg.Alpha = *alpha
	cfg.Beta = *beta
	cfg.Seed = *seed
	cfg.Shuffle = *shuffled
	cfg.Optimizer = optKind
	cfg.Schedule = sched
	cfg.StalenessBound = *staleness
	if *elasticSp == "policy" {
		cfg.ElasticPolicy = elastic.NewLoadPolicy()
		fmt.Printf("elastic: autoscale %s\n", cfg.ElasticPolicy)
	} else if *elasticSp != "" {
		ep, perr := elastic.Parse(*elasticSp)
		if perr != nil {
			fatal(perr)
		}
		if ep != nil {
			ep.Seed = *seed
			if verr := ep.Validate(len(cfg.Workers)); verr != nil {
				fatal(verr)
			}
		}
		cfg.Elastic = ep
	}
	cfg.MinWorkers = *minWork
	cfg.MaxWorkers = *maxWork
	cfg.LocalSteps = *locSteps
	cfg.DCLambda = *dcLambda
	cfg.InitialParams = warmStart
	cfg.SampleEvery = *budget / 25
	cfg.Faults = plan
	// Injected faults auto-enable the full fault-tolerance stack.
	if *wdSlack > 0 {
		cfg.Watchdog = &core.WatchdogConfig{Slack: *wdSlack, Floor: *wdFloor}
	} else if plan != nil {
		cfg.Watchdog = core.DefaultWatchdog()
		cfg.Watchdog.Floor = *wdFloor
	}
	if *guards || plan != nil {
		cfg.Guards = core.DefaultGuards()
	}
	if *ckptPath != "" {
		cfg.CheckpointSink = &checkpoint.Writer{Path: *ckptPath, Keep: *ckptKeep}
		cfg.CheckpointEvery = *ckptEvr
	}
	if *resume != "" {
		st, rerr := checkpoint.LoadLatest(*resume, *ckptKeep, net)
		if rerr != nil {
			fatal(fmt.Errorf("loading resume state: %w", rerr))
		}
		cfg.Resume = st
		cfg.InitialParams = nil
		fmt.Printf("resuming from %s: epoch %d, %.2f epochs done, %d updates%s\n",
			*resume, st.Epoch, float64(st.ExamplesDone)/float64(ds.N()), st.TotalUpdates,
			map[bool]string{true: " (interrupted run)", false: ""}[st.Interrupted])
	}
	if *tracePath != "" {
		cfg.Tracer = core.NewRunTracer(&cfg, 0)
	}
	if *telAddr != "" {
		reg := telemetry.NewRegistry()
		telemetry.RegisterRuntimeMetrics(reg)
		cfg.Metrics = reg
		addr, serr := telemetry.ServeDebug(*telAddr, reg)
		if serr != nil {
			fatal(fmt.Errorf("telemetry server: %w", serr))
		}
		fmt.Printf("telemetry: serving /metrics and /debug/pprof on http://%s\n", addr)
	}
	for _, w := range cfg.Workers {
		if err := core.GPUMemoryCheck(net, w); err != nil {
			fatal(err)
		}
	}
	run := core.RunSim
	if *engine == "real" {
		run = core.RunReal
	}
	res, err := run(ctx, cfg, *budget)
	if err != nil {
		fatal(err)
	}
	if tracer := cfg.Tracer; tracer != nil {
		buf, merr := tracer.MarshalChromeTrace()
		if merr != nil {
			fatal(fmt.Errorf("marshal trace: %w", merr))
		}
		if werr := atomicio.WriteFile(*tracePath, buf, 0o644); werr != nil {
			fatal(fmt.Errorf("write trace: %w", werr))
		}
		dropped := ""
		if n := tracer.Dropped(); n > 0 {
			dropped = fmt.Sprintf(" (%d dropped: ring full)", n)
		}
		fmt.Printf("trace: %d spans written to %s%s\n", tracer.Len(), *tracePath, dropped)
	}
	if res.Interrupted {
		if *ckptPath != "" {
			fmt.Printf("interrupted: drained in-flight work; run state saved (resume with -resume %s)\n", *ckptPath)
		} else {
			fmt.Println("interrupted: drained in-flight work (use -checkpoint to make interrupted runs resumable)")
		}
	}

	if *savePath != "" {
		if err := nn.SaveParamsFile(*savePath, res.Params); err != nil {
			fatal(err)
		}
		fmt.Printf("model saved to %s\n", *savePath)
	}
	experiments.WriteRunReport(os.Stdout, res, *csv)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hogtrain:", err)
	os.Exit(1)
}
