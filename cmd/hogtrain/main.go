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
	"flag"
	"fmt"
	"os"
	"time"

	"heterosgd/internal/atomicio"
	"heterosgd/internal/cli"
	"heterosgd/internal/core"
	"heterosgd/internal/data"
	"heterosgd/internal/elastic"
	"heterosgd/internal/experiments"
	"heterosgd/internal/faults"
	"heterosgd/internal/nn"
	"heterosgd/internal/opt"
)

func main() {
	prob := cli.DefaultProblem()
	prob.Bind(flag.CommandLine)
	prob.BindHidden(flag.CommandLine)
	run := cli.DefaultRun()
	run.Bind(flag.CommandLine, core.AlgorithmNames())
	flag.Lookup("lr").Usage += " (0 = grid-tune like the paper)"
	var tel cli.Telemetry
	tel.Bind(flag.CommandLine)
	var (
		libsvm    = flag.String("libsvm", "", "train on a LIBSVM file instead of synthetic data")
		multi     = flag.Bool("multilabel", false, "parse the LIBSVM file as multi-label")
		sparse    = flag.Bool("sparse", false, "keep LIBSVM features in CSR form (required for very wide inputs like real-sim)")
		engine    = flag.String("engine", "sim", "execution engine: sim (virtual clock) or real (goroutines)")
		alpha     = flag.Float64("alpha", 2, "adaptive batch scale factor α")
		beta      = flag.Float64("beta", 1, "CPU update survival fraction β")
		csv       = flag.Bool("csv", false, "emit the loss trace as CSV")
		optName   = flag.String("opt", "sgd", "optimizer: sgd, momentum, adagrad, adam")
		schedule  = flag.String("schedule", "constant", "LR schedule: constant, step, inv-t, warmup")
		savePath  = flag.String("save", "", "write the trained model to this path")
		loadPath  = flag.String("load", "", "initialize from a model checkpoint")
		tracePath = flag.String("trace", "", "write a Chrome trace_event JSON of the run to this path (open in chrome://tracing or ui.perfetto.dev)")
		faultStr  = flag.String("faults", "", "inject faults: crash:W:N,hang:W:N:DUR,corrupt:W:RATE (enables watchdog+guards)")
		wdSlack   = flag.Float64("watchdog-slack", 0, "quarantine a worker past slack × modeled iteration time (0 = off unless -faults)")
		wdFloor   = flag.Duration("watchdog-floor", 100*time.Millisecond, "minimum watchdog deadline")
		elasticSp = flag.String("elastic", "", "scripted membership plan: join:N,leave:W:N,evict:W:N (N = completed dispatches); 'policy' runs the load-driven autoscaler instead")
		minWork   = flag.Int("min-workers", 0, "autoscale lower bound on active workers (0 = 1)")
		locSteps  = flag.Int("local-steps", 4, "LocalSGD local steps K per round (-alg localsgd)")
		dcLambda  = flag.Float64("dc-lambda", 0.04, "DC-ASGD compensation strength λ (-alg dcasgd; 0 = plain async)")
	)
	cli.Parse()

	if *engine != "sim" && *engine != "real" {
		cli.Fatal(fmt.Errorf("unknown engine %q (valid: sim, real)", *engine))
	}
	optKind, err := opt.ParseKind(*optName)
	if err != nil {
		cli.Fatal(err)
	}
	sched, err := core.ParseLRSchedule(*schedule)
	if err != nil {
		cli.Fatal(err)
	}
	plan, err := faults.Parse(*faultStr)
	if err != nil {
		cli.Fatal(err)
	}
	if plan != nil {
		plan.Seed = prob.Seed
	}

	sc, err := prob.Fidelity()
	if err != nil {
		cli.Fatal(err)
	}
	ds, net, err := load(prob, sc, *libsvm, data.LIBSVMOptions{MultiLabel: *multi, Sparse: *sparse})
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("dataset: %s\n", ds)
	fmt.Printf("network: %s (%d parameters)\n", net.Arch, net.Arch.NumParameters())
	var warmStart *nn.Params
	if *loadPath != "" {
		warmStart, err = nn.LoadParamsFile(*loadPath, net)
		if err != nil {
			cli.Fatal(fmt.Errorf("checkpoint does not match this network: %w", err))
		}
		fmt.Printf("warm-starting from %s\n", *loadPath)
	}

	// SIGINT/SIGTERM cancel the run context: the engine stops scheduling,
	// drains in-flight work, writes a final checkpoint (with -checkpoint),
	// and the process exits 0 with the partial result.
	ctx, stopSignals := cli.SignalContext()
	defer stopSignals()

	cfg, err := run.Config(&prob, net, ds)
	if err != nil {
		cli.Fatal(err)
	}
	if cfg.Resume == nil {
		cfg.InitialParams = warmStart
	}
	if cfg.BaseLR == 0 {
		p := &experiments.Problem{Spec: data.SynthSpec{Name: ds.Name}, Dataset: ds, Net: net, Scale: sc}
		cfg.BaseLR = experiments.TuneLR(ctx, p, prob.Seed)
		fmt.Printf("grid-tuned base LR: %g\n", cfg.BaseLR)
	}
	cfg.Alpha = *alpha
	cfg.Beta = *beta
	cfg.Optimizer = optKind
	cfg.Schedule = sched
	if *elasticSp == "policy" {
		cfg.ElasticPolicy = elastic.NewLoadPolicy()
		fmt.Printf("elastic: autoscale %s\n", cfg.ElasticPolicy)
	} else if cfg.Elastic, err = elastic.Parse(*elasticSp); err != nil {
		cli.Fatal(err)
	}
	cfg.MinWorkers = *minWork
	cfg.LocalSteps = *locSteps
	cfg.DCLambda = *dcLambda
	cfg.SampleEvery = run.Time / 25
	cfg.Faults = plan
	// Injected faults auto-enable the full fault-tolerance stack.
	if *wdSlack > 0 {
		cfg.Watchdog = &core.WatchdogConfig{Slack: *wdSlack, Floor: *wdFloor}
	} else if plan != nil {
		cfg.Watchdog = core.DefaultWatchdog()
		cfg.Watchdog.Floor = *wdFloor
	}
	cfg.Guards = cfg.Guards || plan != nil
	if *tracePath != "" {
		cfg.Tracer = core.NewRunTracer(&cfg, 0)
	}
	if cfg.Metrics, err = tel.Serve(); err != nil {
		cli.Fatal(err)
	}
	for _, w := range cfg.Workers {
		if err := core.GPUMemoryCheck(net, w); err != nil {
			cli.Fatal(err)
		}
	}
	runEngine := core.RunSim
	if *engine == "real" {
		runEngine = core.RunReal
	}
	res, err := runEngine(ctx, cfg, run.Time)
	if err != nil {
		cli.Fatal(err)
	}
	if tracer := cfg.Tracer; tracer != nil {
		buf, merr := tracer.MarshalChromeTrace()
		if merr != nil {
			cli.Fatal(fmt.Errorf("marshal trace: %w", merr))
		}
		if werr := atomicio.WriteFile(*tracePath, buf, 0o644); werr != nil {
			cli.Fatal(fmt.Errorf("write trace: %w", werr))
		}
		dropped := ""
		if n := tracer.Dropped(); n > 0 {
			dropped = fmt.Sprintf(" (%d dropped: ring full)", n)
		}
		fmt.Printf("trace: %d spans written to %s%s\n", tracer.Len(), *tracePath, dropped)
	}
	if res.Interrupted {
		if run.Checkpoint != "" {
			fmt.Printf("interrupted: drained in-flight work; run state saved (resume with -resume %s)\n", run.Checkpoint)
		} else {
			fmt.Println("interrupted: drained in-flight work (use -checkpoint to make interrupted runs resumable)")
		}
	}

	if *savePath != "" {
		if err := nn.SaveParamsFile(*savePath, res.Params); err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("model saved to %s\n", *savePath)
	}
	experiments.WriteRunReport(os.Stdout, res, *csv)
}

// load builds the run's dataset and network: the synthetic problem, or the
// LIBSVM file at path under the paper's four-hidden-layer MLP at the
// scale's width.
func load(prob cli.Problem, sc experiments.Scale, path string, opts data.LIBSVMOptions) (*data.Dataset, *nn.Network, error) {
	if path == "" {
		p, err := experiments.NewProblem(prob.Dataset, sc, prob.Seed)
		if err != nil {
			return nil, nil, err
		}
		return p.Dataset, p.Net, nil
	}
	ds, err := data.ReadLIBSVMFile(path, opts)
	if err != nil {
		return nil, nil, err
	}
	net, err := nn.NewNetwork(data.SynthSpec{
		Dim: ds.Dim(), Classes: ds.NumClasses, MultiLabel: ds.MultiLabel, Sparse: ds.Sparse(), Density: ds.Density(),
		HiddenLayers: 4, HiddenUnits: sc.HiddenUnits,
	}.Arch())
	return ds, net, err
}
