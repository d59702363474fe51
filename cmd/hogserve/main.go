// Command hogserve serves online predictions from a heterosgd model. It can
// load a serialized checkpoint, or attach to a live training run — the
// engine publishes lock-free snapshots into the server while Hogwild
// workers keep updating the shared model. Serving runs on a pool of workers
// (-serve-workers), each owning a pre-allocated forward workspace, pulling
// coalesced micro-batches from the shared admission queue; -adaptive-batch
// replaces the static -max-batch ceiling with a telemetry-driven controller.
//
// A load-generator mode measures micro-batching before/after: a
// single-worker baseline sweep, a multi-worker adaptive pool
// sweep, per-request allocation counts, and (with -soak) a sustained-load
// soak — live training, SIGHUP hot reloads, and closed-loop traffic all at
// once — written to results/BENCH_serve.json.
//
// Usage:
//
//	hogserve -model covtype.hgm -dataset covtype -scale small
//	hogserve -train -dataset covtype -scale small -time 30s
//	hogserve -serve-workers 4 -adaptive-batch -model covtype.hgm
//	hogserve -bench -clients 64 -bench-time 2s -serve-workers 4
//	hogserve -soak -soak-time 20s -serve-workers 4
//
//	curl -s localhost:8080/v1/predict -d '{"instances": [[0.1, 0.2, ...]]}'
//
// Lifecycle: SIGINT/SIGTERM drain gracefully — in-flight HTTP requests
// complete, an attached training run drains its in-flight batches, and the
// process exits 0. SIGHUP hot-reloads the -model checkpoint into the
// publisher without dropping a request.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"heterosgd/internal/atomicio"
	"heterosgd/internal/cli"
	"heterosgd/internal/core"
	"heterosgd/internal/data"
	"heterosgd/internal/device"
	"heterosgd/internal/experiments"
	"heterosgd/internal/nn"
	"heterosgd/internal/serve"
	"heterosgd/internal/telemetry"
	"heterosgd/internal/tensor"
)

func main() {
	prob := cli.DefaultProblem()
	prob.Bind(flag.CommandLine)
	prob.BindHidden(flag.CommandLine)
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		modelPath = flag.String("model", "", "serve this serialized model checkpoint")
		train     = flag.Bool("train", false, "attach to a live training run (serve while training)")
		budget    = flag.Duration("time", 30*time.Second, "training budget for -train")
		algName   = flag.String("alg", "cpu+gpu", "training algorithm for -train")
		snapEvery = flag.Duration("snapshot-every", 250*time.Millisecond, "snapshot publish period for -train")
		maxBatch  = flag.Int("max-batch", 0, "micro-batch ceiling (0 = auto from the device cost model)")
		maxWait   = flag.Duration("max-wait", 500*time.Microsecond, "max time the first request of a batch waits for company")
		queueCap  = flag.Int("queue-cap", 0, "admission queue capacity (0 = 4×max-batch)")
		workers   = flag.Int("workers", 1, "intra-forward parallelism")
		poolSize  = flag.Int("serve-workers", 1, "inference pool workers, each with a private pre-allocated workspace")
		adaptive  = flag.Bool("adaptive-batch", false, "adapt the micro-batch ceiling from telemetry instead of the static -max-batch")
		bench     = flag.Bool("bench", false, "run the load generator instead of serving")
		clients   = flag.Int("clients", 64, "concurrent closed-loop clients for -bench and -soak")
		benchTime = flag.Duration("bench-time", 2*time.Second, "measurement window per micro-batch size for -bench")
		benchOut  = flag.String("bench-out", filepath.Join("results", "BENCH_serve.json"), "output path for -bench/-soak JSON")
		soak      = flag.Bool("soak", false, "run the sustained-load soak: live training + SIGHUP reloads + traffic")
		soakTime  = flag.Duration("soak-time", 20*time.Second, "soak duration")
	)
	cli.Parse()

	if *bench || *soak {
		cfg := benchConfig{
			Out:       *benchOut,
			Problem:   prob,
			Clients:   *clients,
			Window:    *benchTime,
			Workers:   *workers,
			Pool:      *poolSize,
			MaxBatch:  *maxBatch,
			Sweep:     *bench,
			Soak:      *soak,
			SoakTime:  *soakTime,
			Algorithm: *algName,
		}
		if err := runBench(cfg); err != nil {
			cli.Fatal(err)
		}
		return
	}

	if *modelPath == "" && !*train {
		cli.Fatal(fmt.Errorf("nothing to serve: pass -model <path> or -train"))
	}

	p, err := prob.Build()
	if err != nil {
		cli.Fatal(err)
	}
	net := p.Net
	pub := serve.NewPublisher(net)

	if *modelPath != "" {
		params, err := nn.LoadParamsFile(*modelPath, net)
		if err != nil {
			cli.Fatal(fmt.Errorf("checkpoint does not match the %s/%s network: %w", prob.Dataset, prob.Scale, err))
		}
		pub.PublishParams(params)
		fmt.Printf("serving checkpoint %s (model version %d)\n", *modelPath, pub.Version())
	}

	// SIGINT/SIGTERM start the graceful drain; SIGHUP hot-reloads -model.
	ctx, stopSignals := cli.SignalContext()
	defer stopSignals()

	// One shared registry backs the serving stats, the attached training
	// run's train_*/msgq_* series, and the Go runtime gauges; the debug mux
	// exposes it as Prometheus text on /metrics next to /debug/pprof.
	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(reg)

	opts := serve.Options{
		MaxBatch: *maxBatch, MaxWait: *maxWait, QueueCap: *queueCap,
		Workers: *workers, PoolWorkers: *poolSize, Adaptive: *adaptive,
		Metrics: reg,
	}
	b := serve.NewBatcher(pub, opts)
	defer b.Close()
	server := serve.NewServer(b)
	debug := telemetry.NewDebugMux(reg)
	server.Handle("/metrics", debug)
	server.Handle("/debug/pprof/", debug)

	// trainDone closes when an attached training run finishes (or drains
	// after cancellation); trainRes holds its result for /statsz.
	var trainRes atomic.Pointer[core.Result]
	trainDone := make(chan struct{})
	if *train {
		cfg, err := trainConfig(prob, p, *algName, pub, *snapEvery, reg)
		if err != nil {
			cli.Fatal(err)
		}
		runc := startTraining(ctx, cfg, *budget)
		go func() {
			defer close(trainDone)
			run := <-runc
			if run.err != nil {
				cli.Fatal(run.err)
			}
			res := run.res
			trainRes.Store(res)
			fmt.Println(res)
			if res.Interrupted {
				fmt.Printf("training interrupted; serving last snapshot (version %d)\n", pub.Version())
				return
			}
			fmt.Printf("training finished; serving final model (version %d)\n", pub.Version())
		}()
		// liveQueues filters the shared registry down to the engine's
		// message-queue and network-transport instruments (msgq_* from the
		// in-process transport, transport_* from TCP links), so /statsz
		// shows queue pressure — dropped pushes in particular — while the
		// run is still going, not only in the post-run report.
		liveQueues := func() map[string]any {
			out := make(map[string]any)
			for name, v := range reg.Snapshot() {
				if strings.HasPrefix(name, "msgq_") || strings.HasPrefix(name, "transport_") {
					out[name] = v
				}
			}
			return out
		}
		server.AddStats("training", func() any {
			res := trainRes.Load()
			if res == nil {
				return map[string]any{
					"state":         "running",
					"model_version": pub.Version(),
					"queues":        liveQueues(),
				}
			}
			q := res.Health.Queue
			return map[string]any{
				"state":       map[bool]string{true: "interrupted", false: "finished"}[res.Interrupted],
				"epochs":      res.Epochs,
				"final_loss":  res.FinalLoss,
				"updates":     res.TotalUpdates(),
				"queue":       map[string]uint64{"pushed": q.Pushed, "popped": q.Popped, "dropped": q.Dropped},
				"queues":      liveQueues(),
				"faulty":      res.Health.Faulty(),
				"interrupted": res.Interrupted,
			}
		})
		fmt.Printf("training %s on %s for %v, snapshot every %v\n", cfg.Algorithm, p.Dataset.Name, *budget, *snapEvery)
	} else {
		close(trainDone)
	}

	if *modelPath != "" {
		reloadOnHUP(*modelPath, net, pub)
	}

	srv := &http.Server{Addr: *addr, Handler: server}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("listening on %s  (pool %d, max-batch %d%s, max-wait %v, queue %d)\n",
		*addr, b.Options().PoolWorkers, b.Options().MaxBatch,
		map[bool]string{true: " adaptive", false: ""}[b.Options().Adaptive],
		b.Options().MaxWait, b.Options().QueueCap)

	select {
	case err := <-errc:
		cli.Fatal(err)
	case <-ctx.Done():
		fmt.Println("signal received; draining")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "hogserve: shutdown:", err)
		}
		// The engine observes the same context; wait for its drain so the
		// exit is clean (bounded by the run's in-flight work).
		<-trainDone
		fmt.Println("drained; bye")
	}
}

// trainConfig is the run -train attaches to pub, and the one the soak trains:
// algName on p's model and data, on the scale's own batch thresholds (not
// the problem's clamped ones), with Hogwild writes under the model lock and
// a snapshot published every `every`.
func trainConfig(prob cli.Problem, p *experiments.Problem, algName string, pub *serve.Publisher, every time.Duration, reg *telemetry.Registry) (core.Config, error) {
	alg, err := core.ParseAlgorithm(algName)
	if err != nil {
		return core.Config{}, err
	}
	sc, err := prob.Fidelity()
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.NewConfig(alg, p.Net, p.Dataset, sc.Preset)
	cfg.BaseLR = 0.05
	cfg.Seed = prob.Seed
	cfg.UpdateMode = tensor.UpdateLocked
	cfg.SnapshotSink = pub
	cfg.SnapshotEvery = every
	cfg.Metrics = reg
	return cfg, nil
}

// trainRun is an attached training run's outcome.
type trainRun struct {
	res *core.Result
	err error
}

// startTraining runs cfg for budget on a goroutine of its own; the outcome
// arrives on the returned channel.
func startTraining(ctx context.Context, cfg core.Config, budget time.Duration) <-chan trainRun {
	out := make(chan trainRun, 1)
	go func() {
		res, err := core.RunReal(ctx, cfg, budget)
		out <- trainRun{res, err}
	}()
	return out
}

// reloadOnHUP republishes the checkpoint at path into pub on every SIGHUP —
// a checkpoint that fails to load keeps the current model — until stop is
// called. stop returns how many reloads landed.
func reloadOnHUP(path string, net *nn.Network, pub *serve.Publisher) (stop func() int64) {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	done := make(chan struct{})
	var reloads int64
	go func() {
		defer close(done)
		for range hup {
			params, err := nn.LoadParamsFile(path, net)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hogserve: SIGHUP reload of %s failed (keeping current model): %v\n", path, err)
				continue
			}
			pub.PublishParams(params)
			reloads++
			fmt.Printf("SIGHUP: reloaded %s (model version %d)\n", path, pub.Version())
		}
	}()
	return func() int64 {
		signal.Stop(hup)
		close(hup)
		<-done
		return reloads
	}
}

// benchConfig carries the shared knobs for -bench and -soak.
type benchConfig struct {
	Out       string
	Problem   cli.Problem
	Clients   int
	Window    time.Duration
	Workers   int
	Pool      int
	MaxBatch  int
	Sweep     bool
	Soak      bool
	SoakTime  time.Duration
	Algorithm string
}

// serveBenchRow is one load-generator measurement: fixed client count,
// one serving configuration.
type serveBenchRow struct {
	MaxBatch      int     `json:"max_batch"`
	MaxWaitMs     float64 `json:"max_wait_ms"`
	Workers       int     `json:"workers"`
	PoolWorkers   int     `json:"pool_workers"`
	Adaptive      bool    `json:"adaptive"`
	DurationSec   float64 `json:"duration_sec"`
	Requests      int64   `json:"requests"`
	Rejected      int64   `json:"rejected"`
	MeanBatch     float64 `json:"mean_batch"`
	BatchCeiling  int     `json:"batch_ceiling"`
	PolicyChanges int64   `json:"policy_changes"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"p50_ms"`
	P90Ms         float64 `json:"p90_ms"`
	P99Ms         float64 `json:"p99_ms"`
	SpeedupVsB1   float64 `json:"speedup_vs_batch1"`
}

// allocReport records end-to-end heap traffic per request under the pool
// configuration. It includes the unavoidable request envelope (request
// struct, response channel, score backing); the worker forward path itself
// is pinned at zero allocations by TestPoolWorkerForwardPathZeroAlloc.
type allocReport struct {
	Requests          int64   `json:"requests"`
	MallocsPerRequest float64 `json:"mallocs_per_request"`
	BytesPerRequest   float64 `json:"bytes_per_request"`
	Note              string  `json:"note"`
}

// soakReport summarizes the sustained-load soak: live training, SIGHUP hot
// reloads, and closed-loop traffic against the adaptive pool, all at once.
type soakReport struct {
	DurationSec        float64 `json:"duration_sec"`
	PoolWorkers        int     `json:"pool_workers"`
	Clients            int     `json:"clients"`
	Requests           int64   `json:"requests"`
	Rejected           int64   `json:"rejected"`
	ThroughputRPS      float64 `json:"throughput_rps"`
	MeanBatch          float64 `json:"mean_batch"`
	FinalBatchCeiling  int     `json:"final_batch_ceiling"`
	PolicyChanges      int64   `json:"policy_changes"`
	P50Ms              float64 `json:"p50_ms"`
	P99Ms              float64 `json:"p99_ms"`
	HistogramBuckets   int     `json:"latency_histogram_buckets"`
	SnapshotsPublished uint64  `json:"snapshots_published"`
	SighupReloads      int64   `json:"sighup_reloads"`
	VersionRegressions int64   `json:"version_regressions"`
	FinalVersionLag    uint64  `json:"final_version_lag"`
	BaselineRPS        float64 `json:"single_worker_baseline_rps"`
	SpeedupVsBaseline  float64 `json:"speedup_vs_baseline"`
	TrainFinalLoss     float64 `json:"train_final_loss"`
}

// benchSummary is the headline before/after comparison. The best-row fields
// compare each section's throughput peak; in a closed loop those peaks sit
// at different ceilings, and a larger ceiling inherently records more queue
// wait, so the matched fields additionally compare the two sections at one
// identical configuration (the ceiling maximizing the pool's speedup among
// those where its p99 is equal or better) — same load, same knobs, only the
// serving machinery differs.
type benchSummary struct {
	BaselineBestRPS    float64 `json:"baseline_best_rps"`
	BaselineBestP99Ms  float64 `json:"baseline_best_p99_ms"`
	PoolBestRPS        float64 `json:"pool_best_rps"`
	PoolBestP99Ms      float64 `json:"pool_best_p99_ms"`
	PoolSpeedup        float64 `json:"pool_speedup_vs_baseline"`
	MatchedMaxBatch    int     `json:"matched_max_batch,omitempty"`
	MatchedBaselineRPS float64 `json:"matched_baseline_rps,omitempty"`
	MatchedBaselineP99 float64 `json:"matched_baseline_p99_ms,omitempty"`
	MatchedPoolRPS     float64 `json:"matched_pool_rps,omitempty"`
	MatchedPoolP99     float64 `json:"matched_pool_p99_ms,omitempty"`
	MatchedSpeedup     float64 `json:"matched_speedup,omitempty"`
}

// benchDoc is the results/BENCH_serve.json document. `baseline` is the
// pre-pool configuration (one worker, static ceiling sweep); `pool` is the
// same load against the worker pool, static and with the adaptive
// controller.
type benchDoc struct {
	Dataset  string          `json:"dataset"`
	Arch     string          `json:"arch"`
	Clients  int             `json:"clients"`
	Baseline []serveBenchRow `json:"baseline,omitempty"`
	Pool     []serveBenchRow `json:"pool,omitempty"`
	Allocs   *allocReport    `json:"allocs,omitempty"`
	Soak     *soakReport     `json:"soak,omitempty"`
	Summary  *benchSummary   `json:"summary,omitempty"`
}

// runBench measures serving throughput and latency with closed-loop
// concurrent clients hammering the batcher directly (no HTTP, so the
// numbers isolate the serving path), then optionally runs the soak. The
// JSON document is written before soak assertions are evaluated, so a
// failing soak still leaves the artifact for inspection.
func runBench(cfg benchConfig) error {
	sc, err := cfg.Problem.Fidelity()
	if err != nil {
		return err
	}
	spec, err := data.SpecByName(cfg.Problem.Dataset)
	if err != nil {
		return err
	}
	// The dataset's MLP at the chosen scale's width (the same network
	// `hogtrain -scale <s>` trains), with only enough generated rows to
	// draw requests from.
	spec = spec.Scaled(4096.0 / float64(spec.N))
	spec.HiddenUnits = sc.HiddenUnits
	ds := data.Generate(spec, cfg.Problem.Seed)
	net := nn.MustNetwork(spec.Arch())
	params := net.NewParams(nn.InitXavier, rand.New(rand.NewPCG(cfg.Problem.Seed, 17)))
	pub := serve.NewPublisher(net)
	pub.PublishParams(params)

	doc := benchDoc{Dataset: ds.Name, Arch: net.Arch.String(), Clients: cfg.Clients}

	if cfg.Sweep {
		auto := serve.AutoMaxBatch(device.NewXeon("bench", runtime.GOMAXPROCS(0)), net.Arch, 1024, 0.5)
		fmt.Printf("serve bench: %s %s, %d clients, %v per configuration (auto micro-batch would be %d)\n",
			ds.Name, net.Arch, cfg.Clients, cfg.Window, auto)

		sweep := []int{1}
		for b := 2; b <= 2*cfg.Clients && b <= 256; b *= 2 {
			sweep = append(sweep, b)
		}

		// Before: the pre-pool serving path. One worker, a static
		// micro-batch ceiling.
		fmt.Println("baseline (1 worker, static ceiling):")
		doc.Baseline, err = benchSweep(pub, ds, cfg, sweep, serve.Options{PoolWorkers: 1})
		if err != nil {
			return err
		}

		// After: the pool — same static sweep to
		// show the ceiling response, plus the adaptive controller choosing
		// the ceiling itself (max-batch acts as the clamp).
		fmt.Printf("pool (%d workers, static ceiling):\n", cfg.Pool)
		doc.Pool, err = benchSweep(pub, ds, cfg, sweep, serve.Options{PoolWorkers: cfg.Pool})
		if err != nil {
			return err
		}
		fmt.Printf("pool (%d workers, adaptive ceiling):\n", cfg.Pool)
		adaptiveRows, err := benchSweep(pub, ds, cfg, []int{256}, serve.Options{PoolWorkers: cfg.Pool, Adaptive: true})
		if err != nil {
			return err
		}
		doc.Pool = append(doc.Pool, adaptiveRows...)

		doc.Summary = summarize(doc.Baseline, doc.Pool)
		fmt.Printf("summary: baseline best %.0f req/s (p99 %.3fms), pool best %.0f req/s (p99 %.3fms) — %.2fx\n",
			doc.Summary.BaselineBestRPS, doc.Summary.BaselineBestP99Ms,
			doc.Summary.PoolBestRPS, doc.Summary.PoolBestP99Ms, doc.Summary.PoolSpeedup)
		if doc.Summary.MatchedMaxBatch > 0 {
			fmt.Printf("matched at max-batch %d: %.0f → %.0f req/s (%.2fx), p99 %.3f → %.3fms\n",
				doc.Summary.MatchedMaxBatch, doc.Summary.MatchedBaselineRPS, doc.Summary.MatchedPoolRPS,
				doc.Summary.MatchedSpeedup, doc.Summary.MatchedBaselineP99, doc.Summary.MatchedPoolP99)
		}

		doc.Allocs, err = measureAllocs(pub, ds, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("allocs: %.1f mallocs/request end-to-end (%.0f B/request)\n",
			doc.Allocs.MallocsPerRequest, doc.Allocs.BytesPerRequest)
	}

	var soakErr error
	if cfg.Soak {
		doc.Soak, soakErr = runSoak(cfg)
		if doc.Soak == nil && soakErr != nil {
			return soakErr
		}
	}

	if err := os.MkdirAll(filepath.Dir(cfg.Out), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := atomicio.WriteFile(cfg.Out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", cfg.Out)
	return soakErr
}

// benchSweep runs one measurement window per static ceiling in sweep, with
// the pool/adaptive shape fixed by base.
func benchSweep(pub *serve.Publisher, ds *data.Dataset, cfg benchConfig, sweep []int, base serve.Options) ([]serveBenchRow, error) {
	var rows []serveBenchRow
	var baseRPS float64
	for _, mb := range sweep {
		opts := base
		opts.MaxBatch = mb
		opts.MaxWait = 500 * time.Microsecond
		opts.QueueCap = max(2*cfg.Clients, 4*mb)
		opts.Workers = cfg.Workers
		row, err := benchOne(pub, ds, cfg.Clients, cfg.Window, opts)
		if err != nil {
			return nil, err
		}
		if mb == sweep[0] {
			baseRPS = row.ThroughputRPS
		}
		if baseRPS > 0 {
			row.SpeedupVsB1 = row.ThroughputRPS / baseRPS
		}
		rows = append(rows, row)
		label := fmt.Sprintf("max-batch %4d", mb)
		if opts.Adaptive {
			label = fmt.Sprintf("adaptive ≤%3d", mb)
		}
		fmt.Printf("  %s: %9.0f req/s  mean batch %6.1f  ceil %3d  p50 %7.3fms  p99 %7.3fms  (%.2fx vs first)\n",
			label, row.ThroughputRPS, row.MeanBatch, row.BatchCeiling, row.P50Ms, row.P99Ms, row.SpeedupVsB1)
	}
	return rows, nil
}

func summarize(baseline, pool []serveBenchRow) *benchSummary {
	bestOf := func(rows []serveBenchRow) serveBenchRow {
		best := rows[0]
		for _, r := range rows {
			if r.ThroughputRPS > best.ThroughputRPS {
				best = r
			}
		}
		return best
	}
	s := &benchSummary{}
	if len(baseline) > 0 {
		b := bestOf(baseline)
		s.BaselineBestRPS, s.BaselineBestP99Ms = b.ThroughputRPS, b.P99Ms
	}
	if len(pool) > 0 {
		p := bestOf(pool)
		s.PoolBestRPS, s.PoolBestP99Ms = p.ThroughputRPS, p.P99Ms
	}
	if s.BaselineBestRPS > 0 {
		s.PoolSpeedup = s.PoolBestRPS / s.BaselineBestRPS
	}
	// Matched-configuration comparison: among ceilings present in both
	// sections where the pool's p99 is equal or better, pick the one with
	// the largest pool speedup.
	for _, br := range baseline {
		for _, pr := range pool {
			if pr.MaxBatch != br.MaxBatch || pr.Adaptive || pr.P99Ms > br.P99Ms || br.ThroughputRPS <= 0 {
				continue
			}
			if sp := pr.ThroughputRPS / br.ThroughputRPS; sp > s.MatchedSpeedup {
				s.MatchedMaxBatch = br.MaxBatch
				s.MatchedBaselineRPS, s.MatchedBaselineP99 = br.ThroughputRPS, br.P99Ms
				s.MatchedPoolRPS, s.MatchedPoolP99 = pr.ThroughputRPS, pr.P99Ms
				s.MatchedSpeedup = sp
			}
		}
	}
	return s
}

// measureAllocs runs a short pool window and reports heap traffic per
// completed request from runtime.MemStats deltas. This is the end-to-end
// number — request envelope, response channel, score backing, client loop —
// complementing the worker-path AllocsPerRun guard in the serve tests.
func measureAllocs(pub *serve.Publisher, ds *data.Dataset, cfg benchConfig) (*allocReport, error) {
	opts := serve.Options{
		MaxBatch: 64, MaxWait: 500 * time.Microsecond,
		QueueCap: max(2*cfg.Clients, 256), Workers: cfg.Workers, PoolWorkers: cfg.Pool,
	}
	window := min(cfg.Window, time.Second)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	row, err := benchOne(pub, ds, cfg.Clients, window, opts)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	if row.Requests == 0 {
		return nil, fmt.Errorf("alloc measurement completed no requests")
	}
	return &allocReport{
		Requests:          row.Requests,
		MallocsPerRequest: float64(after.Mallocs-before.Mallocs) / float64(row.Requests),
		BytesPerRequest:   float64(after.TotalAlloc-before.TotalAlloc) / float64(row.Requests),
		Note: "end-to-end including the request envelope and client loop; " +
			"the pool worker forward path is separately pinned at 0 allocs/batch by the serve tests",
	}, nil
}

// load is what a closed-loop window's clients saw.
type load struct {
	completed, rejected, regressions int64
}

// closedLoop drives b with clients closed-loop clients for window. Each
// strides through ds from its own offset instead of drawing random rows,
// backs off briefly on ErrOverloaded, and counts every time the served model
// version went back. The deadline is checked before every request —
// completions after it would otherwise inflate throughput when service times
// are a sizeable fraction of the window.
func closedLoop(b *serve.Batcher, ds *data.Dataset, clients int, window time.Duration) (load, error) {
	var completed, rejected, regressions, failed atomic.Int64
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i := (c * 67) % ds.N()
			var lastVersion uint64
			for time.Now().Before(deadline) {
				row := ds.X.Row(i)
				i = (i + 1) % ds.N()
				r := b.Predict(serve.Instance{Dense: row})
				switch r.Err {
				case nil:
					if r.Version < lastVersion {
						regressions.Add(1)
					}
					lastVersion = r.Version
					completed.Add(1)
				case serve.ErrOverloaded:
					rejected.Add(1)
					time.Sleep(50 * time.Microsecond)
				default:
					failed.Add(1)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		return load{}, fmt.Errorf("%d clients aborted on unexpected errors", n)
	}
	return load{completed.Load(), rejected.Load(), regressions.Load()}, nil
}

// benchOne runs one closed-loop measurement window against a fresh batcher.
func benchOne(pub *serve.Publisher, ds *data.Dataset, clients int, window time.Duration, opts serve.Options) (serveBenchRow, error) {
	b := serve.NewBatcher(pub, opts)
	defer b.Close()
	ld, err := closedLoop(b, ds, clients, window)
	if err != nil {
		return serveBenchRow{}, fmt.Errorf("bench: %w", err)
	}
	rep := b.Report()
	o := b.Options()
	return serveBenchRow{
		MaxBatch:      o.MaxBatch,
		MaxWaitMs:     float64(o.MaxWait) / float64(time.Millisecond),
		Workers:       o.Workers,
		PoolWorkers:   o.PoolWorkers,
		Adaptive:      o.Adaptive,
		DurationSec:   window.Seconds(),
		Requests:      ld.completed,
		Rejected:      rep.Rejected,
		MeanBatch:     rep.MeanBatch,
		BatchCeiling:  rep.BatchCeiling,
		PolicyChanges: rep.PolicyChanges,
		ThroughputRPS: float64(ld.completed) / window.Seconds(),
		P50Ms:         rep.P50Ms,
		P90Ms:         rep.P90Ms,
		P99Ms:         rep.P99Ms,
	}, nil
}

// runSoak is the sustained-load scenario: a live training run publishing
// snapshots, SIGHUP hot reloads republishing a checkpoint out of band, and
// closed-loop clients hammering the adaptive pool — everything hogserve does
// in production, concurrently, with invariants checked at the end. The
// scenario is seeded end to end (dataset, initialization, client strides);
// only wall-clock throughput varies run to run.
func runSoak(cfg benchConfig) (*soakReport, error) {
	prob, err := cfg.Problem.Build()
	if err != nil {
		return nil, err
	}
	net := prob.Net
	ds := prob.Dataset
	pub := serve.NewPublisher(net)
	params := net.NewParams(nn.InitXavier, rand.New(rand.NewPCG(cfg.Problem.Seed, 23)))
	pub.PublishParams(params.Clone())

	// The checkpoint the SIGHUP handler reloads, exactly like `-model`.
	dir, err := os.MkdirTemp("", "hogserve-soak")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "soak.hgm")
	if err := nn.SaveParamsFile(ckpt, params); err != nil {
		return nil, err
	}

	// Live training publishing into the same publisher the pool serves
	// from. It starts first and spans both measurement phases, so the
	// single-worker baseline and the pool contend with the same training
	// load — the throughput floor is apples-to-apples.
	baseWindow := min(max(cfg.SoakTime/4, time.Second), 3*time.Second)
	tcfg, err := trainConfig(cfg.Problem, prob, cfg.Algorithm, pub, 100*time.Millisecond, nil)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trainc := startTraining(ctx, tcfg, baseWindow+cfg.SoakTime+time.Second)

	// Before: a single-worker window — the pre-pool serving path — under
	// the concurrent training load.
	baseRow, err := benchOne(pub, ds, cfg.Clients, baseWindow, serve.Options{
		MaxBatch: 64, MaxWait: 500 * time.Microsecond,
		QueueCap: max(2*cfg.Clients, 256), Workers: cfg.Workers, PoolWorkers: 1,
	})
	if err != nil {
		cancel()
		<-trainc
		return nil, err
	}
	fmt.Printf("soak baseline (1 worker, training live): %.0f req/s\n", baseRow.ThroughputRPS)

	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 256
	}
	b := serve.NewBatcher(pub, serve.Options{
		MaxBatch: maxBatch, MaxWait: 500 * time.Microsecond,
		QueueCap: max(2*cfg.Clients, 4*maxBatch), Workers: cfg.Workers,
		PoolWorkers: cfg.Pool, Adaptive: true,
	})
	defer b.Close()

	// Real SIGHUP plumbing: the serving path's reload loop, and a ticker
	// sending the process actual SIGHUPs during the soak.
	stopReload := reloadOnHUP(ckpt, net, pub)
	kicker := time.NewTicker(max(cfg.SoakTime/5, 500*time.Millisecond))
	kickerDone := make(chan struct{})
	go func() {
		defer close(kickerDone)
		for {
			select {
			case <-ctx.Done():
				return
			case <-kicker.C:
				syscall.Kill(os.Getpid(), syscall.SIGHUP)
			}
		}
	}()

	fmt.Printf("soak: %s %s, %d clients, pool %d adaptive ≤%d, training %s, SIGHUP every %v, %v\n",
		ds.Name, net.Arch, cfg.Clients, cfg.Pool, maxBatch, tcfg.Algorithm, max(cfg.SoakTime/5, 500*time.Millisecond), cfg.SoakTime)

	ld, loadErr := closedLoop(b, ds, cfg.Clients, cfg.SoakTime)
	cancel() // stops the SIGHUP kicker and interrupts training
	kicker.Stop()
	<-kickerDone // no self-SIGHUP can be sent past this point
	train := <-trainc
	reloads := stopReload()
	if train.err != nil {
		return nil, fmt.Errorf("soak: training failed: %w", train.err)
	}
	if loadErr != nil {
		return nil, fmt.Errorf("soak: %w", loadErr)
	}

	// One quiesced probe: with all writers stopped, a fresh request must be
	// served from the newest published snapshot — no snapshot was dropped on
	// the way to the pool.
	probe := b.Predict(serve.Instance{Dense: ds.X.Row(0)})
	if probe.Err != nil {
		return nil, fmt.Errorf("soak: final probe failed: %v", probe.Err)
	}
	rep := b.Report()
	mids, _ := b.Stats().Histogram()

	report := &soakReport{
		DurationSec:        cfg.SoakTime.Seconds(),
		PoolWorkers:        cfg.Pool,
		Clients:            cfg.Clients,
		Requests:           ld.completed,
		Rejected:           ld.rejected,
		ThroughputRPS:      float64(ld.completed) / cfg.SoakTime.Seconds(),
		MeanBatch:          rep.MeanBatch,
		FinalBatchCeiling:  rep.BatchCeiling,
		PolicyChanges:      rep.PolicyChanges,
		P50Ms:              rep.P50Ms,
		P99Ms:              rep.P99Ms,
		HistogramBuckets:   len(mids),
		SnapshotsPublished: pub.Version(),
		SighupReloads:      reloads,
		VersionRegressions: ld.regressions,
		FinalVersionLag:    pub.Version() - probe.Version,
		BaselineRPS:        baseRow.ThroughputRPS,
		TrainFinalLoss:     train.res.FinalLoss,
	}
	if report.BaselineRPS > 0 {
		report.SpeedupVsBaseline = report.ThroughputRPS / report.BaselineRPS
	}
	fmt.Printf("soak: %d served (%.0f req/s, %.2fx baseline), p99 %.3fms, ceil %d after %d policy changes, %d snapshots, %d reloads\n",
		report.Requests, report.ThroughputRPS, report.SpeedupVsBaseline,
		report.P99Ms, report.FinalBatchCeiling, report.PolicyChanges,
		report.SnapshotsPublished, report.SighupReloads)

	// The invariants the CI soak-smoke job relies on. The report is returned
	// alongside any violation so the JSON artifact still records the run.
	var violations []string
	if report.Requests == 0 {
		violations = append(violations, "no requests served")
	}
	if report.HistogramBuckets == 0 {
		violations = append(violations, "latency histogram is empty")
	}
	if report.VersionRegressions != 0 {
		violations = append(violations, fmt.Sprintf("%d served-version regressions", report.VersionRegressions))
	}
	if report.FinalVersionLag != 0 {
		violations = append(violations, fmt.Sprintf("final probe served version lags the publisher by %d (dropped snapshot)", report.FinalVersionLag))
	}
	if report.SnapshotsPublished < 2 {
		violations = append(violations, "training/reloads published fewer than 2 snapshots")
	}
	if report.SighupReloads == 0 {
		violations = append(violations, "no SIGHUP reloads landed")
	}
	if report.ThroughputRPS < report.BaselineRPS {
		violations = append(violations, fmt.Sprintf("soak throughput %.0f req/s below single-worker baseline %.0f req/s",
			report.ThroughputRPS, report.BaselineRPS))
	}
	if len(violations) > 0 {
		return report, fmt.Errorf("soak invariants violated: %s", strings.Join(violations, "; "))
	}
	return report, nil
}
