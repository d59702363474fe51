package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"time"

	"heterosgd/internal/core"
	"heterosgd/internal/data"
	"heterosgd/internal/nn"
	"heterosgd/internal/serve"
	"heterosgd/internal/tensor"
)

const (
	// serveLimit is the latency limit a request must meet, from its due time.
	serveLimit = 100 * time.Millisecond
	// serveMaxBatch and serveQueueCap are the batcher's fixed sizing.
	serveMaxBatch = 64
	serveQueueCap = 1024
	// serveBaseRate is the step latency is reported at; the ladder doubles
	// from it to find the highest rate that still meets the limit.
	serveBaseRate = 1000.0
	// keptSnapshots is how many published models stay reachable for the
	// response re-check; responses arrive well within that many publishes.
	keptSnapshots = 4
)

var serveLadder = []float64{serveBaseRate, 2000, 4000, 8000}

// openLoop sends n requests at a fixed rate: request i is due at
// start + i/rate whether or not earlier ones have been answered, because
// independent users do not wait for each other. A generator that falls
// behind sends at once and reports how late it was; latency is timed from
// the due time, so a stall is charged to every request it delayed.
func openLoop(start time.Time, rate float64, n int, send func(i int, due time.Time, late time.Duration)) {
	interval := float64(time.Second) / rate
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		send(i, due, max(time.Since(due), 0))
	}
}

// stepStats is what one fixed-rate step observed.
type stepStats struct {
	rate float64
	// Written by the generator.
	sent, rejected, refused int64 // refused: Submit errors other than a full queue
	lateMs, submitUs        []float64
	depthEnd                int
	spanID                  int
	// Written by the collector; read only after soak.finish.
	answered, errored, over, batchSum int64
	latMs                             []float64
}

// failed counts the requests that got no answer. One answered after the
// limit is late, not failed: it shows in the percentiles and in meets.
func (s *stepStats) failed() int64 { return s.rejected + s.refused + s.errored }

// meets reports whether the step held the limit without a growing backlog.
func (s *stepStats) meets() bool {
	return s.answered > 0 && percentile(s.latMs, 0.99) <= ms(serveLimit) &&
		s.rejected+s.refused+s.errored == 0 && s.depthEnd <= serveMaxBatch
}

// pendingReq is a submitted request waiting for its answer.
type pendingReq struct {
	step *stepStats
	row  int
	due  time.Time
	sent time.Duration // recorder clock at submit
	ch   <-chan serve.Response
}

// sampledResp is a response picked for the re-check against PredictX.
type sampledResp struct {
	params *nn.Params
	row    int
	resp   serve.Response
}

// publishSink wraps the Publisher the engine publishes into: it times each
// publish and keeps the last few models by version for the re-check.
type publishSink struct {
	pub    *serve.Publisher
	rec    *recorder
	parent int

	mu      sync.Mutex
	kept    [keptSnapshots]*nn.Snapshot
	timesUs []float64
}

func (s *publishSink) PublishParams(p *nn.Params) {
	start := s.rec.now()
	t0 := time.Now()
	s.pub.PublishParams(p)
	dt := time.Since(t0)
	// The engine publishes from one goroutine, so the snapshot just stored
	// is the current one.
	snap := s.pub.Load()
	s.mu.Lock()
	s.kept[snap.Version%keptSnapshots] = snap
	s.timesUs = append(s.timesUs, us(dt))
	s.mu.Unlock()
	s.rec.add(span{Name: "serve:PublishParams", Start: start, End: s.rec.now(), Parent: s.parent, Arg: int64(snap.Version)})
}

func (s *publishSink) lookup(version uint64) *nn.Params {
	s.mu.Lock()
	defer s.mu.Unlock()
	if snap := s.kept[version%keptSnapshots]; snap != nil && snap.Version == version {
		return snap.Params
	}
	return nil
}

func (s *publishSink) published() (n int, medianUs float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.timesUs), median(s.timesUs)
}

// serveEnv is serve-soak's setup: a model being served and a trainer config
// that will publish into it.
type serveEnv struct {
	train    *trainEnv // the background trainer's config, run in windows
	sink     *publishSink
	batcher  *serve.Batcher
	requests *tensor.Matrix // held-out rows the generator draws from
}

func buildServeEnv(rc *runCtx) (*serveEnv, error) {
	spec := withHidden(rc, data.Covtype.Scaled(0.05), 6, 512)
	ds := data.Generate(spec, rc.seed)
	// Requests come from their own rows: the trainer shuffles ds in place.
	reqSpec := spec
	reqSpec.N = 4096
	requests := data.Generate(reqSpec, rc.seed+1).X
	net := nn.MustNetwork(spec.Arch())
	cfg := core.NewConfig(core.AlgHogbatchGPU, net, ds, cpuPreset(128, 128))
	cfg.BaseLR = 0.01
	// Shorter than any dispatch here (170 ms and up), so the trainer publishes
	// after every one: publishes, each a copy of the model, then count with
	// the examples trained and not with the seconds elapsed. At 250 ms it was
	// every second dispatch on a quiet box and every dispatch on a busy one,
	// and allocation per example doubled between the two.
	cfg.SnapshotEvery = 100 * time.Millisecond
	sink := &publishSink{pub: serve.NewPublisher(net), rec: rc.rec, parent: rc.root}
	cfg.SnapshotSink = sink
	train := realEnv(rc, cfg, 0, 128)
	// Every training window opens with a loss evaluation charged to it, and
	// 1024 rows through a 512x6 network would be a third of a window.
	train.cfg.EvalSubset = min(128, train.cfg.EvalSubset)
	b := serve.NewBatcher(sink.pub, serve.Options{
		PoolWorkers: 1, Adaptive: true, MaxBatch: serveMaxBatch, QueueCap: serveQueueCap,
	})
	sink.PublishParams(net.NewParams(nn.InitXavier, core.RunRNG(rc.seed)))
	if resp := b.Predict(serve.Instance{Dense: requests.Row(0)}); resp.Err != nil {
		b.Close()
		return nil, fmt.Errorf("first request: %w", resp.Err)
	}
	return &serveEnv{train: train, sink: sink, batcher: b, requests: requests}, nil
}

// soak drives the open-loop load against the batcher while (optionally) the
// trainer runs, one generator and one collector goroutine.
type soak struct {
	rc  *runCtx
	env *serveEnv
	rng *rand.Rand

	pending chan pendingReq
	samples chan sampledResp
	done    sync.WaitGroup

	// Written by the collector and the verifier; read after finish.
	lastVersion   uint64
	checked, skew int64
	mismatches    []string
}

func newSoak(rc *runCtx, env *serveEnv) *soak {
	s := &soak{
		rc: rc, env: env, rng: rand.New(rand.NewPCG(rc.seed, 0x5e12e)),
		// Everything admitted and unanswered fits: the batcher holds at most
		// its queue plus one batch, so the generator never blocks here.
		pending: make(chan pendingReq, 2*serveQueueCap),
		// A 1% sample; the verifier keeps up, and a full buffer only skips
		// a sample.
		samples: make(chan sampledResp, 256),
	}
	s.done.Add(2)
	go s.collect()
	go s.verify()
	return s
}

// step runs one fixed-rate step to completion of its sends.
func (s *soak) step(rate float64, dur time.Duration, name string) *stepStats {
	st := &stepStats{rate: rate}
	st.spanID = s.rc.rec.begin("bench:"+name, s.rc.root)
	n := int(rate * dur.Seconds())
	rows := s.env.requests
	openLoop(time.Now(), rate, n, func(i int, due time.Time, late time.Duration) {
		row := s.rng.IntN(rows.Rows)
		sent := s.rc.rec.now()
		t0 := time.Now()
		ch, err := s.env.batcher.Submit(serve.Instance{Dense: rows.Row(row)})
		st.submitUs = append(st.submitUs, us(time.Since(t0)))
		st.sent++
		st.lateMs = append(st.lateMs, ms(late))
		if err != nil {
			if errors.Is(err, serve.ErrOverloaded) {
				st.rejected++
			} else {
				st.refused++
			}
			return
		}
		s.pending <- pendingReq{step: st, row: row, due: due, sent: sent, ch: ch}
	})
	st.depthEnd = s.env.batcher.QueueDepth()
	s.rc.rec.end(st.spanID)
	return st
}

// collect answers requests in submission order; one pool worker serves
// batches in order, so waiting on each channel in turn adds no delay.
func (s *soak) collect() {
	defer s.done.Done()
	defer close(s.samples)
	n := 0
	for p := range s.pending {
		resp := <-p.ch
		lat := time.Since(p.due)
		st := p.step
		st.answered++
		st.latMs = append(st.latMs, ms(lat))
		st.batchSum += int64(resp.BatchSize)
		if resp.Err != nil {
			st.errored++
		} else if lat > serveLimit {
			st.over++
		}
		if resp.Version < s.lastVersion {
			s.skew++
		}
		s.lastVersion = max(s.lastVersion, resp.Version)
		s.rc.rec.add(span{Name: "serve:Submit->response", Start: p.sent, End: s.rc.rec.now(), Parent: st.spanID, Arg: int64(resp.BatchSize)})
		if n++; n%100 == 0 && resp.Err == nil {
			if params := s.env.sink.lookup(resp.Version); params != nil {
				select {
				case s.samples <- sampledResp{params: params, row: p.row, resp: resp}:
				default:
				}
			}
		}
	}
}

// verify re-computes sampled responses with Network.PredictX on the very
// snapshot that served them; the class must agree (a dead heat between the
// exact and the SIMD kernel's scores is not a disagreement).
func (s *soak) verify() {
	defer s.done.Done()
	net := s.env.train.cfg.Net
	ws := net.NewInferenceWorkspace(1)
	for smp := range s.samples {
		x := tensor.NewMatrixFrom(1, s.env.requests.Cols, s.env.requests.Row(smp.row))
		want := net.PredictX(smp.params, ws, nn.DenseInput(x), 1)[0]
		s.checked++
		if want != smp.resp.Class {
			top := append([]float64(nil), smp.resp.Scores...)
			sort.Float64s(top)
			if tie := len(top) >= 2 && top[len(top)-1]-top[len(top)-2] < 1e-9; !tie {
				s.mismatches = append(s.mismatches,
					fmt.Sprintf("response class %d ≠ PredictX class %d on snapshot v%d", smp.resp.Class, want, smp.resp.Version))
			}
		}
	}
}

// finish waits for every outstanding answer and the re-checks.
func (s *soak) finish() {
	close(s.pending)
	s.done.Wait()
	for _, m := range s.mismatches {
		s.rc.check(false, "%s", m)
	}
	s.rc.check(s.skew == 0, "%d responses carried an older snapshot version than an earlier response", s.skew)
}

// trainer runs the background training that mutates and republishes the
// model being served: consecutive RunReal windows, each continuing from the
// last one's parameters, exactly as the training workloads measure.
type trainer struct {
	cancel context.CancelFunc
	done   chan struct{}
	idle   window   // the engine call that trains nothing: every window's fixed cost
	wins   []window // complete windows after the warm-up
	err    error
}

// startTrainer trains in windows of the given budget (the first, of warm, is
// discarded) until stopped. On the traced pass every second window carries
// the program's tracer.
func startTrainer(rc *runCtx, env *serveEnv, warm, budget time.Duration) (*trainer, error) {
	ctx, cancel := context.WithCancel(context.Background())
	t := &trainer{cancel: cancel, done: make(chan struct{})}
	env.train.engine = func(cfg core.Config, budget time.Duration, parent int) (*core.Result, error) {
		env.sink.parent = parent
		return core.RunReal(ctx, cfg, budget)
	}
	// Before any traffic, so the fixed cost holds no request's allocations.
	var err error
	if t.idle, err = env.train.idleCall(rc); err != nil {
		cancel()
		return nil, err
	}
	go func() {
		defer close(t.done)
		for i := 0; ctx.Err() == nil; i++ {
			b := budget
			if i == 0 {
				b = warm
			}
			w, err := env.train.runWindow(rc, trainPlan{}, b, rc.traced && i%2 == 0 && i > 0)
			if ctx.Err() != nil {
				return // the window was cut short by stop: not a measurement
			}
			if err != nil {
				t.err = err
				return
			}
			if i > 0 {
				t.wins = append(t.wins, w)
			}
		}
	}()
	return t, nil
}

// stop cancels the run and waits for the window in flight to drain.
func (t *trainer) stop() ([]window, error) {
	t.cancel()
	<-t.done
	if t.err != nil {
		return nil, fmt.Errorf("background training: %w", t.err)
	}
	if len(t.wins) == 0 {
		return nil, errors.New("background training completed no window")
	}
	return t.wins, nil
}

func runServeSoak(rc *runCtx) error {
	if rc.traced {
		return traceServeSoak(rc)
	}
	env, setups, err := repeatSetup(rc, func() (*serveEnv, error) { return buildServeEnv(rc) },
		func(e *serveEnv) { e.batcher.Close() })
	if err != nil {
		return err
	}
	defer env.batcher.Close()

	// A discarded warm-up step lets the trainer start and the adaptive
	// batch ceiling settle.
	warm := rc.seconds / 10
	tr, err := startTrainer(rc, env, warm, (rc.seconds-warm)/measuredWindows)
	if err != nil {
		return err
	}
	sk := newSoak(rc, env)
	sk.step(serveBaseRate, warm, "warm-up")
	// The base step, where latency is read and the trainer is least
	// disturbed, gets half of the time; the steps above it share the rest.
	rest := rc.seconds - warm
	steps := []*stepStats{sk.step(serveBaseRate, rest/2, "step-1000")}
	for _, rate := range serveLadder[1:] {
		steps = append(steps, sk.step(rate, rest/2/time.Duration(len(serveLadder)-1), fmt.Sprintf("step-%.0f", rate)))
	}
	// The trainer stops first: its windows log and check on its own
	// goroutine until then.
	wins, err := tr.stop()
	sk.finish()
	if err != nil {
		return err
	}
	checkServing(rc, env, sk, steps[0])
	logSteps(rc, steps)

	// Setups again now that the load is off: a neighbour's burst can cover
	// all of the opening ones, and these come a whole run later.
	again, more, err := repeatSetup(rc, func() (*serveEnv, error) { return buildServeEnv(rc) },
		func(e *serveEnv) { e.batcher.Close() })
	if err != nil {
		return err
	}
	again.batcher.Close()
	setups = append(setups, more...)

	best := bestWindow(wins)
	rc.set("setup_s", slices.Min(setups))
	rc.set("train_ex_per_s", best.exPerSec())
	rc.set("train_alloc_bytes_per_ex", perExample(wins, tr.idle, allocBytes))
	rc.logf("  setup_s fastest of %d, train_ex_per_s best of %d background windows", len(setups), len(wins))
	return nil
}

// checkServing applies serve-soak's serving-side correctness checks (the
// trainer's windows check themselves) and adds the base step's requests to
// the run's operations: the steps above it search for the rate at which
// serving stops keeping up, so failing there is expected.
func checkServing(rc *runCtx, env *serveEnv, sk *soak, base *stepStats) {
	published, _ := env.sink.published()
	rc.check(uint64(published) == env.sink.pub.Version(), "dropped snapshots: %d published, version %d", published, env.sink.pub.Version())
	probe := env.batcher.Predict(serve.Instance{Dense: env.requests.Row(0)})
	rc.check(probe.Err == nil && probe.Version == env.sink.pub.Version(),
		"final request served by v%d, last published v%d (err %v)", probe.Version, env.sink.pub.Version(), probe.Err)
	rc.check(rc.short() || sk.checked > 0, "no response was re-checked against PredictX")
	rc.ops(base.sent, base.failed())
}

func logSteps(rc *runCtx, steps []*stepStats) {
	for _, st := range steps {
		rc.logf("  %5.0f req/s: sent %d, rejected %d, errored %d, over-limit %d, p50 %.3f ms, p99 %.3f ms (%d samples), gen late p99 %.3f ms, depth at end %d, meets=%v",
			st.rate, st.sent, st.rejected, st.refused+st.errored, st.over, percentile(st.latMs, 0.5), percentile(st.latMs, 0.99),
			len(st.latMs), percentile(st.lateMs, 0.99), st.depthEnd, st.meets())
	}
}

// maxRate is the highest ladder rate that met the limit with every lower
// step meeting it too; 0 when even the base rate did not.
func maxRate(steps []*stepStats) float64 {
	best := 0.0
	for _, st := range steps {
		if !st.meets() {
			break
		}
		best = st.rate
	}
	return best
}

// traceServeSoak is the traced pass: the base step in full with a span per
// request, a brief ladder for the maximum rate, then the same base step
// with training off — the gap between the two is contention, not the
// serving path.
func traceServeSoak(rc *runCtx) error {
	id := rc.rec.begin("bench:setup", rc.root)
	env, err := buildServeEnv(rc)
	rc.rec.end(id)
	if err != nil {
		return err
	}
	defer env.batcher.Close()

	tr, err := startTrainer(rc, env, rc.seconds/10, rc.seconds*7/80)
	if err != nil {
		return err
	}
	sk := newSoak(rc, env)
	sk.step(serveBaseRate, rc.seconds/10, "warm-up")
	steps := []*stepStats{sk.step(serveBaseRate, rc.seconds*3/10, "step-1000")}
	for _, rate := range serveLadder[1:] {
		steps = append(steps, sk.step(rate, rc.seconds/10, fmt.Sprintf("step-%.0f", rate)))
	}
	wins, err := tr.stop()
	sk.finish()
	if err != nil {
		return err
	}
	base := steps[0]
	checkServing(rc, env, sk, base)

	idleSoak := newSoak(rc, env)
	idle := idleSoak.step(serveBaseRate, rc.seconds*3/20, "idle-1000")
	idleSoak.finish()
	logSteps(rc, append(steps, idle))

	rc.set("serve_p50_ms", percentile(base.latMs, 0.5))
	rc.set("serve_p99_ms", percentile(base.latMs, 0.99))
	rc.set("serve_max_rate_rps", maxRate(steps))
	if base.answered > 0 {
		rc.set("serve.batch_size_mean", float64(base.batchSum)/float64(base.answered))
	}
	report := env.batcher.Report()
	rc.set("serve.batch_ceiling_final", float64(report.BatchCeiling))
	rc.set("serve.policy_changes", float64(report.PolicyChanges))
	rc.set("serve.rejected", float64(report.Rejected))
	rc.set("serve.errors", float64(report.Errors))
	rc.set("serve.submit_us", median(base.submitUs))
	published, publishUs := env.sink.published()
	rc.set("serve.publish_us", publishUs)
	rc.set("serve.snapshots_published", float64(published))
	rc.set("serve.gen_late_p99_ms", percentile(base.lateMs, 0.99))
	rc.set("serve.idle_p50_ms", percentile(idle.latMs, 0.5))
	rc.set("serve.idle_p99_ms", percentile(idle.latMs, 0.99))

	reportResultMetrics(rc, trainPlan{}, env.train, wins, tr.idle)
	reportSpanShares(rc, &env.train.cfg, false, wins)
	replayServing(rc, env)
	return nil
}
