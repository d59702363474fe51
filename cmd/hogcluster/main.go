// Command hogcluster runs multi-process training: a coordinator process
// schedules batches over TCP to worker processes, each of which builds the
// identical dataset from the shared spec/scale/seed flags and returns
// parameter deltas. The link layer heartbeats, reconnects with jittered
// backoff, retransmits unacknowledged completions, and the coordinator
// deduplicates by dispatch sequence — so killed workers and severed links
// degrade training instead of corrupting it.
//
// Quickstart (one machine, loopback):
//
//	hogcluster -workers 2 -spawn -time 2s
//
// spawns the coordinator plus two worker processes of the same binary. To
// run the pieces by hand (or on several machines):
//
//	hogcluster -role coordinator -listen :7117 -workers 2 -time 2s
//	hogcluster -role worker -id 0 -connect host:7117
//	hogcluster -role worker -id 1 -connect host:7117
//
// Fault drills:
//
//	hogcluster -workers 3 -spawn -time 2s -kill-worker 1 -kill-after 500ms
//	hogcluster -workers 3 -spawn -time 2s -linkfaults sever:2:10:2
//
// The first kills worker 1 mid-run (quarantined, batch re-dispatched, run
// completes on the survivors); the second routes every worker through an
// in-process partition proxy that severs worker 2's link after its 10th
// dispatch and refuses 2 redials before healing (quarantined, then
// readmitted). Both runs exit 0 with the full fault report.
//
// Durability: -checkpoint makes the coordinator write crash-consistent
// run-state files (model + scheduler + membership) at every epoch barrier,
// and -resume restarts a killed coordinator from the latest good one — the
// restarted process re-listens, workers re-handshake against the RESUME
// welcome, and exactly-once accounting holds across the restart:
//
//	hogcluster -role coordinator -listen :7117 -workers 2 -checkpoint run.ckpt -time 10s
//	hogcluster -role coordinator -listen :7117 -workers 2 -checkpoint run.ckpt -resume run.ckpt -time 10s
//
// Crash drills: -chaos scripts process-level failures and runs the whole
// kill→restart→resume cycle against real processes —
//
//	hogcluster -workers 3 -time 4s -chaos "kill-worker:1:30,kill-coord:2,restart:300ms"
//
// SIGKILLs worker 1 on its 30th dispatch, SIGKILLs the coordinator right
// after its epoch-2 checkpoint, waits 300ms, restarts the coordinator with
// -resume plus a fresh worker fleet, and asserts the resumed run exits 0
// with exactly-once transport accounting.
//
// Elastic membership: start the coordinator with slot headroom, then
// live-attach fresh workers mid-training and retire others gracefully —
//
//	hogcluster -role coordinator -listen :7117 -workers 2 -max-workers 4 -time 10s
//	hogcluster -role worker -id 0 -connect host:7117
//	hogcluster -role worker -id 1 -connect host:7117 -leave-after 50
//	hogcluster -role worker -join -connect host:7117
//
// The joiner asks the coordinator for a slot (no -id), inherits the shuffle
// seed from the handshake, and receives the current model with its first
// dispatch; the -leave-after worker announces departure after 50 dispatches
// and drains cleanly, so applied==scheduled holds through the churn.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"heterosgd/internal/buildinfo"
	"heterosgd/internal/checkpoint"
	"heterosgd/internal/core"
	"heterosgd/internal/experiments"
	"heterosgd/internal/faults"
	"heterosgd/internal/telemetry"
	"heterosgd/internal/transport"
)

func main() {
	var (
		role    = flag.String("role", "coordinator", "process role: coordinator or worker")
		dsName  = flag.String("dataset", "covtype", "synthetic dataset: covtype, w8a, delicious, real-sim")
		scale   = flag.String("scale", "small", "synthetic scale: small, medium, full")
		algName = flag.String("alg", "adaptive", "algorithm: "+strings.Join(core.AlgorithmNames(), ", ")+" (those the cluster engine cannot run are refused with the reason)")
		seed    = flag.Uint64("seed", 1, "random seed (must match across all processes of a run)")
		hidden  = flag.Int("hidden", 0, "override hidden-layer width (must match across processes)")
		lr      = flag.Float64("lr", 0.1, "base learning rate")
		shuffle = flag.Bool("shuffle", true, "reshuffle between epochs (workers replay the shuffles)")
		guards  = flag.Bool("guards", true, "enable divergence guards on both sides")
		decay   = flag.Float64("weight-decay", 0, "L2 weight decay (must match across processes)")
		stale   = flag.Int("staleness", 4, "SSP staleness bound s (-alg ssp): max dispatch-time steps ahead of the slowest worker")

		// Coordinator flags.
		listen    = flag.String("listen", "127.0.0.1:0", "coordinator listen address")
		workers   = flag.Int("workers", 2, "number of remote workers")
		budget    = flag.Duration("time", 2*time.Second, "wall-clock training budget")
		heartbeat = flag.Duration("heartbeat", 250*time.Millisecond, "link heartbeat period")
		hbMisses  = flag.Int("heartbeat-misses", 3, "missed heartbeats before a link is declared down")
		attach    = flag.Duration("attach-timeout", 30*time.Second, "how long to wait for all workers to connect")
		dispatchT = flag.Duration("dispatch-timeout", 0, "flat per-dispatch deadline (0 = partitions detected by heartbeat only)")
		spawn     = flag.Bool("spawn", false, "also spawn the worker processes (this binary, -role worker) on loopback")
		linkStr   = flag.String("linkfaults", "", "partition plan routed through an in-process proxy: drop:W:RATE,dup:W:RATE,delay:W:EVERY:DUR,sever:W:AFTER:REFUSE (implies -spawn routing)")
		killID    = flag.Int("kill-worker", -1, "with -spawn: kill this worker's process mid-run")
		killAfter = flag.Duration("kill-after", 500*time.Millisecond, "with -kill-worker: how far into the run to kill it")
		telAddr   = flag.String("telemetry-addr", "", "serve /metrics and /debug/pprof on this address during the run")
		maxWork   = flag.Int("max-workers", 0, "worker slots beyond -workers reserved for live-attaching elastic joiners (0 = membership fixed)")
		ckptPath  = flag.String("checkpoint", "", "write run-state checkpoints (model + scheduler + membership) to this path")
		ckptEvr   = flag.Duration("checkpoint-every", 0, "also checkpoint on this wall-clock period (0 = epoch barriers and drain only)")
		ckptKeep  = flag.Int("checkpoint-keep", 3, "run-state generations to retain (path, path.1, ...)")
		resume    = flag.String("resume", "", "resume a coordinator from a run-state checkpoint (same alg/seed/arch; falls back through rotated generations)")
		dieEpoch  = flag.Int("die-at-epoch", 0, "chaos: coordinator SIGKILLs itself right after its checkpoint at this epoch lands (requires -checkpoint)")
		chaosStr  = flag.String("chaos", "", "process chaos drill: kill-worker:W:FRAMES,kill-coord:EPOCH,restart:DUR — spawn, kill, restart, and resume real processes, then assert invariants")

		// Worker flags.
		id       = flag.Int("id", 0, "worker id (0-based, unique per run)")
		connect  = flag.String("connect", "", "coordinator (or fault proxy) address to dial")
		threads  = flag.Int("threads", 0, "sequential gradient lanes per dispatch (0 = from handshake)")
		join     = flag.Bool("join", false, "attach to a running coordinator as a fresh elastic worker (ignores -id; needs coordinator -max-workers headroom)")
		leaveAft = flag.Int("leave-after", 0, "announce a graceful departure after this many handled dispatches (0 = serve until goodbye)")
		dieAfter = flag.Int("die-after", 0, "chaos: SIGKILL this worker process on its n-th received dispatch")

		showVer = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println(buildinfo.Version())
		return
	}
	if *heartbeat <= 0 {
		fatal(fmt.Errorf("-heartbeat must be positive, got %v", *heartbeat))
	}
	if *hbMisses < 1 {
		fatal(fmt.Errorf("-heartbeat-misses must be at least 1, got %d", *hbMisses))
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *chaosStr != "" {
		if *role != "coordinator" {
			fatal(fmt.Errorf("-chaos runs the drill from the coordinator role"))
		}
		plan, err := faults.ParseProcPlan(*chaosStr)
		if err != nil {
			fatal(err)
		}
		if err := plan.Validate(*workers); err != nil {
			fatal(err)
		}
		if err := runChaosDrill(ctx, plan, *ckptPath, *workers, flag.CommandLine); err != nil {
			fatal(fmt.Errorf("chaos drill: %w", err))
		}
		fmt.Println("chaos drill: PASS")
		return
	}

	sc, err := experiments.ScaleByName(*scale)
	if err != nil {
		fatal(err)
	}
	if *hidden != 0 {
		sc.HiddenUnits = *hidden
	}
	prob, err := experiments.NewProblem(*dsName, sc, *seed)
	if err != nil {
		fatal(err)
	}

	if *role == "worker" {
		if *connect == "" {
			fatal(fmt.Errorf("-role worker requires -connect"))
		}
		wid := *id
		if *join {
			// Negative id asks the coordinator for a slot; the assigned id
			// arrives in the Welcome.
			wid = -1
		}
		opts := core.ClusterWorkerOptions{
			Client:      transport.ClientOptions{Seed: *seed},
			Threads:     *threads,
			WeightDecay: *decay,
			Guards:      *guards,
			LeaveAfter:  *leaveAft,
		}
		if n := *dieAfter; n > 0 {
			opts.OnDispatch = func(h int) {
				if h >= n {
					fmt.Printf("chaos: worker %d self-SIGKILL on dispatch %d\n", *id, h)
					syscall.Kill(os.Getpid(), syscall.SIGKILL)
				}
			}
		}
		err := core.RunClusterWorker(ctx, *connect, wid, prob.Net, prob.Dataset, opts)
		if err != nil && ctx.Err() == nil {
			if *join {
				fatal(fmt.Errorf("elastic joiner: %w", err))
			}
			fatal(fmt.Errorf("worker %d: %w", *id, err))
		}
		if *join {
			fmt.Println("worker (elastic join): done")
		} else {
			fmt.Printf("worker %d: done\n", *id)
		}
		return
	}
	if *role != "coordinator" {
		fatal(fmt.Errorf("unknown -role %q (coordinator or worker)", *role))
	}

	alg, err := core.ParseAlgorithm(*algName)
	if err != nil {
		fatal(err)
	}
	linkPlan, err := faults.ParseLinks(*linkStr)
	if err != nil {
		fatal(err)
	}
	if linkPlan != nil {
		linkPlan.Seed = *seed
		if err := linkPlan.Validate(*workers); err != nil {
			fatal(err)
		}
	}

	cfg := core.NewConfig(alg, prob.Net, prob.Dataset, sc.Preset)
	cfg.BaseLR = *lr
	cfg.Seed = *seed
	cfg.Shuffle = *shuffle
	cfg.WeightDecay = *decay
	cfg.StalenessBound = *stale
	if *guards {
		cfg.Guards = core.DefaultGuards()
	}
	// The Config's worker list sizes the scheduler (batch windows, adaptive
	// thresholds); the processes filling those slots are remote. Pad or trim
	// to the requested cluster size by cycling the algorithm's device mix.
	orig := len(cfg.Workers)
	for len(cfg.Workers) < *workers {
		cfg.Workers = append(cfg.Workers, cfg.Workers[len(cfg.Workers)%orig])
	}
	cfg.Workers = cfg.Workers[:*workers]
	if *maxWork > 0 {
		if *maxWork < *workers {
			fatal(fmt.Errorf("-max-workers %d is below -workers %d", *maxWork, *workers))
		}
		// Headroom above the initial set sizes the link table and scheduler
		// arrays so `hogcluster -role worker -join` processes can live-attach.
		cfg.MaxWorkers = *maxWork
	}
	if *ckptPath != "" {
		cfg.CheckpointSink = &checkpoint.Writer{Path: *ckptPath, Keep: *ckptKeep}
		cfg.CheckpointEvery = *ckptEvr
	}
	if *dieEpoch > 0 {
		if *ckptPath == "" {
			fatal(fmt.Errorf("-die-at-epoch requires -checkpoint (the kill fires after a durable capture)"))
		}
		cfg.CheckpointSink = &killSink{inner: cfg.CheckpointSink, epoch: *dieEpoch}
	}
	if *resume != "" {
		st, lrep, rerr := checkpoint.LoadLatestReport(*resume, *ckptKeep, prob.Net)
		if rerr != nil {
			fatal(fmt.Errorf("loading resume state: %w", rerr))
		}
		// A fallback past a rejected newer generation goes into the run's
		// event log, not just stderr: the Result's audit trail must show
		// which history this incarnation actually continued.
		if e, ok := lrep.Event(); ok {
			st.Events = append(st.Events, e)
			fmt.Fprintf(os.Stderr, "hogcluster: checkpoint fallback: %s\n", e.Detail)
		}
		cfg.Resume = st
		active := *workers
		if st.Membership != nil {
			active = st.Membership.ActiveCount()
		}
		fmt.Printf("resuming from %s: epoch %d, %.2f epochs of examples, %d updates, %d active workers\n",
			lrep.Path, st.Epoch, float64(st.ExamplesDone)/float64(prob.Dataset.N()), st.TotalUpdates, active)
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

	trans, err := transport.ListenTCP(*listen, core.ClusterListenSlots(&cfg), core.ClusterTCPOptions(&cfg, *heartbeat, *hbMisses))
	if err != nil {
		fatal(err)
	}
	dialAddr := trans.Addr()
	var proxy *transport.Proxy
	if linkPlan != nil {
		proxy, err = transport.NewProxy("127.0.0.1:0", trans.Addr(), linkPlan)
		if err != nil {
			fatal(err)
		}
		defer proxy.Close()
		dialAddr = proxy.Addr()
		fmt.Printf("partition proxy: workers dial %s (plan %s)\n", dialAddr, linkPlan)
	}
	fmt.Printf("coordinator: listening on %s, waiting for %d workers\n", trans.Addr(), *workers)

	var spawned []*exec.Cmd
	var spawnWG sync.WaitGroup
	if *spawn {
		self, err := os.Executable()
		if err != nil {
			fatal(err)
		}
		for i := 0; i < *workers; i++ {
			cmd := exec.Command(self,
				"-role", "worker",
				"-id", strconv.Itoa(i),
				"-connect", dialAddr,
				"-dataset", *dsName,
				"-scale", *scale,
				"-seed", strconv.FormatUint(*seed, 10),
				"-hidden", strconv.Itoa(*hidden),
				"-weight-decay", strconv.FormatFloat(*decay, 'g', -1, 64),
				"-guards="+strconv.FormatBool(*guards),
			)
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				fatal(fmt.Errorf("spawning worker %d: %w", i, err))
			}
			fmt.Printf("spawned worker %d (pid %d)\n", i, cmd.Process.Pid)
			spawned = append(spawned, cmd)
			spawnWG.Add(1)
			go func(c *exec.Cmd) { defer spawnWG.Done(); c.Wait() }(cmd)
		}
		if *killID >= 0 && *killID < len(spawned) {
			victim := spawned[*killID]
			kid := *killID
			time.AfterFunc(*killAfter, func() {
				fmt.Printf("killing worker %d (pid %d) %v into the run\n", kid, victim.Process.Pid, *killAfter)
				victim.Process.Kill()
			})
		}
	} else if *killID >= 0 {
		fatal(fmt.Errorf("-kill-worker requires -spawn (the coordinator only owns processes it spawned)"))
	}

	res, err := core.RunCluster(ctx, cfg, *budget, trans, core.ClusterOptions{
		AttachTimeout:   *attach,
		DispatchTimeout: *dispatchT,
	})
	if err != nil {
		fatal(err)
	}
	spawnWG.Wait()

	if res.Interrupted {
		fmt.Println("interrupted: drained in-flight work")
	}
	experiments.WriteRunReport(os.Stdout, res, false)
}

// killSink SIGKILLs this process right after a checkpoint at or past the
// trigger epoch lands durably — the chaos-drill crash window where state
// exists on disk but no goodbye ever reaches the workers.
type killSink struct {
	inner core.CheckpointSink
	epoch int
}

func (k *killSink) WriteState(st *core.RunState) error {
	if err := k.inner.WriteState(st); err != nil {
		return err
	}
	if st.Epoch >= k.epoch {
		fmt.Printf("chaos: coordinator self-SIGKILL after epoch-%d checkpoint\n", st.Epoch)
		os.Stdout.Sync()
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
	}
	return nil
}

// capture tees a child's output for post-run assertions; writes are
// serialized because workers and coordinator share the drill's stdout.
type capture struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *capture) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

func (c *capture) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.String()
}

// proc is one spawned drill process.
type proc struct {
	name string
	cmd  *exec.Cmd
	out  *capture
	done chan error
}

func startProc(self, name string, args []string) (*proc, error) {
	p := &proc{name: name, cmd: exec.Command(self, args...), out: &capture{}, done: make(chan error, 1)}
	tee := io.MultiWriter(os.Stdout, p.out)
	p.cmd.Stdout = tee
	p.cmd.Stderr = tee
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawning %s: %w", name, err)
	}
	fmt.Printf("chaos: spawned %s (pid %d)\n", name, p.cmd.Process.Pid)
	go func() { p.done <- p.cmd.Wait() }()
	return p, nil
}

// kill SIGKILLs the process if it is still running and reaps it.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// wait blocks until exit or timeout; on timeout the process is killed and
// the drill records it as still-running.
func (p *proc) wait(d time.Duration) (error, bool) {
	select {
	case err := <-p.done:
		return err, true
	case <-time.After(d):
		p.kill()
		return fmt.Errorf("%s still running after %v (killed)", p.name, d), false
	}
}

// runChaosDrill executes a scripted process-level failure plan: spawn a real
// coordinator and worker fleet, SIGKILL them per the plan, restart the
// coordinator with -resume plus fresh workers, and assert the resumed run
// exits cleanly with exactly-once transport accounting.
func runChaosDrill(ctx context.Context, plan *faults.ProcPlan, ckpt string, nWorkers int, fs *flag.FlagSet) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if ckpt == "" {
		dir, err := os.MkdirTemp("", "hogcluster-chaos-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		ckpt = filepath.Join(dir, "run.ckpt")
	}

	// Forward the run-shape flags verbatim so every child trains the same
	// problem; listen/connect/checkpoint wiring is the drill's own.
	// Single-token -name=value form: boolean flags reject a detached value,
	// and a stray "true" operand would end the child's flag parsing.
	fwd := func(names ...string) []string {
		var args []string
		for _, n := range names {
			args = append(args, fmt.Sprintf("-%s=%s", n, fs.Lookup(n).Value.String()))
		}
		return args
	}
	coordShape := fwd("dataset", "scale", "alg", "seed", "hidden", "lr", "shuffle", "guards",
		"weight-decay", "staleness", "workers", "time", "heartbeat", "heartbeat-misses",
		"attach-timeout", "dispatch-timeout", "checkpoint-every", "checkpoint-keep")
	workerShape := fwd("dataset", "scale", "seed", "hidden", "weight-decay", "guards")
	budget, _ := time.ParseDuration(fs.Lookup("time").Value.String())
	waitBudget := 4*budget + 30*time.Second

	spawnWorkers := func(addr string, phase int) ([]*proc, error) {
		var ws []*proc
		for i := 0; i < nWorkers; i++ {
			args := append([]string{"-role", "worker", "-id", strconv.Itoa(i), "-connect", addr}, workerShape...)
			if phase == 1 {
				for _, k := range plan.KillWorkers {
					if k.Worker == i {
						args = append(args, "-die-after", strconv.Itoa(k.AfterFrames))
					}
				}
			}
			p, err := startProc(self, fmt.Sprintf("phase-%d worker %d", phase, i), args)
			if err != nil {
				for _, w := range ws {
					w.kill()
				}
				return nil, err
			}
			ws = append(ws, p)
		}
		return ws, nil
	}
	killAll := func(ps []*proc) {
		for _, p := range ps {
			p.kill()
		}
	}

	// --- Phase 1: the doomed incarnation. ---
	addr1, err := freeLoopbackAddr()
	if err != nil {
		return err
	}
	coordArgs := append([]string{"-role", "coordinator", "-listen", addr1, "-checkpoint", ckpt}, coordShape...)
	if plan.KillCoordinator != nil {
		coordArgs = append(coordArgs, "-die-at-epoch", strconv.Itoa(plan.KillCoordinator.AtEpoch))
	}
	fmt.Printf("chaos: phase 1 — plan %q, checkpoints at %s\n", plan, ckpt)
	coord1, err := startProc(self, "phase-1 coordinator", coordArgs)
	if err != nil {
		return err
	}
	workers1, err := spawnWorkers(addr1, 1)
	if err != nil {
		coord1.kill()
		return err
	}
	err1, exited := coord1.wait(waitBudget)
	// The survivors lose their coordinator; they are the zombies the resumed
	// incarnation must be immune to, and the drill reaps them before restart.
	killAll(workers1)
	if !exited {
		return fmt.Errorf("phase 1 coordinator hung: %v", err1)
	}
	if plan.KillCoordinator != nil && err1 == nil {
		return fmt.Errorf("phase 1 coordinator exited cleanly; the epoch-%d kill never fired (raise -time)", plan.KillCoordinator.AtEpoch)
	}
	fmt.Printf("chaos: phase 1 coordinator down (%v); restarting in %v\n", exitLabel(err1), plan.RestartDelay)
	if _, err := os.Stat(ckpt); err != nil {
		return fmt.Errorf("no checkpoint survived phase 1: %w", err)
	}

	select {
	case <-time.After(plan.RestartDelay):
	case <-ctx.Done():
		return ctx.Err()
	}

	// --- Phase 2: restart and resume. ---
	addr2, err := freeLoopbackAddr()
	if err != nil {
		return err
	}
	coordArgs = append([]string{"-role", "coordinator", "-listen", addr2, "-checkpoint", ckpt, "-resume", ckpt}, coordShape...)
	fmt.Println("chaos: phase 2 — resuming from checkpoint with a fresh fleet")
	coord2, err := startProc(self, "phase-2 coordinator", coordArgs)
	if err != nil {
		return err
	}
	workers2, err := spawnWorkers(addr2, 2)
	if err != nil {
		coord2.kill()
		return err
	}
	err2, exited := coord2.wait(waitBudget)
	killAll(workers2)
	if !exited {
		return fmt.Errorf("phase 2 coordinator hung: %v", err2)
	}
	if err2 != nil {
		return fmt.Errorf("phase 2 coordinator failed (%v) — resume did not recover the run", exitLabel(err2))
	}

	out := coord2.out.String()
	if !strings.Contains(out, "resuming from") {
		return fmt.Errorf("phase 2 never reported resuming from a checkpoint")
	}
	if !strings.Contains(out, "examples applied exactly once") {
		return fmt.Errorf("phase 2 printed no transport accounting")
	}
	if strings.Contains(out, "WARNING applied") {
		return fmt.Errorf("phase 2 transport accounting mismatch: applied != scheduled across the restart")
	}
	fmt.Printf("chaos: drill complete — %d worker kill(s), coordinator %s, resumed run exited 0 with exactly-once accounting\n",
		len(plan.KillWorkers), coordVerdict(plan, err1))
	return nil
}

// freeLoopbackAddr reserves a loopback port by binding and releasing it, so
// both drill phases can hand workers a concrete -connect address before the
// coordinator is up.
func freeLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

func exitLabel(err error) string {
	if err == nil {
		return "exit 0"
	}
	return err.Error()
}

func coordVerdict(plan *faults.ProcPlan, err1 error) string {
	if plan.KillCoordinator != nil {
		return fmt.Sprintf("SIGKILLed after its epoch-%d checkpoint", plan.KillCoordinator.AtEpoch)
	}
	if err1 == nil {
		return "ran to budget"
	}
	return "died (" + err1.Error() + ")"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hogcluster:", err)
	os.Exit(1)
}
