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
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"heterosgd/internal/cli"
	"heterosgd/internal/core"
	"heterosgd/internal/experiments"
	"heterosgd/internal/faults"
	"heterosgd/internal/transport"
)

func main() {
	prob := cli.DefaultProblem()
	prob.Bind(flag.CommandLine)
	prob.BindHidden(flag.CommandLine)
	run := cli.DefaultRun()
	run.LR, run.Time, run.Shuffle, run.Guards = 0.1, 2*time.Second, true, true
	run.Bind(flag.CommandLine, core.ClusterAlgorithmNames())
	var tel cli.Telemetry
	tel.Bind(flag.CommandLine)
	var (
		role  = flag.String("role", "coordinator", "process role: coordinator or worker")
		decay = flag.Float64("weight-decay", 0, "L2 weight decay (the coordinator's; workers take it from the handshake)")

		// Coordinator flags.
		listen    = flag.String("listen", "127.0.0.1:0", "coordinator listen address")
		workers   = flag.Int("workers", 2, "number of remote workers")
		heartbeat = flag.Duration("heartbeat", 250*time.Millisecond, "link heartbeat period")
		hbMisses  = flag.Int("heartbeat-misses", 3, "missed heartbeats before a link is declared down")
		attach    = flag.Duration("attach-timeout", 30*time.Second, "how long to wait for all workers to connect")
		dispatchT = flag.Duration("dispatch-timeout", 0, "per-dispatch deadline: the watchdog floor, with no cost-model slack (0 = partitions detected by heartbeat only)")
		spawn     = flag.Bool("spawn", false, "also spawn the worker processes (this binary, -role worker) on loopback")
		linkStr   = flag.String("linkfaults", "", "partition plan routed through an in-process proxy: drop:W:RATE,dup:W:RATE,delay:W:EVERY:DUR,sever:W:AFTER:REFUSE (implies -spawn routing)")
		killID    = flag.Int("kill-worker", -1, "with -spawn: kill this worker's process mid-run")
		killAfter = flag.Duration("kill-after", 500*time.Millisecond, "with -kill-worker: how far into the run to kill it")
		dieEpoch  = flag.Int("die-at-epoch", 0, "chaos: coordinator SIGKILLs itself right after its checkpoint at this epoch lands (requires -checkpoint)")
		chaosStr  = flag.String("chaos", "", "process chaos drill: kill-worker:W:FRAMES,kill-coord:EPOCH,restart:DUR — spawn, kill, restart, and resume real processes, then assert invariants")

		// Worker flags.
		id       = flag.Int("id", 0, "worker id (0-based, unique per run)")
		connect  = flag.String("connect", "", "coordinator (or fault proxy) address to dial")
		threads  = flag.Int("threads", 0, "sequential gradient lanes per dispatch (0 = the coordinator's lane count for the dispatch)")
		join     = flag.Bool("join", false, "attach to a running coordinator as a fresh elastic worker (ignores -id; needs coordinator -max-workers headroom)")
		leaveAft = flag.Int("leave-after", 0, "announce a graceful departure after this many handled dispatches (0 = serve until goodbye)")
		dieAfter = flag.Int("die-after", 0, "chaos: SIGKILL this worker process on its n-th received dispatch")
	)
	cli.Parse()
	if *heartbeat <= 0 {
		cli.Fatal(fmt.Errorf("-heartbeat must be positive, got %v", *heartbeat))
	}
	if *hbMisses < 1 {
		cli.Fatal(fmt.Errorf("-heartbeat-misses must be at least 1, got %d", *hbMisses))
	}

	ctx, stopSignals := cli.SignalContext()
	defer stopSignals()

	// Every process of a run trains the same problem: a spawned worker gets
	// the problem binding, and the rest of its gradient step (weight decay,
	// guards) from the handshake.
	workerShape := prob.Args()
	if *chaosStr != "" {
		if *role != "coordinator" {
			cli.Fatal(fmt.Errorf("-chaos runs the drill from the coordinator role"))
		}
		plan, err := faults.ParseProcPlan(*chaosStr)
		if err != nil {
			cli.Fatal(err)
		}
		if err := plan.Validate(*workers); err != nil {
			cli.Fatal(err)
		}
		// A drill coordinator also gets the whole run binding and the
		// cluster's shape; listen/checkpoint/resume wiring is the drill's own.
		coordShape := slices.Concat(prob.Args(), run.Args(),
			forward("weight-decay", "workers", "heartbeat", "heartbeat-misses", "attach-timeout", "dispatch-timeout"))
		if err := runChaosDrill(ctx, plan, run.Checkpoint, *workers, run.Time, coordShape, workerShape); err != nil {
			cli.Fatal(fmt.Errorf("chaos drill: %w", err))
		}
		fmt.Println("chaos drill: PASS")
		return
	}

	p, err := prob.Build()
	if err != nil {
		cli.Fatal(err)
	}

	if *role == "worker" {
		if *connect == "" {
			cli.Fatal(fmt.Errorf("-role worker requires -connect"))
		}
		wid := *id
		if *join {
			// Negative id asks the coordinator for a slot; the assigned id
			// arrives in the Welcome.
			wid = -1
		}
		opts := core.ClusterWorkerOptions{
			Client:     transport.ClientOptions{Seed: prob.Seed},
			Threads:    *threads,
			LeaveAfter: *leaveAft,
		}
		if n := *dieAfter; n > 0 {
			opts.OnDispatch = func(h int) {
				if h >= n {
					fmt.Printf("chaos: worker %d self-SIGKILL on dispatch %d\n", *id, h)
					syscall.Kill(os.Getpid(), syscall.SIGKILL)
				}
			}
		}
		err := core.RunClusterWorker(ctx, *connect, wid, p.Net, p.Dataset, opts)
		if err != nil && ctx.Err() == nil {
			if *join {
				cli.Fatal(fmt.Errorf("elastic joiner: %w", err))
			}
			cli.Fatal(fmt.Errorf("worker %d: %w", *id, err))
		}
		if *join {
			fmt.Println("worker (elastic join): done")
		} else {
			fmt.Printf("worker %d: done\n", *id)
		}
		return
	}
	if *role != "coordinator" {
		cli.Fatal(fmt.Errorf("unknown -role %q (coordinator or worker)", *role))
	}

	linkPlan, err := faults.ParseLinks(*linkStr)
	if err != nil {
		cli.Fatal(err)
	}
	if linkPlan != nil {
		linkPlan.Seed = prob.Seed
		if err := linkPlan.Validate(*workers); err != nil {
			cli.Fatal(err)
		}
	}
	if run.MaxWorkers > 0 && run.MaxWorkers < *workers {
		cli.Fatal(fmt.Errorf("-max-workers %d is below -workers %d", run.MaxWorkers, *workers))
	}

	cfg, err := run.Config(&prob, p.Net, p.Dataset)
	if err != nil {
		cli.Fatal(err)
	}
	cfg.WeightDecay = *decay
	if *dispatchT > 0 {
		cfg.Watchdog = &core.WatchdogConfig{Floor: *dispatchT}
	}
	// The Config's worker list sizes the scheduler (batch windows, adaptive
	// thresholds); the processes filling those slots are remote. Pad or trim
	// to the requested cluster size by cycling the algorithm's device mix.
	// Slots above -workers, up to -max-workers, are headroom that sizes the
	// link table and scheduler arrays for `-role worker -join` processes.
	orig := len(cfg.Workers)
	for len(cfg.Workers) < *workers {
		cfg.Workers = append(cfg.Workers, cfg.Workers[len(cfg.Workers)%orig])
	}
	cfg.Workers = cfg.Workers[:*workers]
	if *dieEpoch > 0 {
		if run.Checkpoint == "" {
			cli.Fatal(fmt.Errorf("-die-at-epoch requires -checkpoint (the kill fires after a durable capture)"))
		}
		cfg.CheckpointSink = &killSink{inner: cfg.CheckpointSink, epoch: *dieEpoch}
	}
	if cfg.Metrics, err = tel.Serve(); err != nil {
		cli.Fatal(err)
	}

	trans, err := transport.ListenTCP(*listen, core.ClusterListenSlots(&cfg), core.ClusterTCPOptions(&cfg, *heartbeat, *hbMisses))
	if err != nil {
		cli.Fatal(err)
	}
	dialAddr := trans.Addr()
	var proxy *transport.Proxy
	if linkPlan != nil {
		proxy, err = transport.NewProxy("127.0.0.1:0", trans.Addr(), linkPlan)
		if err != nil {
			cli.Fatal(err)
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
			cli.Fatal(err)
		}
		for i := 0; i < *workers; i++ {
			cmd := exec.Command(self, workerArgs(i, dialAddr, workerShape)...)
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				cli.Fatal(fmt.Errorf("spawning worker %d: %w", i, err))
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
		cli.Fatal(fmt.Errorf("-kill-worker requires -spawn (the coordinator only owns processes it spawned)"))
	}

	res, err := core.RunCluster(ctx, cfg, run.Time, trans, core.ClusterOptions{AttachTimeout: *attach})
	if err != nil {
		cli.Fatal(err)
	}
	spawnWG.Wait()

	if res.Interrupted {
		fmt.Println("interrupted: drained in-flight work")
	}
	experiments.WriteRunReport(os.Stdout, res, false)
}

// forward renders this process's named flags for a child, each as one
// -name=value token: a boolean flag rejects a detached value.
func forward(names ...string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = "-" + n + "=" + flag.Lookup(n).Value.String()
	}
	return out
}

// workerArgs is the command line of worker id dialing addr.
func workerArgs(id int, addr string, shape []string) []string {
	return append([]string{"-role=worker", "-id=" + strconv.Itoa(id), "-connect=" + addr}, shape...)
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
//
// coordShape and workerShape are the flags every coordinator and worker
// incarnation shares; budget is the run's -time.
func runChaosDrill(ctx context.Context, plan *faults.ProcPlan, ckpt string, nWorkers int, budget time.Duration, coordShape, workerShape []string) error {
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

	waitBudget := 4*budget + 30*time.Second
	// The drill's own wiring follows the shape, so it overrides the shape's
	// -checkpoint and -resume (the last occurrence of a flag wins).
	coordArgs := func(addr, resume string) []string {
		return append(slices.Clone(coordShape), "-role=coordinator", "-listen="+addr, "-checkpoint="+ckpt, "-resume="+resume)
	}

	spawnWorkers := func(addr string, phase int) ([]*proc, error) {
		var ws []*proc
		for i := 0; i < nWorkers; i++ {
			args := workerArgs(i, addr, workerShape)
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
	args1 := coordArgs(addr1, "")
	if plan.KillCoordinator != nil {
		args1 = append(args1, "-die-at-epoch", strconv.Itoa(plan.KillCoordinator.AtEpoch))
	}
	fmt.Printf("chaos: phase 1 — plan %q, checkpoints at %s\n", plan, ckpt)
	coord1, err := startProc(self, "phase-1 coordinator", args1)
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
	fmt.Println("chaos: phase 2 — resuming from checkpoint with a fresh fleet")
	coord2, err := startProc(self, "phase-2 coordinator", coordArgs(addr2, ckpt))
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
