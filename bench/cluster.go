package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"heterosgd/internal/core"
	"heterosgd/internal/data"
	"heterosgd/internal/nn"
	"heterosgd/internal/transport"
)

// clusterBatch is the static batch both cluster workers run: SSP compares
// worker clocks step for step, so the sizes must match.
const clusterBatch = 64

// clusterSSPBound is the staleness bound the workload runs and checks.
const clusterSSPBound = 4

func runClusterSSP(rc *runCtx) error {
	return runTraining(rc, trainPlan{lossGuard: true, checkpoint: true, build: func(rc *runCtx) (*trainEnv, error) {
		spec := withHidden(rc, data.Covtype.Scaled(0.05), 6, 256)
		ds := data.Generate(spec, rc.seed)
		cfg := core.NewConfig(core.AlgSSP, nn.MustNetwork(spec.Arch()), ds, cpuPreset(clusterBatch, clusterBatch))
		cfg.BaseLR = 0.01
		cfg.StalenessBound = clusterSSPBound
		cfg.Seed = rc.seed
		cfg.Shuffle = true
		cfg.EvalSubset = evalSubset(rc)
		// Setup includes listening and both workers attaching once; every
		// window then brings up its own link the same way (RunCluster closes
		// the transport it is given), outside the window's measured time.
		link, err := clusterUp(rc, spec, &cfg, rc.root)
		if err != nil {
			return nil, err
		}
		link.down()
		env := &trainEnv{
			cfg: cfg, engineName: "core:RunCluster", cpuRows: clusterBatch, gpuRows: clusterBatch,
			link: &linkTotals{},
			verify: func(rc *runCtx, res *core.Result) {
				t := res.Health.Transport
				rc.check(t != nil && t.AppliedExamples == res.ExamplesProcessed,
					"exactly-once: applied examples ≠ %d scheduled", res.ExamplesProcessed)
				rc.check(res.Staleness.Max <= clusterSSPBound, "SSP staleness max %d > bound %d", res.Staleness.Max, clusterSSPBound)
			},
		}
		env.engine = func(cfg core.Config, budget time.Duration, parent int) (*core.Result, error) {
			link, err := clusterUp(rc, spec, &cfg, parent)
			if err != nil {
				return nil, err
			}
			res, err := core.RunCluster(link.ctx, cfg, budget, link.trans, core.ClusterOptions{})
			// The workers must have returned before their errors, the relay's
			// byte count and the transport's counters are final.
			link.down()
			if err != nil {
				return nil, err
			}
			env.link.add(link.trans.Stats(), link.relayed(), res.ExamplesProcessed)
			return res, link.workerErr()
		}
		return env, nil
	}})
}

// clusterLink is one coordinator listener with both workers attached.
type clusterLink struct {
	trans  *transport.TCP
	relay  *relay // traced pass only
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	mu     sync.Mutex
	errs   []error
}

// clusterUp listens on loopback, starts one in-process RunClusterWorker
// goroutine per configured worker — each on its own copy of the dataset, as
// separate processes would have — and waits until all have attached. On the
// traced pass the workers dial through a byte-counting relay whose frame
// spans hang under parent.
func clusterUp(rc *runCtx, spec data.SynthSpec, cfg *core.Config, parent int) (*clusterLink, error) {
	trans, err := transport.ListenTCP("127.0.0.1:0", len(cfg.Workers), core.ClusterTCPOptions(cfg, time.Second, 0))
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &clusterLink{trans: trans}
	l.ctx, l.cancel = context.WithCancel(context.Background())
	addr := trans.Addr()
	if rc.rec != nil {
		if l.relay, err = newRelay(addr, rc.rec, parent); err != nil {
			trans.Close()
			return nil, err
		}
		addr = l.relay.addr()
	}
	for id := range cfg.Workers {
		l.wg.Add(1)
		go func(id int) {
			defer l.wg.Done()
			wds := data.Generate(spec, rc.seed)
			err := core.RunClusterWorker(l.ctx, addr, id, nn.MustNetwork(spec.Arch()), wds, core.ClusterWorkerOptions{
				Client: transport.ClientOptions{Seed: rc.seed}, Threads: 1,
			})
			if err != nil && l.ctx.Err() == nil {
				l.mu.Lock()
				l.errs = append(l.errs, fmt.Errorf("worker %d: %w", id, err))
				l.mu.Unlock()
			}
		}(id)
	}
	if err := trans.WaitForWorkers(30 * time.Second); err != nil {
		l.down()
		return nil, fmt.Errorf("attach: %w", err)
	}
	return l, nil
}

// down stops the workers, the relay and the listener and waits for them.
// Each link is brought down exactly once, by whoever brought it up.
func (l *clusterLink) down() {
	l.cancel()
	l.trans.Close()
	l.wg.Wait()
	if l.relay != nil {
		l.relay.close()
	}
}

func (l *clusterLink) relayed() int64 {
	if l.relay == nil {
		return 0
	}
	return l.relay.bytes.Load()
}

func (l *clusterLink) workerErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return errors.Join(l.errs...)
}

// relay is a loopback TCP relay that counts the bytes of every frame it
// forwards and records each as a span: what the wire protocol costs,
// measured without touching the transport.
type relay struct {
	ln     net.Listener
	target string
	rec    *recorder
	parent int
	bytes  atomic.Int64
	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  []net.Conn
}

func newRelay(target string, rec *recorder, parent int) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("relay listen: %w", err)
	}
	r := &relay{ln: ln, target: target, rec: rec, parent: parent}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		down, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		up, err := net.Dial("tcp", r.target)
		if err != nil {
			down.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, down, up)
		r.mu.Unlock()
		r.wg.Add(2)
		go r.pump(up, down, "to-coordinator")
		go r.pump(down, up, "to-worker")
	}
}

// pump forwards frames from src to dst until either side closes.
func (r *relay) pump(dst, src net.Conn, dir string) {
	defer r.wg.Done()
	defer dst.Close()
	defer src.Close()
	counted := &countingReader{r: src, clock: r.rec.now}
	for {
		counted.n, counted.first = 0, -1
		kind, payload, err := transport.ReadFrame(counted)
		if err != nil {
			return
		}
		if err := transport.WriteFrame(dst, kind, payload); err != nil {
			return
		}
		r.bytes.Add(counted.n)
		// The span runs from the frame's first byte arriving to its last
		// byte forwarded; the wait for a frame to begin is not the wire's.
		r.rec.add(span{
			Name: "transport:frame." + kind.String(), Track: "transport/" + dir,
			Start: counted.first, End: r.rec.now(), Parent: r.parent, Arg: counted.n,
		})
	}
}

func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// countingReader counts one frame's bytes and notes when its first byte
// arrived.
type countingReader struct {
	r     io.Reader
	clock func() time.Duration
	n     int64
	first time.Duration // -1 until the frame's first byte
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 && c.first < 0 {
		c.first = c.clock()
	}
	c.n += int64(n)
	return n, err
}
