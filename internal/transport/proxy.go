package transport

import (
	"fmt"
	"net"
	"sync"
	"time"

	"heterosgd/internal/faults"
)

// Proxy is a frame-aware partition-injection proxy: workers dial it instead
// of the coordinator, and it forwards frames in both directions while
// consulting a faults.LinkPlan — dropping, duplicating, and delaying
// completion frames, severing links after a fixed number of dispatches,
// and refusing redials until the planned partition heals. Because every
// verdict is drawn from the plan's seeded per-worker stream indexed by
// frame counts (never wall time), a run against the proxy replays
// deterministically for a fixed seed.
//
// Heartbeats and handshake frames are always forwarded untouched: the plan
// degrades the *work* channel, not the liveness protocol, so a drop-heavy
// plan starves progress without flapping links that are genuinely up.
type Proxy struct {
	ln     net.Listener
	target string
	plan   *faults.LinkPlan

	mu sync.Mutex
	// injectors persist across reconnections: a healed link continues the
	// same deterministic fault stream.
	injectors map[int]*faults.LinkInjector
	// active tracks live relay connections so Close can cut them.
	active map[net.Conn]struct{}
	closed bool
	// severed receives a worker's id once a planned sever has closed both
	// halves of its link (see Severed).
	severed chan int

	wg sync.WaitGroup
}

// NewProxy starts a partition proxy on addr (use "127.0.0.1:0") forwarding
// to the coordinator at target under plan. A nil plan forwards everything.
func NewProxy(addr, target string, plan *faults.LinkPlan) (*Proxy, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: proxy listen %s: %w", addr, err)
	}
	p := &Proxy{
		ln:        ln,
		target:    target,
		plan:      plan,
		injectors: make(map[int]*faults.LinkInjector),
		active:    make(map[net.Conn]struct{}),
		severed:   make(chan int, 16), // a plan severs each link at most once; drills run a handful
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listening address (what workers should dial).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Severed delivers the id of each worker whose link a planned sever has cut,
// after both halves are closed — what a test waits on to act strictly after
// the partition began. Signals nobody collects are dropped past a small
// buffer.
func (p *Proxy) Severed() <-chan int { return p.severed }

// Close stops accepting and tears down active relays.
func (p *Proxy) Close() error {
	p.mu.Lock()
	p.closed = true
	for c := range p.active {
		c.Close()
	}
	p.mu.Unlock()
	p.ln.Close()
	p.wg.Wait()
	return nil
}

// track registers a relay connection for teardown; it reports false (and
// closes the conn) when the proxy is already closed.
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return false
	}
	p.active[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.active, c)
	p.mu.Unlock()
}

// injector returns worker id's persistent link injector (nil = no faults).
func (p *Proxy) injector(id int) *faults.LinkInjector {
	p.mu.Lock()
	defer p.mu.Unlock()
	in, ok := p.injectors[id]
	if !ok {
		in = p.plan.ForLink(id)
		p.injectors[id] = in
	}
	return in
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go p.relay(conn)
	}
}

// relay handles one worker connection: peek the Hello to learn which link
// this is, consult the injector's dial verdict (a refused dial is how a
// severed partition stays severed), then splice the two directions with
// frame-level fault injection on the way.
func (p *Proxy) relay(down net.Conn) {
	defer p.wg.Done()
	defer down.Close()
	if !p.track(down) {
		return
	}
	defer p.untrack(down)
	down.SetReadDeadline(time.Now().Add(5 * time.Second))
	kind, payload, err := ReadFrame(down)
	if err != nil || kind != KindHello {
		return
	}
	hello, err := DecodeHello(payload)
	if err != nil {
		return
	}
	down.SetReadDeadline(time.Time{})
	inj := p.injector(hello.Worker)
	if !inj.Dial() {
		return // partition not healed: refuse by hanging up
	}
	up, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		return
	}
	defer up.Close()
	if !p.track(up) {
		return
	}
	defer p.untrack(up)
	if err := WriteFrame(up, KindHello, payload); err != nil {
		return
	}

	// sever closes both halves; each copier may trigger it.
	var severOnce sync.Once
	sever := func() {
		severOnce.Do(func() {
			down.Close()
			up.Close()
		})
	}
	var relayWG sync.WaitGroup
	relayWG.Add(1)
	// Upstream (worker → coordinator): completion frames get the plan's
	// drop/dup/delay verdicts; everything else passes through.
	go func() {
		defer relayWG.Done()
		defer sever()
		for {
			kind, payload, err := ReadFrame(down)
			if err != nil {
				return
			}
			copies := 1
			if kind == KindDone && inj != nil {
				v := inj.Done()
				time.Sleep(v.Delay)
				switch {
				case v.Drop:
					copies = 0
				case v.Dup:
					copies = 2
				}
			}
			for range copies {
				if err := WriteFrame(up, kind, payload); err != nil {
					return
				}
			}
		}
	}()
	// Downstream (coordinator → worker): forward, counting Work frames
	// toward the sever trigger. The severing frame is still delivered —
	// the partition cuts the link *after* the dispatch, so the completion
	// is what gets stranded. The coordinator's half closes before the
	// worker can see that frame: cut after the write, a worker that answered
	// before this goroutine got to the cut would have its completion relayed
	// and applied as live, and nothing would be stranded.
	func() {
		defer sever()
		for {
			kind, payload, err := ReadFrame(up)
			if err != nil {
				return
			}
			cut := kind == KindWork && inj.Work()
			if cut {
				up.Close()
			}
			err = WriteFrame(down, kind, payload)
			if cut {
				sever()
				select {
				case p.severed <- hello.Worker:
				default:
				}
				return
			}
			if err != nil {
				return
			}
		}
	}()
	relayWG.Wait()
}
