package transport

import (
	"fmt"
	"net"
	"sync"
	"time"

	"heterosgd/internal/msgq"
	"heterosgd/internal/telemetry"
)

// TCPOptions configures the coordinator side of the TCP transport.
type TCPOptions struct {
	// Heartbeat is the worker heartbeat period advertised in the Welcome;
	// a link with no frame for Heartbeat × MissLimit is declared down.
	// Zero defaults to one second.
	Heartbeat time.Duration
	// MissLimit is the number of consecutive missed heartbeats tolerated
	// before the link is declared down. Zero defaults to 3.
	MissLimit int
	// Welcome is the run configuration handed to each connecting worker
	// (HeartbeatNS is filled in from Heartbeat; Worker is filled in per
	// connection).
	Welcome Welcome
	// MaxWorkers caps the link table for elastic joins: fresh workers may
	// attach mid-run (KindJoin handshake) until the table holds MaxWorkers
	// slots. Zero (or anything below the initial count) disables joins.
	MaxWorkers int
	// Departed lists worker ids whose slots start retired — a resumed run's
	// drained or evicted workers. Their ids stay allocated (ids are never
	// reused) but a Hello for one is rejected, exactly as if Retire had
	// already run, and they are not waited for at attach.
	Departed []int
	// Metrics, when set, surfaces transport_* counters and the
	// reconnect-latency histogram in the registry.
	Metrics *telemetry.Registry
	// DeltaBytes, when set, is the size of the Delta a completion carries:
	// ListenTCP then holds a receive buffer of that size for each initial
	// worker, so the first completions allocate none and a run's buffers
	// cost the same whether or not a dispatch ever comes.
	DeltaBytes int
}

func (o *TCPOptions) defaults() {
	if o.Heartbeat <= 0 {
		o.Heartbeat = time.Second
	}
	if o.MissLimit <= 0 {
		o.MissLimit = 3
	}
}

// sendTimeout bounds each frame write, on either end of a link.
const sendTimeout = 5 * time.Second

// sendFrame writes one frame on conn within sendTimeout.
func sendFrame(conn net.Conn, kind Kind, payload []byte) error {
	conn.SetWriteDeadline(time.Now().Add(sendTimeout))
	defer conn.SetWriteDeadline(time.Time{})
	return WriteFrame(conn, kind, payload)
}

// tcpMetrics bundles the coordinator-side transport instruments. All
// counters are nil-safe (a nil registry leaves them nil).
type tcpMetrics struct {
	work       *telemetry.Counter
	done       *telemetry.Counter
	acks       *telemetry.Counter
	heartbeats *telemetry.Counter
	linkDowns  *telemetry.Counter
	reconnects *telemetry.Counter
	frameErrs  *telemetry.Counter
	reconnectH *telemetry.Histogram
}

func newTCPMetrics(reg *telemetry.Registry) tcpMetrics {
	if reg == nil {
		return tcpMetrics{}
	}
	return tcpMetrics{
		work:       reg.Counter("transport_work_total"),
		done:       reg.Counter("transport_done_total"),
		acks:       reg.Counter("transport_acks_total"),
		heartbeats: reg.Counter("transport_heartbeats_total"),
		linkDowns:  reg.Counter("transport_link_failures_total"),
		reconnects: reg.Counter("transport_reconnects_total"),
		frameErrs:  reg.Counter("transport_frame_errors_total"),
		reconnectH: reg.Histogram("transport_reconnect_seconds"),
	}
}

// link is one worker's connection slot.
type link struct {
	conn net.Conn // nil while down
	// downAt stamps the moment the link went down, for the
	// reconnect-latency histogram.
	downAt time.Time
	// everUp marks that the worker has connected at least once, so a
	// re-established link counts as a reconnect.
	everUp bool
	// departed marks a slot retired after a graceful leave: its closed
	// connection raises no LinkDown, and the slot accepts no reconnect.
	departed bool
}

// TCP is the networked Transport: the coordinator listens, workers dial in
// (and back in, after partitions) identifying themselves with a Hello
// frame. Each worker link runs a reader goroutine feeding a shared receive
// queue; heartbeat-fed read deadlines detect dead links and surface them as
// LinkDown events. Delivery of completions is at least once — workers
// retransmit unacknowledged Dones after reconnecting — and the engine
// deduplicates by dispatch sequence number.
type TCP struct {
	opts TCPOptions
	ln   net.Listener

	recvQ *msgq.Queue[Msg]
	m     tcpMetrics

	mu     sync.Mutex
	links  []link
	closed bool
	// initial is the worker count the run starts with; maxWorkers bounds
	// the link table across elastic joins.
	initial    int
	maxWorkers int
	// attached counts initial workers that have connected at least once;
	// attachCh closes when all have (WaitForWorkers). Elastic joiners do
	// not count — the run is already underway when they arrive.
	attached int
	attachCh chan struct{}

	stats   Stats
	statsMu sync.Mutex
	// delivered is each link slot's highest Done seq so far, under statsMu.
	// A worker holds one dispatch at a time, so its seqs only rise: a Done
	// not above its slot's mark is a retransmission or a duplicated frame.
	delivered []uint64

	// free holds the Done receive buffers the engine has handed back
	// (Recycle) for the read loops to fill again — at most one per link slot,
	// since a worker has one dispatch outstanding. Recycling only spares the
	// allocator: a buffer that never comes back is garbage-collected and the
	// next completion gets a fresh one.
	freeMu sync.Mutex
	free   [][]byte

	// work is Send's frame writer; sendMu serializes Sends over its scratch
	// (one coordinator goroutine sends in any case).
	sendMu sync.Mutex
	work   workWriter

	wg sync.WaitGroup
}

// ListenTCP starts a coordinator transport for n workers on addr (use
// "127.0.0.1:0" for tests and loopback clusters).
func ListenTCP(addr string, n int, opts TCPOptions) (*TCP, error) {
	opts.defaults()
	opts.Welcome.HeartbeatNS = int64(opts.Heartbeat)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	maxW := max(opts.MaxWorkers, n)
	t := &TCP{
		opts:       opts,
		ln:         ln,
		recvQ:      msgq.New[Msg](),
		m:          newTCPMetrics(opts.Metrics),
		links:      make([]link, 0, maxW),
		initial:    n,
		maxWorkers: maxW,
		attachCh:   make(chan struct{}),
		delivered:  make([]uint64, maxW),
	}
	t.links = t.links[:n]
	for i := 0; opts.DeltaBytes > 0 && i < n; i++ {
		t.free = append(t.free, make([]byte, doneHeadLen(Done{})+opts.DeltaBytes+4+7))
	}
	for _, id := range opts.Departed {
		if id < 0 || id >= n {
			ln.Close()
			return nil, fmt.Errorf("transport: departed worker %d outside the %d-slot table", id, n)
		}
		if !t.links[id].departed {
			t.links[id].departed = true
			// A departed slot will never dial in; count it attached so
			// WaitForWorkers only waits on the live restored set.
			t.attached++
		}
	}
	if t.attached == t.initial {
		close(t.attachCh)
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the listening address for workers to dial.
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// WaitForWorkers blocks until every initial worker has connected at least
// once, or the timeout expires. Elastic joiners are not waited for.
func (t *TCP) WaitForWorkers(timeout time.Duration) error {
	select {
	case <-t.attachCh:
		return nil
	case <-time.After(timeout):
		t.mu.Lock()
		n := t.attached
		t.mu.Unlock()
		return fmt.Errorf("transport: %d of %d workers attached after %v", n, t.initial, timeout)
	}
}

// Stats returns a copy of the lifetime transport statistics.
func (t *TCP) Stats() Stats {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return t.stats
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.handshake(conn)
	}
}

// handshake validates a dialing worker's Hello (or an elastic joiner's
// Join), replies Welcome with the worker's ID, installs the connection
// (displacing a stale one), and runs the read loop.
func (t *TCP) handshake(conn net.Conn) {
	defer t.wg.Done()
	deadline := t.opts.Heartbeat * time.Duration(t.opts.MissLimit)
	conn.SetReadDeadline(time.Now().Add(deadline))
	kind, payload, err := ReadFrame(conn)
	id, joining := -1, kind == KindJoin
	t.mu.Lock()
	switch {
	case err != nil:
	case joining && !t.closed && len(t.links) < t.maxWorkers:
		// Admit a fresh worker: grow the link table under the cap. The slot
		// is allocated before the Welcome so no two joiners share an ID.
		id = len(t.links)
		t.links = append(t.links, link{})
	case kind == KindHello:
		if hello, err := DecodeHello(payload); err == nil && hello.Worker < len(t.links) && !t.links[hello.Worker].departed {
			id = hello.Worker
		}
	}
	t.mu.Unlock()
	if id < 0 {
		t.m.frameErrs.Inc()
		conn.Close()
		return
	}
	welcome := t.opts.Welcome
	welcome.Worker = id
	if err := sendFrame(conn, KindWelcome, EncodeWelcome(welcome)); err != nil {
		conn.Close()
		return
	}

	t.mu.Lock()
	if t.closed || t.links[id].departed {
		t.mu.Unlock()
		conn.Close()
		return
	}
	l := &t.links[id]
	if l.conn != nil {
		// The worker reconnected before the dead link's reader noticed;
		// displace it. The old reader sees its conn closed and skips its
		// LinkDown (superseded).
		l.conn.Close()
	}
	reconnect := l.everUp
	var downFor time.Duration
	if reconnect && !l.downAt.IsZero() {
		downFor = time.Since(l.downAt)
	}
	l.conn = conn
	l.downAt = time.Time{}
	if !l.everUp {
		l.everUp = true
		if id < t.initial {
			t.attached++
			if t.attached == t.initial {
				close(t.attachCh)
			}
		}
	}
	t.mu.Unlock()

	if reconnect {
		t.statsMu.Lock()
		t.stats.Reconnects++
		t.statsMu.Unlock()
		t.m.reconnects.Inc()
		if downFor > 0 {
			t.m.reconnectH.Observe(downFor)
		}
	}
	up := LinkUp
	if joining {
		up = LinkJoin
	}
	t.recvQ.Push(Msg{Event: &Event{Worker: id, Kind: up}})
	t.readLoop(id, conn)
}

// takeBuf returns a buffer for an n-byte Done frame body, reusing a recycled
// one when it is large enough, and the body inside it: placed so that a delta
// behind an empty Err — a Done with a delta has none — has 8-aligned float
// sections. n is readHeader's bounded length.
func (t *TCP) takeBuf(n int) (buf, body []byte) {
	t.freeMu.Lock()
	if k := len(t.free) - 1; k >= 0 {
		buf, t.free = t.free[k], t.free[:k]
	}
	t.freeMu.Unlock()
	buf = sized(buf, n+7)
	k := alignedAt(buf, doneHeadLen(Done{})+modelFloatsAt)
	return buf, buf[k : k+n]
}

// Recycle hands back the receive buffer m.Done.Delta aliases once the engine
// is through with the completion — applied, or discarded as a duplicate or
// an abandoned straggler. The Delta must not be used afterwards (it is
// cleared). Calling it is optional; see TCP.free.
func (t *TCP) Recycle(m Msg) {
	if m.lease == nil || m.lease.buf == nil {
		return
	}
	buf := m.lease.buf
	m.lease.buf, m.Done.Delta = nil, nil
	t.freeMu.Lock()
	if len(t.free) < t.maxWorkers {
		t.free = append(t.free, buf)
	}
	t.freeMu.Unlock()
}

// readLoop consumes one connection's frames until error or displacement.
// A Done's body is read into a pooled buffer that travels with the message;
// the small frames share one the loop keeps.
func (t *TCP) readLoop(id int, conn net.Conn) {
	deadline := t.opts.Heartbeat * time.Duration(t.opts.MissLimit)
	hdr := make([]byte, headerLen)
	var small []byte
	for {
		conn.SetReadDeadline(time.Now().Add(deadline))
		kind, n, err := readHeader(conn, hdr)
		if err != nil {
			t.linkDown(id, conn, err)
			return
		}
		var buf, body []byte
		if kind == KindDone {
			buf, body = t.takeBuf(n + 4)
		} else {
			small = sized(small, n+4)
			body = small
		}
		payload, sum, err := readBody(conn, hdr, body)
		if err != nil {
			t.linkDown(id, conn, err)
			return
		}
		switch kind {
		case KindDone:
			d, err := DecodeDone(payload)
			if err != nil || d.Worker != id {
				t.m.frameErrs.Inc()
				t.linkDown(id, conn, fmt.Errorf("transport: bad done frame: %v", err))
				return
			}
			d.DeltaCRC = sum
			t.m.done.Inc()
			t.statsMu.Lock()
			t.stats.Completed++
			if d.Seq <= t.delivered[id] {
				t.stats.Duplicates++
			} else {
				t.delivered[id] = d.Seq
			}
			t.statsMu.Unlock()
			// Ack first (best effort): the worker may drop its retransmit
			// copy as soon as the completion is on the coordinator's queue.
			if err := sendFrame(conn, KindAck, EncodeAck(Ack{Seq: d.Seq})); err != nil {
				t.linkDown(id, conn, err)
				return
			}
			t.m.acks.Inc()
			t.recvQ.Push(Msg{Done: &d, lease: &lease{buf}})
		case KindHeartbeat:
			t.m.heartbeats.Inc()
			// Pong: the echo feeds the worker's read deadline.
			if err := sendFrame(conn, KindHeartbeat, nil); err != nil {
				t.linkDown(id, conn, err)
				return
			}
		case KindLeave:
			l, err := DecodeLeave(payload)
			if err != nil || l.Worker != id {
				t.m.frameErrs.Inc()
				t.linkDown(id, conn, fmt.Errorf("transport: bad leave frame: %v", err))
				return
			}
			// Keep reading: the drain's Done frames still flow on this
			// link; the engine calls Retire once the flight map clears.
			t.recvQ.Push(Msg{Event: &Event{Worker: id, Kind: LinkLeave, Reason: "graceful leave"}})
		case KindGoodbye:
			t.linkDown(id, conn, fmt.Errorf("transport: worker said goodbye"))
			return
		default:
			t.m.frameErrs.Inc()
			t.linkDown(id, conn, fmt.Errorf("transport: unexpected %v frame", kind))
			return
		}
	}
}

// linkDown retires a failed connection and surfaces a LinkDown event —
// unless the connection was already displaced by a reconnect, in which case
// the failure is stale news.
func (t *TCP) linkDown(id int, conn net.Conn, cause error) {
	conn.Close()
	t.mu.Lock()
	current := t.links[id].conn == conn
	if current {
		t.links[id].conn = nil
		t.links[id].downAt = time.Now()
	}
	closed := t.closed
	t.mu.Unlock()
	if !current || closed {
		return
	}
	t.m.linkDowns.Inc()
	t.statsMu.Lock()
	t.stats.LinkFailures++
	if ne, ok := cause.(net.Error); ok && ne.Timeout() {
		t.stats.HeartbeatMisses++
	}
	t.statsMu.Unlock()
	reason := "read error"
	if cause != nil {
		reason = cause.Error()
	}
	t.recvQ.Push(Msg{Event: &Event{Worker: id, Kind: LinkDown, Reason: reason}})
}

// Retire gracefully closes worker's link once its drain has settled: a
// best-effort Goodbye tells the worker process to exit, the slot is marked
// departed (no LinkDown event, no reconnect), and future Sends report
// ErrLinkDown.
func (t *TCP) Retire(worker int) {
	t.mu.Lock()
	if worker < 0 || worker >= len(t.links) || t.links[worker].departed {
		t.mu.Unlock()
		return
	}
	conn := t.links[worker].conn
	t.links[worker].conn = nil
	t.links[worker].departed = true
	t.mu.Unlock()
	if conn != nil {
		sendFrame(conn, KindGoodbye, nil) // best effort
		conn.Close()
	}
}

// Send dispatches w to worker over its live link. ErrLinkDown when the link
// is down; any other error also means the dispatch must be re-sent (the
// failed link is retired).
func (t *TCP) Send(worker int, w Work) error {
	t.mu.Lock()
	conn := t.links[worker].conn
	t.mu.Unlock()
	if conn == nil {
		return ErrLinkDown
	}
	t.sendMu.Lock()
	conn.SetWriteDeadline(time.Now().Add(sendTimeout))
	err := t.work.write(conn, w)
	conn.SetWriteDeadline(time.Time{})
	t.sendMu.Unlock()
	if err != nil {
		t.linkDown(worker, conn, err)
		return fmt.Errorf("transport: send to worker %d: %w", worker, err)
	}
	t.m.work.Inc()
	t.statsMu.Lock()
	t.stats.Dispatched++
	t.statsMu.Unlock()
	return nil
}

// Recv waits up to d for the next completion, event, or wakeup; negative d
// blocks.
func (t *TCP) Recv(d time.Duration) (Msg, RecvStatus) { return recv(t.recvQ, d) }

// Wake unblocks a pending Recv with an empty Msg.
func (t *TCP) Wake() {
	t.recvQ.Push(Msg{})
}

// Close tells connected workers to exit (Goodbye), closes every link and
// the listener, and closes the receive queue once the reader goroutines
// drain. Close is idempotent.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]net.Conn, 0, len(t.links))
	for i := range t.links {
		if c := t.links[i].conn; c != nil {
			conns = append(conns, c)
			t.links[i].conn = nil
		}
	}
	t.mu.Unlock()
	for _, c := range conns {
		sendFrame(c, KindGoodbye, nil) // best effort
		c.Close()
	}
	t.ln.Close()
	t.wg.Wait()
	t.recvQ.Close()
	return nil
}
