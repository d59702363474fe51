package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"
)

// ClientOptions configures a worker's side of the TCP transport.
type ClientOptions struct {
	// BackoffBase is the first reconnect delay; attempts double it up to
	// BackoffMax, each jittered to [½d, d). Zero defaults to 50 ms / 2 s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxAttempts bounds consecutive failed connection attempts before
	// Run gives up. Zero defaults to 30.
	MaxAttempts int
	// Seed drives the backoff jitter (mixed with the worker ID), keeping
	// multi-process runs reproducible under a fixed seed.
	Seed uint64
}

// dialTimeout bounds each connection attempt and the wait for its Welcome.
const dialTimeout = 2 * time.Second

func (o *ClientOptions) defaults() {
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 30
	}
}

// Client is a worker's connection to the coordinator: it dials (and
// re-dials, with seeded jittered exponential backoff), handshakes with
// Hello/Welcome, executes dispatched Work through a handler, and guarantees
// at-least-once completion delivery by retransmitting every unacknowledged
// Done after reconnects and ack timeouts. The coordinator deduplicates by
// dispatch sequence number, so retransmission is always safe.
type Client struct {
	addr    string
	id      int
	opts    ClientOptions
	rng     *rand.Rand
	welcome Welcome

	conn net.Conn
	// rhdr and rbuf are the session's read buffers: every incoming frame
	// lands in them, so a decoded Work's Params is valid only until the next
	// read — which follows the handler's return.
	rhdr [headerLen]byte
	rbuf []byte

	// mu serializes frame writes (the run loop's and the heartbeat loop's
	// interleave) and guards pending and free, so a frame is never recycled
	// or re-encoded while a retransmit is writing it.
	mu sync.Mutex
	// pending holds the sent-but-unacked completions as encoded Done frames —
	// the Client's own bytes, which the handler never touches once it has
	// returned — stamped with their last transmission time. An Ack moves the
	// frame's buffer to free for the next completion to be built in.
	pending map[uint64]pendingDone
	free    [][]byte
	// held is the frame buffer DeltaBuf handed out for the running
	// handler's Delta.
	held []byte
}

type pendingDone struct {
	frame  []byte
	sentAt time.Time
}

func newClient(addr string, id int, opts ClientOptions, jitterStream uint64) *Client {
	opts.defaults()
	return &Client{
		addr:    addr,
		id:      id,
		opts:    opts,
		rng:     rand.New(rand.NewPCG(opts.Seed, jitterStream)),
		pending: make(map[uint64]pendingDone),
	}
}

// DialWorker connects worker id to the coordinator at addr and completes
// the handshake, retrying with backoff until ctx is done or the attempt
// budget is spent. A negative id attaches a fresh elastic worker to a
// running coordinator instead: it sends a Join handshake and learns its ID
// from the Welcome reply (see Client.ID). The run seed in the Welcome lets
// the joiner rebuild the dataset and replay epoch shuffles like any worker;
// the current model parameters arrive with its first dispatch. Reconnects
// after the join use the assigned ID normally.
func DialWorker(ctx context.Context, addr string, id int, opts ClientOptions) (*Client, error) {
	c := newClient(addr, id, opts, 0x9e3779b97f4a7c15^uint64(max(id, 0)))
	if err := c.connect(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// Welcome returns the coordinator's handshake reply (run configuration).
func (c *Client) Welcome() Welcome { return c.welcome }

// ID returns the worker's ID — assigned by the coordinator for a joiner,
// the one it dialled with otherwise.
func (c *Client) ID() int { return c.id }

// Leave announces a graceful departure on the live link: the coordinator
// stops dispatching, drains this worker's in-flight completions, then says
// Goodbye (Run returns nil). Best effort — a dead link surfaces on the
// session's read path, not here.
func (c *Client) Leave() {
	if conn := c.conn; conn != nil {
		c.send(conn, KindLeave, EncodeLeave(Leave{Worker: c.id}))
	}
}

// backoff returns the jittered delay before attempt (0-based): exponential
// doubling from BackoffBase capped at BackoffMax, jittered to [½d, d).
func (c *Client) backoff(attempt int) time.Duration {
	d := c.opts.BackoffBase << uint(min(attempt, 20))
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	return d/2 + time.Duration(c.rng.Int64N(int64(d/2)+1))
}

// connect establishes (or re-establishes) the link: dial, Hello, Welcome,
// then retransmit every pending completion. Failed attempts back off with
// seeded jitter; a refused dial (a severed partition not yet healed) counts
// like any other failure.
func (c *Client) connect(ctx context.Context) error {
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(c.backoff(attempt - 1)):
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		conn, err := c.attempt(ctx)
		if err != nil {
			lastErr = err
			continue
		}
		c.conn = conn
		if err := c.retransmit(conn, 0); err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		return nil
	}
	return fmt.Errorf("transport: worker %d gave up after %d attempts: %w", c.id, c.opts.MaxAttempts, lastErr)
}

// attempt is one dial + handshake: a Join for an elastic worker that has
// no ID yet, a Hello otherwise (including a joiner's reconnects).
func (c *Client) attempt(ctx context.Context) (net.Conn, error) {
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	if c.id < 0 {
		err = sendFrame(conn, KindJoin, nil)
	} else {
		err = sendFrame(conn, KindHello, EncodeHello(Hello{Worker: c.id}))
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(dialTimeout))
	kind, payload, err := ReadFrame(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if kind != KindWelcome {
		conn.Close()
		return nil, fmt.Errorf("transport: expected welcome, got %v", kind)
	}
	w, err := DecodeWelcome(payload)
	if err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Time{})
	c.welcome = w
	if c.id < 0 {
		c.id = w.Worker
	}
	if w.Resume {
		// A restarted coordinator rebuilt its flight map from a checkpoint;
		// completions for pre-restart dispatches (seq at or below the
		// checkpoint's floor) were either applied before the crash or
		// reissued under fresh sequence numbers. Retransmitting them would
		// only inflate the duplicate counters, so drop them here.
		c.mu.Lock()
		for seq := range c.pending {
			if seq <= w.SeqFloor {
				delete(c.pending, seq)
			}
		}
		c.mu.Unlock()
	}
	return conn, nil
}

// write sends one encoded frame on conn. c.mu must be held.
func (c *Client) write(conn net.Conn, frame []byte) error {
	conn.SetWriteDeadline(time.Now().Add(sendTimeout))
	_, err := conn.Write(frame)
	conn.SetWriteDeadline(time.Time{})
	return err
}

// send writes one small frame (heartbeat, leave) on conn.
func (c *Client) send(conn net.Conn, kind Kind, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return sendFrame(conn, kind, payload)
}

// doneAt is where a successful Done's Delta lies in its frame: behind the
// frame header and a Done head with an empty Err. A model blob there has
// 8-aligned float sections in any 8-aligned buffer.
const doneAt = headerLen + 32

// DeltaBuf returns n bytes for the Delta of the Done the running handler
// returns, inside a frame buffer of the Client's own. A Done without an Err
// whose Delta is these bytes is framed around them where they lie; any
// other Delta is copied into a frame. Only a handler calls it, at most once
// per call.
func (c *Client) DeltaBuf(n int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.held = sized(c.takeFree(), doneAt+n+4)
	return c.held[doneAt : doneAt+n : doneAt+n]
}

// Reserve sizes the Client's frame buffers for dispatches whose Params, and
// completions whose Delta, are blob bytes: the read buffer for one Work and
// one Done frame on the free list. Called before Run, it leaves the first
// dispatch nothing to allocate, so the buffers cost the same whether or not
// a dispatch ever comes.
func (c *Client) Reserve(blob int) {
	c.rbuf = make([]byte, workHeadLen+blob+4+7)
	c.free = append(c.free, make([]byte, doneAt+blob+4))
}

// takeFree pops a frame buffer off the free list, nil when it is empty. c.mu
// must be held.
func (c *Client) takeFree() (buf []byte) {
	if k := len(c.free) - 1; k >= 0 {
		buf, c.free = c.free[k], c.free[:k]
	}
	return buf
}

// sendDone frames d in a buffer of the Client's own — around its Delta when
// the handler built that in DeltaBuf's bytes, copying it otherwise —
// registers the frame for retransmission until acked, and transmits it.
// d.Delta is not referenced once sendDone returns.
func (c *Client) sendDone(conn net.Conn, d Done) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := checkPayloadLen(doneHeadLen(d) + len(d.Delta)); err != nil {
		return err
	}
	frame := c.held
	c.held = nil
	if at := headerLen + doneHeadLen(d); len(d.Delta) > 0 && len(frame) == at+len(d.Delta)+4 && &d.Delta[0] == &frame[at] {
		sealDone(frame, d)
	} else {
		copied, _ := appendDoneFrame(c.takeFree()[:0], d)
		if frame != nil {
			c.free = append(c.free, frame)
		}
		frame = copied
	}
	c.pending[d.Seq] = pendingDone{frame: frame, sentAt: time.Now()}
	return c.write(conn, frame)
}

// retransmit resends the pending completions last sent at least minAge ago,
// byte for byte as first sent: all of them after a reconnect, and from the
// heartbeat loop those older than the ack timeout — the ack (or the whole
// link) was lost but the read loop hasn't noticed yet. Duplicates are
// harmless: the coordinator dedupes by Seq.
func (c *Client) retransmit(conn net.Conn, minAge time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	for seq, p := range c.pending {
		if now.Sub(p.sentAt) < minAge {
			continue
		}
		c.pending[seq] = pendingDone{frame: p.frame, sentAt: now}
		if err := c.write(conn, p.frame); err != nil {
			return err // the read loop will see the dead link
		}
	}
	return nil
}

// errGoodbye marks an orderly Goodbye from the coordinator; Run converts
// it to a nil return instead of reconnecting.
var errGoodbye = errors.New("transport: goodbye")

// Run executes the worker loop: read Work frames, invoke handler
// sequentially, reply Done (retransmitted until acked). A heartbeat
// goroutine per connection keeps the link's deadlines fed — including
// through long handler computations. On any link failure Run reconnects
// with backoff and continues; it returns nil after an orderly Goodbye, and
// an error when the attempt budget is spent or ctx is cancelled.
func (c *Client) Run(ctx context.Context, handler func(Work) Done) error {
	for {
		err := c.session(ctx, handler)
		if errors.Is(err, errGoodbye) {
			c.conn.Close()
			return nil
		}
		if ctx.Err() != nil {
			c.conn.Close()
			return ctx.Err()
		}
		// The link died mid-session: reconnect (with backoff) and resume.
		c.conn.Close()
		if err := c.connect(ctx); err != nil {
			return err
		}
	}
}

// session runs one connection until it fails or the coordinator says
// goodbye.
func (c *Client) session(ctx context.Context, handler func(Work) Done) error {
	conn := c.conn
	hb := time.Duration(c.welcome.HeartbeatNS)
	if hb <= 0 {
		hb = time.Second
	}
	// An unacknowledged completion is retransmitted after, and a silent
	// coordinator declared gone after, three heartbeat periods.
	ackTimeout, readDeadline := 3*hb, 3*hb

	// The heartbeat loop also owns stale-Done retransmission: both are
	// periodic link maintenance, and folding them keeps the session to two
	// goroutines.
	stopHB := make(chan struct{})
	defer close(stopHB)
	go func() {
		tick := time.NewTicker(hb)
		defer tick.Stop()
		for {
			select {
			case <-stopHB:
				return
			case <-ctx.Done():
				conn.Close() // unblock the read loop
				return
			case <-tick.C:
				if c.send(conn, KindHeartbeat, nil) != nil {
					return
				}
				c.retransmit(conn, ackTimeout)
			}
		}
	}()

	for {
		conn.SetReadDeadline(time.Now().Add(readDeadline))
		kind, n, err := readHeader(conn, c.rhdr[:])
		if err != nil {
			return err
		}
		// The body goes where a model in Work.Params has 8-aligned floats.
		c.rbuf = sized(c.rbuf, n+4+7)
		k := alignedAt(c.rbuf, workHeadLen+modelFloatsAt)
		payload, sum, err := readBody(conn, c.rhdr[:], c.rbuf[k:k+n+4])
		if err != nil {
			return err
		}
		switch kind {
		case KindWork:
			w, err := DecodeWork(payload)
			if err != nil {
				return err
			}
			w.ParamsCRC = sum
			done := handler(w)
			done.Worker = c.id
			done.Seq = w.Seq
			if err := c.sendDone(conn, done); err != nil {
				return err
			}
		case KindAck:
			a, err := DecodeAck(payload)
			if err != nil {
				return err
			}
			c.mu.Lock()
			if p, ok := c.pending[a.Seq]; ok {
				delete(c.pending, a.Seq)
				c.free = append(c.free, p.frame)
			}
			c.mu.Unlock()
		case KindHeartbeat:
			// Pong from the coordinator; reading it already fed the
			// deadline.
		case KindGoodbye:
			return errGoodbye
		default:
			return fmt.Errorf("transport: unexpected %v frame", kind)
		}
	}
}
