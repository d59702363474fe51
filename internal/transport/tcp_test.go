package transport

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"
	"unsafe"

	"heterosgd/internal/faults"
)

// deltaLen is the size of the test handlers' Delta: several KB, so a frame
// spans many reads and a stale or shared buffer cannot pass by luck.
const deltaLen = 8 << 10

// fillDelta writes seq's byte pattern into buf, the way a worker encodes each
// dispatch's delta into the one buffer it owns.
func fillDelta(buf []byte, seq uint64) []byte {
	for i := range buf {
		buf[i] = byte(seq)*131 + byte(i)
	}
	return buf
}

// checkDelta fails unless d carries the bytes its own Seq produced.
func checkDelta(t *testing.T, d *Done) {
	t.Helper()
	if want := fillDelta(make([]byte, deltaLen), d.Seq); !bytes.Equal(d.Delta, want) {
		t.Fatalf("done seq %d carries %d delta bytes that are not its own dispatch's", d.Seq, len(d.Delta))
	}
}

// startWorker runs a client worker against addr with an echo-style handler
// and returns a cleanup-registered done channel.
func startWorker(t *testing.T, addr string, id int, handler func(Work) Done) <-chan error {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	errCh := make(chan error, 1)
	go func() {
		c, err := DialWorker(ctx, addr, id, ClientOptions{
			Seed:        1,
			BackoffBase: 5 * time.Millisecond,
			BackoffMax:  50 * time.Millisecond,
		})
		if err != nil {
			errCh <- err
			return
		}
		errCh <- c.Run(ctx, handler)
	}()
	return errCh
}

// recvDone pulls messages until a Done arrives, failing after timeout.
func recvDone(t *testing.T, tr Transport, timeout time.Duration) Done {
	t.Helper()
	return *recvDoneMsg(t, tr, timeout).Done
}

// recvDoneMsg is recvDone for a caller that hands the message back.
func recvDoneMsg(t *testing.T, tr Transport, timeout time.Duration) Msg {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			t.Fatal("no Done before timeout")
		}
		m, st := tr.Recv(remaining)
		if st != RecvOK {
			t.Fatalf("Recv = %v", st)
		}
		if m.Done != nil {
			return m
		}
	}
}

func TestTCPDispatchComplete(t *testing.T) {
	coord, err := ListenTCP("127.0.0.1:0", 1, TCPOptions{
		Heartbeat: 50 * time.Millisecond,
		Welcome:   Welcome{Seed: 9, Shuffle: true, LaneRows: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	startWorker(t, coord.Addr(), 0, func(w Work) Done {
		return Done{Updates: w.Hi - w.Lo}
	})
	if err := coord.WaitForWorkers(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The attach raced ahead through the receive queue; drain the LinkUp.
	m, st := coord.Recv(time.Second)
	if st != RecvOK || m.Event == nil || m.Event.Kind != LinkUp {
		t.Fatalf("first message = %+v (%v), want LinkUp", m, st)
	}
	if err := coord.Send(0, Work{Seq: 1, Lo: 10, Hi: 42, LR: 0.5}); err != nil {
		t.Fatal(err)
	}
	d := recvDone(t, coord, 5*time.Second)
	if d.Worker != 0 || d.Seq != 1 || d.Updates != 32 {
		t.Fatalf("done = %+v, want worker 0 seq 1 updates 32", d)
	}
	st8 := coord.Stats()
	if st8.Dispatched != 1 || st8.Completed != 1 || st8.Duplicates != 0 {
		t.Fatalf("stats = %+v", st8)
	}
}

// TestReservedBuffersCarryTheFirstDispatch checks that the buffers put aside
// before the first dispatch — TCPOptions.DeltaBytes on the coordinator,
// Client.Reserve on the worker — are the ones its Work and Done land in, so
// a link's wire buffers cost the same whether or not a dispatch ever comes.
func TestReservedBuffersCarryTheFirstDispatch(t *testing.T) {
	coord, err := ListenTCP("127.0.0.1:0", 1, TCPOptions{Heartbeat: 50 * time.Millisecond, DeltaBytes: deltaLen})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if len(coord.free) != 1 {
		t.Fatalf("coordinator holds %d Done buffers before any dispatch, want 1", len(coord.free))
	}
	reserved := coord.free[0]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, err := DialWorker(ctx, coord.Addr(), 0, ClientOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Reserve(deltaLen)
	rbuf, frame := c.rbuf, c.free[0]
	ranIn := make(chan bool, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- c.Run(ctx, func(w Work) Done {
			d := c.DeltaBuf(deltaLen)
			ranIn <- inside(w.Params, rbuf) && inside(d, frame)
			return Done{Seq: w.Seq, Updates: 1, Delta: fillDelta(d, w.Seq)}
		})
	}()
	if err := coord.WaitForWorkers(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := coord.Send(0, Work{Seq: 1, Lo: 0, Hi: 1, Params: make([]byte, deltaLen)}); err != nil {
		t.Fatal(err)
	}
	m := recvDoneMsg(t, coord, 5*time.Second)
	checkDelta(t, m.Done)
	if !<-ranIn {
		t.Error("the worker read the first Work or built its Done outside the buffers Reserve sized")
	}
	if !inside(m.Done.Delta, reserved) {
		t.Error("the first Done was received outside the buffer ListenTCP reserved")
	}
	cancel()
	<-errCh
}

// inside reports whether b lies within buf's backing array.
func inside(b, buf []byte) bool {
	lo, p := uintptr(unsafe.Pointer(unsafe.SliceData(buf))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return len(b) > 0 && p >= lo && p+uintptr(len(b)) <= lo+uintptr(cap(buf))
}

func TestTCPSendToDetachedWorkerErrLinkDown(t *testing.T) {
	coord, err := ListenTCP("127.0.0.1:0", 2, TCPOptions{Heartbeat: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.Send(1, Work{Seq: 1}); err != ErrLinkDown {
		t.Fatalf("Send to never-attached worker = %v, want ErrLinkDown", err)
	}
}

// TestTCPSeveredLinkRedeliversExactlyOnePayload drives the full partition
// story through the fault proxy: the link severs right after a dispatch, the
// coordinator sees LinkDown, the worker reconnects through backoff (one
// refused redial), retransmits the stranded completion, and the coordinator
// receives it exactly once per transmission — with Seq intact so the engine
// can deduplicate.
func TestTCPSeveredLinkRedelivers(t *testing.T) {
	coord, err := ListenTCP("127.0.0.1:0", 1, TCPOptions{Heartbeat: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	proxy, err := NewProxy("127.0.0.1:0", coord.Addr(), faults.NewLinkPlan(3, faults.SeverLink(0, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Each Done carries its dispatch's pattern in the one buffer the handler
	// reuses. The dispatch that crosses the sever trigger is held until the
	// proxy has cut the link, so its completion is always the stranded one —
	// an instant Done would race the cut and sometimes slip through.
	delta := make([]byte, deltaLen)
	startWorker(t, proxy.Addr(), 0, func(w Work) Done {
		if w.Seq == 2 {
			select {
			case <-proxy.Severed():
			case <-time.After(5 * time.Second):
			}
		}
		return Done{Updates: 1, Delta: fillDelta(delta, w.Seq)}
	})
	if err := coord.WaitForWorkers(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	var ups, downs, dones int
	var lastSeq uint64
	deadline := time.Now().Add(10 * time.Second)
	for seq := uint64(1); dones < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("timeout: ups=%d downs=%d dones=%d", ups, downs, dones)
		}
		m, st := coord.Recv(time.Second)
		if st == RecvTimeout {
			continue
		}
		if st != RecvOK {
			t.Fatalf("Recv = %v", st)
		}
		switch {
		case m.Event != nil && m.Event.Kind == LinkUp:
			ups++
			// Dispatch on every link-up: the second dispatch (after the
			// first completion) crosses the sever trigger.
			if err := coord.Send(0, Work{Seq: seq, Lo: 0, Hi: 1}); err == nil {
				seq++
			}
		case m.Event != nil && m.Event.Kind == LinkDown:
			downs++
		case m.Done != nil:
			dones++
			lastSeq = m.Done.Seq
			// The completion redelivered after the heal is its own frame,
			// whatever the handler's buffer holds by now.
			checkDelta(t, m.Done)
			coord.Recycle(m)
			if dones == 1 {
				if err := coord.Send(0, Work{Seq: seq, Lo: 0, Hi: 1}); err == nil {
					seq++
				}
			}
		}
	}
	if ups < 2 || downs < 1 {
		t.Fatalf("expected a reconnection: ups=%d downs=%d", ups, downs)
	}
	if lastSeq != 2 {
		t.Fatalf("last completed seq = %d, want 2", lastSeq)
	}
	if s := coord.Stats(); s.Reconnects < 1 || s.LinkFailures < 1 {
		t.Fatalf("stats = %+v, want ≥1 reconnect and link failure", s)
	}
}

// TestTCPDuplicatedDone: a dup-injecting proxy delivers each completion
// twice; both copies carry the same Seq (the dedupe key), and the stats count
// the second copy of each as a duplicate.
func TestTCPDuplicatedDone(t *testing.T) {
	coord, err := ListenTCP("127.0.0.1:0", 1, TCPOptions{Heartbeat: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	proxy, err := NewProxy("127.0.0.1:0", coord.Addr(), faults.NewLinkPlan(5, faults.DupFrames(0, 1.0)))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	delta := make([]byte, deltaLen)
	startWorker(t, proxy.Addr(), 0, func(w Work) Done {
		return Done{Updates: 1, Delta: fillDelta(delta, w.Seq)}
	})
	if err := coord.WaitForWorkers(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Two dispatches, each completion delivered twice, every receive buffer
	// handed straight back: a copy must still carry its own dispatch's bytes
	// when its buffer last held another's.
	for _, seq := range []uint64{77, 78} {
		if err := coord.Send(0, Work{Seq: seq, Lo: 0, Hi: 1}); err != nil {
			t.Fatal(err)
		}
		for copy := 0; copy < 2; copy++ {
			m := recvDoneMsg(t, coord, 5*time.Second)
			if m.Done.Seq != seq {
				t.Fatalf("copy %d of the completion has seq %d, want %d", copy, m.Done.Seq, seq)
			}
			checkDelta(t, m.Done)
			coord.Recycle(m)
			coord.Recycle(m) // handing a message back twice lends its buffer once
		}
	}
	if s := coord.Stats(); s.Completed != 4 || s.Duplicates != 2 {
		t.Fatalf("stats = %+v, want 4 completions of which 2 duplicates", s)
	}
}

// TestClientRetransmitCarriesOwnBytes pins the ownership rule that lets a
// worker encode every delta into one buffer: the Client retransmits a
// completion from the frame it kept, not from the handler's bytes. A scripted
// coordinator withholds the ack of dispatch 1, lets dispatch 2 overwrite the
// handler's buffer, and the ack-timeout retransmit of 1 must still be 1's.
func TestClientRetransmitCarriesOwnBytes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	delta := make([]byte, deltaLen)
	workerErr := startWorker(t, ln.Addr().String(), 0, func(w Work) Done {
		return Done{Updates: 1, Delta: fillDelta(delta, w.Seq)}
	})

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if kind, _, err := ReadFrame(conn); err != nil || kind != KindHello {
		t.Fatalf("handshake: kind %v, err %v", kind, err)
	}
	send := func(kind Kind, payload []byte) {
		t.Helper()
		if err := WriteFrame(conn, kind, payload); err != nil {
			t.Fatal(err)
		}
	}
	// nextDone answers heartbeats until a completion arrives.
	nextDone := func() Done {
		t.Helper()
		for {
			kind, payload, err := ReadFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			switch kind {
			case KindHeartbeat:
				send(KindHeartbeat, nil)
			case KindDone:
				d, err := DecodeDone(payload)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
		}
	}
	send(KindWelcome, EncodeWelcome(Welcome{HeartbeatNS: int64(10 * time.Millisecond)}))
	send(KindWork, EncodeWork(Work{Seq: 1, Lo: 0, Hi: 1}))
	if d := nextDone(); d.Seq != 1 {
		t.Fatalf("first completion has seq %d, want 1", d.Seq)
	}
	send(KindWork, EncodeWork(Work{Seq: 2, Lo: 0, Hi: 1}))
	for got2 := false; ; {
		d := nextDone()
		checkDelta(t, &d)
		if d.Seq == 2 {
			got2 = true
			send(KindAck, EncodeAck(Ack{Seq: 2}))
		} else if got2 {
			break // dispatch 1 again, sent after dispatch 2 reused the buffer
		}
	}
	send(KindGoodbye, nil)
	if err := <-workerErr; err != nil {
		t.Fatalf("worker after goodbye: %v", err)
	}
}

func TestLocalTransportRoundTrip(t *testing.T) {
	lt := NewLocal(2)
	go func() {
		for {
			w, ok := lt.NextWork(1)
			if !ok {
				return
			}
			lt.Complete(Done{Worker: 1, Seq: w.Seq, Updates: w.Hi - w.Lo})
		}
	}()
	if err := lt.Send(1, Work{Seq: 5, Lo: 0, Hi: 7}); err != nil {
		t.Fatal(err)
	}
	m, st := lt.Recv(time.Second)
	if st != RecvOK || m.Done == nil || m.Done.Seq != 5 || m.Done.Updates != 7 {
		t.Fatalf("local recv = %+v (%v)", m, st)
	}
	lt.Wake()
	if m, st := lt.Recv(time.Second); st != RecvOK || m.Done != nil || m.Event != nil {
		t.Fatalf("wakeup = %+v (%v), want empty Msg", m, st)
	}
	if _, st := lt.Recv(5 * time.Millisecond); st != RecvTimeout {
		t.Fatalf("empty recv = %v, want timeout", st)
	}
	stranded := lt.CloseWorker(0)
	if len(stranded) != 0 {
		t.Fatalf("stranded = %d, want 0", len(stranded))
	}
	if err := lt.Send(0, Work{Seq: 9}); err != ErrLinkDown {
		t.Fatalf("send to closed inbox = %v, want ErrLinkDown", err)
	}
	lt.Close()
	if _, st := lt.Recv(time.Second); st != RecvClosed {
		t.Fatalf("recv after close = %v, want closed", st)
	}
	pushed, popped, dropped := lt.QueueStats()
	if pushed == 0 || popped == 0 {
		t.Fatalf("queue stats = %d/%d/%d", pushed, popped, dropped)
	}
}

// TestTCPElasticJoinLeaveRetire drives the elastic membership handshakes:
// a coordinator listening for 1 initial worker (capacity 3) admits a fresh
// joiner mid-run with an assigned ID, serves it work, honors its graceful
// Leave (drain keeps flowing, the engine retires the link with Goodbye),
// and a join beyond capacity is refused.
func TestTCPElasticJoinLeaveRetire(t *testing.T) {
	coord, err := ListenTCP("127.0.0.1:0", 1, TCPOptions{
		Heartbeat:  25 * time.Millisecond,
		MaxWorkers: 2,
		Welcome:    Welcome{Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	startWorker(t, coord.Addr(), 0, func(w Work) Done { return Done{Updates: 1} })
	if err := coord.WaitForWorkers(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	joiner, err := DialWorker(ctx, coord.Addr(), -1, ClientOptions{Seed: 2, BackoffBase: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if joiner.ID() != 1 {
		t.Fatalf("joiner assigned id %d, want 1", joiner.ID())
	}
	if joiner.Welcome().Seed != 5 {
		t.Fatalf("joiner welcome %+v did not inherit the run seed", joiner.Welcome())
	}
	runDone := make(chan error, 1)
	go func() {
		runDone <- joiner.Run(ctx, func(w Work) Done {
			d := Done{Updates: w.Hi - w.Lo}
			if w.Seq == 2 {
				joiner.Leave()
			}
			return d
		})
	}()

	// Expect LinkUp(0) (initial worker) then LinkJoin(1), in some order
	// with the joiner's admission strictly after its slot existed.
	seen := map[EventKind]int{}
	deadline := time.Now().Add(5 * time.Second)
	for len(seen) < 2 {
		m, st := coord.Recv(time.Until(deadline))
		if st != RecvOK {
			t.Fatalf("Recv = %v while waiting for membership events (saw %v)", st, seen)
		}
		if m.Event != nil {
			seen[m.Event.Kind] = m.Event.Worker
		}
	}
	if w, ok := seen[LinkJoin]; !ok || w != 1 {
		t.Fatalf("membership events %v, want LinkJoin for worker 1", seen)
	}

	// Work flows to the joiner; seq 2 triggers its graceful Leave.
	for seq := uint64(1); seq <= 2; seq++ {
		if err := coord.Send(1, Work{Seq: seq, Lo: 0, Hi: 4}); err != nil {
			t.Fatal(err)
		}
	}
	var leaves, dones int
	for dones < 2 || leaves == 0 {
		m, st := coord.Recv(time.Until(deadline))
		if st != RecvOK {
			t.Fatalf("Recv = %v waiting for drain (dones %d, leaves %d)", st, dones, leaves)
		}
		switch {
		case m.Done != nil:
			dones++
		case m.Event != nil && m.Event.Kind == LinkLeave:
			if m.Event.Worker != 1 {
				t.Fatalf("LinkLeave from worker %d, want 1", m.Event.Worker)
			}
			leaves++
		}
	}

	// Drain settled: retire the link. The joiner's Run must return nil
	// (orderly Goodbye), and no LinkDown may surface for the retiree.
	coord.Retire(1)
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("joiner Run after retire: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("joiner did not exit after Goodbye")
	}
	if err := coord.Send(1, Work{Seq: 3}); err != ErrLinkDown {
		t.Fatalf("Send to retired worker = %v, want ErrLinkDown", err)
	}

	// Capacity is full (2 slots): another join must be refused.
	shortCtx, shortCancel := context.WithTimeout(context.Background(), time.Second)
	defer shortCancel()
	if _, err := DialWorker(shortCtx, coord.Addr(), -1, ClientOptions{Seed: 3, MaxAttempts: 2, BackoffBase: 5 * time.Millisecond}); err == nil {
		t.Fatal("join beyond MaxWorkers accepted")
	}
}
