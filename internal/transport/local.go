package transport

import (
	"time"

	"heterosgd/internal/msgq"
)

// Local is the in-process Transport: a thin adapter over the msgq queues
// the engine always used — one inbox per worker, one shared completion
// queue — preserving the original engine's behavior (and golden traces)
// exactly. Worker goroutines consume their inbox with NextWork and reply
// with Complete; the coordinator speaks the Transport interface.
//
// Local never loses or duplicates messages, so LinkUp/LinkDown events never
// occur and at-least-once delivery degenerates to exactly-once.
type Local struct {
	inboxes []*msgq.Queue[Work]
	recvQ   *msgq.Queue[Msg]
}

// NewLocal returns a Local transport for n workers.
func NewLocal(n int) *Local {
	t := &Local{
		inboxes: make([]*msgq.Queue[Work], n),
		recvQ:   msgq.New[Msg](),
	}
	for i := range t.inboxes {
		t.inboxes[i] = msgq.New[Work]()
	}
	return t
}

// Instrument attaches one shared msgq instrument set to the completion
// queue and every worker inbox, aggregating their traffic under the msgq_*
// metric names exactly like the pre-transport engine did.
func (t *Local) Instrument(ins msgq.Instruments) {
	t.recvQ.Instrument(ins)
	for _, q := range t.inboxes {
		q.Instrument(ins)
	}
}

// Send dispatches w to worker's inbox. It reports ErrLinkDown only when the
// inbox was closed (the worker crashed and was drained).
func (t *Local) Send(worker int, w Work) error {
	if !t.inboxes[worker].Push(w) {
		return ErrLinkDown
	}
	return nil
}

// Recv waits up to d for the next completion or wakeup; negative d blocks.
func (t *Local) Recv(d time.Duration) (Msg, RecvStatus) { return recv(t.recvQ, d) }

// Wake unblocks a pending Recv with an empty Msg.
func (t *Local) Wake() {
	t.recvQ.Push(Msg{})
}

// Complete posts a worker's completion to the coordinator. Completions
// pushed after Close are dropped (and counted by the queue's drop counter),
// matching the engine's straggler-at-shutdown semantics.
func (t *Local) Complete(d Done) {
	t.recvQ.Push(Msg{Done: &d})
}

// NextWork blocks on worker's inbox; ok is false once the inbox is closed
// and drained (the worker must exit).
func (t *Local) NextWork(worker int) (Work, bool) {
	return t.inboxes[worker].Pop()
}

// CloseWorker closes worker's inbox and returns every queued undelivered
// Work, for re-dispatch after a crash.
func (t *Local) CloseWorker(worker int) []Work {
	q := t.inboxes[worker]
	q.Close()
	var stranded []Work
	for {
		w, ok := q.TryPop()
		if !ok {
			break
		}
		stranded = append(stranded, w)
	}
	return stranded
}

// CloseInboxes closes every worker inbox (each worker exits after draining
// its remaining work), leaving the completion queue open so in-flight
// completions still land.
func (t *Local) CloseInboxes() {
	for _, q := range t.inboxes {
		q.Close()
	}
}

// Close closes the inboxes and the completion queue. Pending completions
// remain poppable until drained; Recv then reports RecvClosed.
func (t *Local) Close() error {
	t.CloseInboxes()
	t.recvQ.Close()
	return nil
}

// QueueStats aggregates lifetime pushed/popped/dropped counts across the
// completion queue and every inbox (the engine's Result.Health.Queue
// accounting).
func (t *Local) QueueStats() (pushed, popped, dropped uint64) {
	p, o, d := t.recvQ.Stats()
	pushed, popped, dropped = p, o, d
	for _, q := range t.inboxes {
		p, o, d := q.Stats()
		pushed += p
		popped += o
		dropped += d
	}
	return pushed, popped, dropped
}
