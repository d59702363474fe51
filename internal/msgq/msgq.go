// Package msgq implements the asynchronous message queue the heterosgd
// framework uses between the coordinator and its workers, mirroring the
// paper's custom pthreads queue (§VII-A): unbounded, multi-producer,
// single-consumer, FIFO. Producers never block — the coordinator must stay
// responsive while every worker posts completion messages — and the consumer
// blocks until a message or Close arrives.
package msgq

import (
	"sync"
	"time"

	"heterosgd/internal/telemetry"
)

// Instruments hooks a queue into the telemetry registry: lifetime
// push/pop/drop counters plus an optional queue-wait histogram (enqueue →
// dequeue latency per message). All fields are optional — nil instruments
// record nothing — and several queues may share one set, aggregating their
// traffic under a single metric name.
type Instruments struct {
	Pushed  *telemetry.Counter
	Popped  *telemetry.Counter
	Dropped *telemetry.Counter
	// Wait records each message's time in the queue. Setting it makes Push
	// stamp every message with time.Now (one extra word per queued message,
	// zero when unset).
	Wait *telemetry.Histogram
}

// Queue is an unbounded MPSC FIFO queue. The zero value is not usable; use
// New.
type Queue[T any] struct {
	mu     sync.Mutex
	nonEmp *sync.Cond
	// Two-stack queue: Push appends to back; Pop drains front, refilling
	// it by reversing back when empty. Amortized O(1) with no per-element
	// allocation.
	front, back []T
	// frontT/backT shadow front/back with enqueue timestamps, maintained
	// only while ins.Wait is set.
	frontT, backT []time.Time
	closed        bool
	pushed        uint64
	popped        uint64
	dropped       uint64
	ins           Instruments
}

// New returns an empty open queue.
func New[T any]() *Queue[T] {
	q := &Queue[T]{}
	q.nonEmp = sync.NewCond(&q.mu)
	return q
}

// Instrument attaches telemetry instruments to the queue. Call it before the
// first Push: the wait histogram only covers messages enqueued while it was
// attached (messages already in flight report no wait).
func (q *Queue[T]) Instrument(ins Instruments) {
	q.mu.Lock()
	q.ins = ins
	q.mu.Unlock()
}

// Push enqueues v. It never blocks. Push on a closed queue reports false
// and drops the message.
func (q *Queue[T]) Push(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		q.dropped++
		q.ins.Dropped.Add(1)
		return false
	}
	q.back = append(q.back, v)
	if q.ins.Wait != nil {
		q.backT = append(q.backT, time.Now())
	}
	q.pushed++
	q.ins.Pushed.Add(1)
	q.nonEmp.Signal()
	return true
}

// Pop dequeues the oldest message, blocking until one is available. It
// reports false only when the queue is closed and fully drained.
func (q *Queue[T]) Pop() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if v, ok := q.popLocked(); ok {
			return v, true
		}
		if q.closed {
			var zero T
			return zero, false
		}
		q.nonEmp.Wait()
	}
}

// PopStatus classifies the outcome of a bounded Pop, so callers can tell a
// shutdown (the queue closed underneath them) from a genuine timeout. The
// distinction matters to the coordinator's watchdog: a timeout means "sweep
// for overdue dispatches", while closed means "drain finished — stop" —
// conflating them would misclassify an orderly shutdown as a straggler.
type PopStatus int

const (
	// PopOK: a message was dequeued.
	PopOK PopStatus = iota
	// PopTimedOut: the wait expired with the queue still open and empty.
	PopTimedOut
	// PopClosed: the queue is closed and fully drained; no message will
	// ever arrive again.
	PopClosed
)

var popStatusNames = [...]string{PopOK: "ok", PopTimedOut: "timed-out", PopClosed: "closed"}

// String returns the status name.
func (s PopStatus) String() string {
	if s >= 0 && int(s) < len(popStatusNames) && popStatusNames[s] != "" {
		return popStatusNames[s]
	}
	return "unknown"
}

// PopWait dequeues like Pop but gives up after d, reporting the typed
// outcome: PopOK with the message, PopTimedOut when the wait expired with
// the queue still open and empty, or PopClosed when the queue is closed and
// drained. The fault-tolerant coordinator uses it as the watchdog primitive
// — the deadline is the earliest in-flight dispatch deadline, so a hung
// worker cannot block the coordinator forever. Non-positive d polls once;
// a negative d blocks like Pop.
func (q *Queue[T]) PopWait(d time.Duration) (T, PopStatus) {
	deadline := time.Now().Add(d)
	blocking := d < 0
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if v, ok := q.popLocked(); ok {
			return v, PopOK
		}
		if q.closed {
			var zero T
			return zero, PopClosed
		}
		if blocking {
			q.nonEmp.Wait()
			continue
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			var zero T
			return zero, PopTimedOut
		}
		// sync.Cond has no timed wait; a timer broadcast bounds this one.
		t := time.AfterFunc(remaining, func() {
			q.mu.Lock()
			q.nonEmp.Broadcast()
			q.mu.Unlock()
		})
		q.nonEmp.Wait()
		t.Stop()
	}
}

// TryPop dequeues without blocking; ok is false when the queue is empty.
func (q *Queue[T]) TryPop() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.popLocked()
}

func (q *Queue[T]) popLocked() (T, bool) {
	if len(q.front) == 0 {
		if len(q.back) == 0 {
			var zero T
			return zero, false
		}
		// Reverse back into front.
		for i := len(q.back) - 1; i >= 0; i-- {
			q.front = append(q.front, q.back[i])
		}
		q.back = q.back[:0]
		for i := len(q.backT) - 1; i >= 0; i-- {
			q.frontT = append(q.frontT, q.backT[i])
		}
		q.backT = q.backT[:0]
	}
	// The timestamp stacks shadow the value stacks only for messages pushed
	// while the wait histogram was attached; once the lengths align the
	// stacks stay parallel.
	if n := len(q.frontT); n > 0 && n == len(q.front) {
		q.ins.Wait.Observe(time.Since(q.frontT[n-1]))
		q.frontT[n-1] = time.Time{}
		q.frontT = q.frontT[:n-1]
	}
	v := q.front[len(q.front)-1]
	var zero T
	q.front[len(q.front)-1] = zero // release reference
	q.front = q.front[:len(q.front)-1]
	q.popped++
	q.ins.Popped.Add(1)
	return v, true
}

// Close marks the queue closed. Blocked and future Pops drain remaining
// messages, then report false. Close is idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.nonEmp.Broadcast()
}

// Len returns the number of queued messages.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.front) + len(q.back)
}

// Stats reports lifetime pushed/popped/dropped counts (for utilization
// accounting and for observing Push-after-Close drops, which are otherwise
// silent at shutdown).
func (q *Queue[T]) Stats() (pushed, popped, dropped uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pushed, q.popped, q.dropped
}
