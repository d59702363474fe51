package transport

import (
	"errors"
	"time"

	"heterosgd/internal/msgq"
)

// RecvStatus classifies the outcome of a bounded Recv, mirroring
// msgq.PopStatus: the coordinator's watchdog must distinguish "nothing
// arrived yet" (sweep for overdue dispatches) from "transport closed"
// (drain finished — stop).
type RecvStatus int

const (
	// RecvOK: a message was received.
	RecvOK RecvStatus = iota
	// RecvTimeout: the wait expired with the transport still open.
	RecvTimeout
	// RecvClosed: the transport is closed and drained.
	RecvClosed
)

// recv pops q as a Transport's Recv: up to d, negative d blocks.
func recv(q *msgq.Queue[Msg], d time.Duration) (Msg, RecvStatus) {
	m, st := q.PopWait(d)
	switch st {
	case msgq.PopOK:
		return m, RecvOK
	case msgq.PopTimedOut:
		return Msg{}, RecvTimeout
	}
	return Msg{}, RecvClosed
}

var recvStatusNames = [...]string{RecvOK: "ok", RecvTimeout: "timed-out", RecvClosed: "closed"}

// String returns the status name.
func (s RecvStatus) String() string {
	if s >= 0 && int(s) < len(recvStatusNames) && recvStatusNames[s] != "" {
		return recvStatusNames[s]
	}
	return "unknown"
}

// EventKind classifies link-state transitions surfaced to the coordinator.
type EventKind int

const (
	// LinkUp: a worker's link came up (first connect or reconnect).
	LinkUp EventKind = iota
	// LinkDown: a worker's link failed (heartbeat miss, read error, or
	// severed connection). In-flight dispatches to that worker should be
	// treated exactly like a watchdog timeout: abandon and re-dispatch.
	LinkDown
	// LinkJoin: a fresh elastic worker was admitted mid-run; Worker is its
	// newly assigned ID. The coordinator must grow its per-worker state
	// before dispatching (the event doubles as the joiner's LinkUp).
	LinkJoin
	// LinkLeave: a worker announced a graceful departure. The coordinator
	// should stop dispatching to it, let its in-flight work drain through
	// the flight map, then retire the link.
	LinkLeave
)

var eventKindNames = [...]string{
	LinkUp: "link-up", LinkDown: "link-down", LinkJoin: "link-join", LinkLeave: "link-leave",
}

// String returns the event-kind name.
func (k EventKind) String() string {
	if k >= 0 && int(k) < len(eventKindNames) && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is a link-state transition on one worker's channel.
type Event struct {
	Worker int
	Kind   EventKind
	// Reason describes a LinkDown cause (read error, heartbeat miss).
	Reason string
}

// Msg is one unit received by the coordinator: exactly one of Done or Event
// is set. Both nil marks a wakeup (see Transport.Wake) — the receiver should
// re-check its control state (cancellation, deadlines) and continue.
type Msg struct {
	Done  *Done
	Event *Event
	// lease is the pooled receive buffer Done.Delta aliases, on loan until
	// TCP.Recycle takes it back. It rides the Msg, not the Done: a Done is
	// allocated per completion on every engine, and only TCP lends buffers.
	lease *lease
}

// lease holds one lent receive buffer; Recycle empties it, so handing the
// same Msg back twice returns the buffer once.
type lease struct{ buf []byte }

// ErrLinkDown reports a Send to a worker whose link is currently down. The
// coordinator treats it like a dispatch timeout: quarantine the worker and
// re-dispatch the batch elsewhere. The transport re-emits LinkUp when the
// worker reconnects.
var ErrLinkDown = errors.New("transport: worker link down")

// Transport is the coordinator's view of the worker channel. One goroutine
// (the coordinator loop) calls Recv; Send and Wake are safe from any
// goroutine. Implementations deliver Done messages at least once —
// duplicates are possible after reconnect retransmission — and the
// coordinator deduplicates by Work.Seq, its monotonic dispatch ID.
type Transport interface {
	// Send dispatches w to worker. It returns ErrLinkDown when the
	// worker's link is down, and a non-nil error on any failed or refused
	// delivery; the work is then NOT delivered and must be re-dispatched.
	Send(worker int, w Work) error
	// Recv waits up to d for the next message. A negative d blocks
	// indefinitely. Wakeups (Msg{}) and events count as messages.
	Recv(d time.Duration) (Msg, RecvStatus)
	// Wake unblocks a pending Recv with an empty Msg, for cancellation and
	// deadline re-evaluation.
	Wake()
	// Close shuts the transport down: workers are told to exit (closed
	// inboxes, Goodbye frames), and once queued traffic drains Recv
	// reports RecvClosed.
	Close() error
}

// Stats counts transport-level traffic for Result health accounting. All
// fields are lifetime totals.
type Stats struct {
	// Dispatched counts Work sends accepted by the transport.
	Dispatched uint64 `json:"dispatched"`
	// Completed counts Done messages delivered to the coordinator,
	// including duplicates.
	Completed uint64 `json:"completed"`
	// Duplicates counts Done messages whose Seq their link slot had already
	// delivered: retransmissions after a reconnect and duplicated frames,
	// which the engine discards (at-least-once delivery collapsing to
	// exactly-once).
	Duplicates uint64 `json:"duplicates"`
	// Reconnects counts worker link re-establishments after a drop.
	Reconnects uint64 `json:"reconnects"`
	// LinkFailures counts LinkDown events.
	LinkFailures uint64 `json:"link_failures"`
	// HeartbeatMisses counts read-deadline expirations attributed to lost
	// heartbeats.
	HeartbeatMisses uint64 `json:"heartbeat_misses"`
}
