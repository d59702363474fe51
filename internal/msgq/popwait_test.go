package msgq

import (
	"testing"
	"time"
)

func TestPopWaitStatuses(t *testing.T) {
	q := New[int]()
	q.Push(7)
	if v, st := q.PopWait(time.Second); st != PopOK || v != 7 {
		t.Fatalf("PopWait on non-empty queue = (%d, %v), want (7, ok)", v, st)
	}
	if _, st := q.PopWait(5 * time.Millisecond); st != PopTimedOut {
		t.Fatalf("PopWait on empty open queue = %v, want timed-out", st)
	}
	if _, st := q.PopWait(0); st != PopTimedOut {
		t.Fatalf("PopWait(0) on empty open queue = %v, want timed-out", st)
	}
	q.Push(8)
	q.Close()
	if v, st := q.PopWait(time.Second); st != PopOK || v != 8 {
		t.Fatalf("PopWait must drain a closed queue, got (%d, %v)", v, st)
	}
	if _, st := q.PopWait(time.Second); st != PopClosed {
		t.Fatalf("PopWait on drained closed queue = %v, want closed", st)
	}
}

// TestPopWaitDeliversAndExpires: a timed wait on an empty queue returns no
// sooner than its deadline, and a message pushed mid-wait is delivered, not
// timed out.
func TestPopWaitDeliversAndExpires(t *testing.T) {
	q := New[int]()
	start := time.Now()
	if _, st := q.PopWait(20 * time.Millisecond); st != PopTimedOut {
		t.Fatalf("empty queue: %v, want timed-out", st)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("PopWait returned before the deadline")
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		q.Push(9)
	}()
	if v, st := q.PopWait(2 * time.Second); st != PopOK || v != 9 {
		t.Fatalf("mid-wait push: got (%d, %v), want (9, ok)", v, st)
	}
}

// TestPopWaitOnClosedQueue: a Close arriving during a timed wait wakes the
// consumer promptly with closed, not at its deadline with timed-out.
func TestPopWaitOnClosedQueue(t *testing.T) {
	q := New[int]()
	go func() {
		time.Sleep(10 * time.Millisecond)
		q.Close()
	}()
	start := time.Now()
	if _, st := q.PopWait(5 * time.Second); st != PopClosed {
		t.Fatalf("mid-wait close: %v, want closed", st)
	}
	if time.Since(start) > time.Second {
		t.Fatal("Close did not wake PopWait")
	}
}

func TestPopWaitNegativeBlocksLikePop(t *testing.T) {
	q := New[int]()
	go func() {
		time.Sleep(10 * time.Millisecond)
		q.Push(42)
	}()
	if v, st := q.PopWait(-1); st != PopOK || v != 42 {
		t.Fatalf("blocking PopWait = (%d, %v), want (42, ok)", v, st)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		q.Close()
	}()
	if _, st := q.PopWait(-1); st != PopClosed {
		t.Fatalf("blocking PopWait after Close = %v, want closed", st)
	}
}

func TestPopStatusString(t *testing.T) {
	for st, want := range map[PopStatus]string{
		PopOK: "ok", PopTimedOut: "timed-out", PopClosed: "closed", PopStatus(99): "unknown",
	} {
		if got := st.String(); got != want {
			t.Errorf("PopStatus(%d).String() = %q, want %q", int(st), got, want)
		}
	}
}
