package elastic

import (
	"testing"
	"time"
)

func TestPlanParseRoundTrip(t *testing.T) {
	spec := "join:25,leave:1:60,evict:0:90"
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != spec {
		t.Fatalf("round trip %q, want %q", got, spec)
	}
	if p.Joins() != 1 {
		t.Fatalf("joins %d, want 1", p.Joins())
	}
	if err := p.Validate(2); err != nil {
		t.Fatal(err)
	}
	// Worker 2 only exists after the join at 25 — valid at trigger 60,
	// invalid at trigger 10.
	if err := NewPlan(1, JoinAt(25), LeaveAt(2, 60)).Validate(2); err != nil {
		t.Fatal(err)
	}
	if err := NewPlan(1, JoinAt(25), LeaveAt(2, 10)).Validate(2); err == nil {
		t.Fatal("leave of not-yet-joined worker accepted")
	}
	if _, err := Parse("join:25,flee:1:2"); err == nil {
		t.Fatal("unknown event kind accepted")
	}
	if p, err := Parse("  "); err != nil || p != nil {
		t.Fatalf("empty spec: got %v, %v", p, err)
	}
}

func TestPlanCursorFiresInOrderOnce(t *testing.T) {
	p := NewPlan(1, LeaveAt(1, 60), JoinAt(25), JoinAt(25))
	c := p.Begin()
	if evs := c.Fire(10); len(evs) != 0 {
		t.Fatalf("fired early: %v", evs)
	}
	evs := c.Fire(30)
	if len(evs) != 2 || evs[0].Kind != EventJoin || evs[1].Kind != EventJoin {
		t.Fatalf("at 30 got %v, want the two joins", evs)
	}
	if evs := c.Fire(30); len(evs) != 0 {
		t.Fatalf("re-fired: %v", evs)
	}
	evs = c.Fire(100)
	if len(evs) != 1 || evs[0].Kind != EventLeave {
		t.Fatalf("at 100 got %v, want the leave", evs)
	}
	var nilCursor *Cursor
	if evs := nilCursor.Fire(1000); evs != nil {
		t.Fatal("nil cursor fired")
	}
}

func TestLoadPolicyHysteresisAndBounds(t *testing.T) {
	p := NewLoadPolicy()
	hot := Sample{Active: 2, Min: 1, Max: 4, QueueWait: 10 * time.Millisecond,
		Compute: 10 * time.Millisecond, Dispatches: 8}
	if d := p.Decide(hot); d != Hold {
		t.Fatalf("first hot sample decided %v before hysteresis", d)
	}
	if d := p.Decide(hot); d != Grow {
		t.Fatalf("second hot sample decided %v, want grow", d)
	}
	// A calm sample resets the streak.
	calm := Sample{Active: 2, Min: 1, Max: 4, QueueWait: 0,
		Compute: 10 * time.Millisecond, MarginalCost: time.Millisecond, Dispatches: 8}
	if d := p.Decide(calm); d != Hold {
		t.Fatalf("calm sample decided %v", d)
	}
	if d := p.Decide(hot); d != Hold {
		t.Fatalf("hot-after-calm decided %v, streak should have reset", d)
	}

	// Shrink requires idle queue AND a cost-model straggler.
	idle := Sample{Active: 3, Min: 1, Max: 4, QueueWait: 0,
		Compute: 10 * time.Millisecond, MarginalCost: 50 * time.Millisecond, Dispatches: 8}
	p = NewLoadPolicy()
	if d := p.Decide(idle); d != Hold {
		t.Fatalf("first idle sample decided %v before hysteresis", d)
	}
	if d := p.Decide(idle); d != Shrink {
		t.Fatalf("second idle sample decided %v, want shrink", d)
	}

	// At max, queue pressure cannot grow further.
	p = NewLoadPolicy()
	capped := hot
	capped.Active = 4
	p.Decide(capped)
	if d := p.Decide(capped); d != Hold {
		t.Fatalf("at-max sample decided %v, want hold", d)
	}

	// Below min refills immediately, no hysteresis.
	p = NewLoadPolicy()
	if d := p.Decide(Sample{Active: 0, Min: 1, Max: 4}); d != Grow {
		t.Fatal("below-min sample did not grow immediately")
	}
}
