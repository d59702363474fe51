package msgq

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestFIFOSingleProducer(t *testing.T) {
	q := New[int]()
	for i := 0; i < 100; i++ {
		if !q.Push(i) {
			t.Fatal("push failed on open queue")
		}
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := q.TryPop()
		if !ok || v != i {
			t.Fatalf("pop %d: got %v ok=%v", i, v, ok)
		}
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue returned ok")
	}
}

func TestInterleavedPushPopKeepsOrder(t *testing.T) {
	q := New[int]()
	next := 0
	expect := 0
	for round := 0; round < 10; round++ {
		for i := 0; i < 7; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < 5; i++ {
			v, ok := q.TryPop()
			if !ok || v != expect {
				t.Fatalf("got %v ok=%v, want %d", v, ok, expect)
			}
			expect++
		}
	}
	for {
		v, ok := q.TryPop()
		if !ok {
			break
		}
		if v != expect {
			t.Fatalf("drain got %v, want %d", v, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d, pushed %d", expect, next)
	}
}

func TestBlockingPopWakesOnPush(t *testing.T) {
	q := New[string]()
	done := make(chan string, 1)
	go func() {
		v, ok := q.Pop()
		if !ok {
			done <- "!closed"
			return
		}
		done <- v
	}()
	time.Sleep(10 * time.Millisecond)
	q.Push("hello")
	select {
	case v := <-done:
		if v != "hello" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Pop never woke up")
	}
}

func TestCloseWakesBlockedPop(t *testing.T) {
	q := New[int]()
	done := make(chan bool, 1)
	go func() {
		_, ok := q.Pop()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Pop on closed empty queue reported ok")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not wake Pop")
	}
}

func TestCloseDrainsRemaining(t *testing.T) {
	q := New[int]()
	q.Push(1)
	q.Push(2)
	q.Close()
	if q.Push(3) {
		t.Fatal("Push after Close must fail")
	}
	v, ok := q.Pop()
	if !ok || v != 1 {
		t.Fatalf("got %v %v", v, ok)
	}
	v, ok = q.Pop()
	if !ok || v != 2 {
		t.Fatalf("got %v %v", v, ok)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("drained closed queue still returns messages")
	}
	q.Close() // idempotent
}

func TestConcurrentProducersNoLoss(t *testing.T) {
	const producers, perProducer = 8, 500
	q := New[[2]int]()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Push([2]int{id, i})
			}
		}(p)
	}
	received := make(chan [2]int, producers*perProducer)
	go func() {
		for {
			v, ok := q.Pop()
			if !ok {
				close(received)
				return
			}
			received <- v
		}
	}()
	wg.Wait()
	q.Close()

	lastSeen := make([]int, producers)
	for i := range lastSeen {
		lastSeen[i] = -1
	}
	count := 0
	for v := range received {
		id, seq := v[0], v[1]
		if seq != lastSeen[id]+1 {
			t.Fatalf("producer %d: message %d arrived after %d (per-sender FIFO violated)", id, seq, lastSeen[id])
		}
		lastSeen[id] = seq
		count++
	}
	if count != producers*perProducer {
		t.Fatalf("received %d of %d messages", count, producers*perProducer)
	}
	pushed, popped, dropped := q.Stats()
	if pushed != producers*perProducer || popped != pushed {
		t.Fatalf("stats pushed=%d popped=%d", pushed, popped)
	}
	if dropped != 0 {
		t.Fatalf("stats dropped=%d with no post-close pushes", dropped)
	}
}

// Property: under a racing producer and closer, every Push that returned
// true is eventually popped — messages accepted before Close are never
// lost — and every Push that returned false is counted as dropped.
func TestQuickPushBeforeCloseIsPopped(t *testing.T) {
	f := func(vals []int16, closeAt uint8) bool {
		q := New[int16]()
		accepted := make(chan int, 1)
		go func() {
			n := 0
			for _, v := range vals {
				if q.Push(v) {
					n++
				}
			}
			accepted <- n
		}()
		go func() {
			// Close races the producer at a pseudo-random point.
			for i := uint8(0); i < closeAt%32; i++ {
				runtime.Gosched()
			}
			q.Close()
		}()
		drained := 0
		for {
			if _, ok := q.Pop(); !ok {
				break
			}
			drained++
		}
		n := <-accepted
		pushed, popped, dropped := q.Stats()
		return drained == n && pushed == uint64(n) && popped == uint64(n) &&
			dropped == uint64(len(vals)-n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDroppedCounter(t *testing.T) {
	q := New[int]()
	q.Push(1)
	q.Close()
	q.Push(2)
	q.Push(3)
	if _, _, dropped := q.Stats(); dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
}

// Property: any sequence of pushes followed by full drain returns exactly
// the pushed sequence.
func TestQuickDrainEqualsPushed(t *testing.T) {
	f := func(vals []int16) bool {
		q := New[int16]()
		for _, v := range vals {
			q.Push(v)
		}
		for _, want := range vals {
			got, ok := q.TryPop()
			if !ok || got != want {
				return false
			}
		}
		_, ok := q.TryPop()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
