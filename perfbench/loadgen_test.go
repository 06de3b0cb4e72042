package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when the dispatcher sleeps: every sleep
// overshoots by floor (a timer floor), and the sleep for request stallAt
// overshoots by stall as well (the generator itself was held up).
type fakeClock struct {
	mu      sync.Mutex
	t       time.Time
	floor   time.Duration
	stall   time.Duration
	stallAt int
	sleeps  int
	// reached is closed at the reachAt-th sleep, once every request
	// before it has been dispatched.
	reached chan struct{}
	reachAt int
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sleeps++
	if t.After(c.t) {
		c.t = t.Add(c.floor)
	}
	if c.sleeps == c.stallAt {
		c.t = c.t.Add(c.stall)
	}
	if c.sleeps == c.reachAt {
		close(c.reached)
	}
}

func TestOpenLoopChargesLatenessFromDueTime(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0), floor: 3 * time.Millisecond, stall: 50 * time.Millisecond, stallAt: 11}
	var mu sync.Mutex
	dispatched := map[uint64]time.Time{}
	st := openLoop(clk, 100, time.Second, 1000, func(_ int, req uint64) (opKind, time.Time, error) {
		now := clk.now()
		mu.Lock()
		dispatched[req] = now
		mu.Unlock()
		return opRead, now, nil // completes the instant it is sent
	})
	if got := st.attempted.Load(); got != 100 {
		t.Fatalf("attempted %d, want 100", got)
	}
	if st.failed.Load() != 0 || st.refused.Load() != 0 {
		t.Fatalf("failed %d refused %d", st.failed.Load(), st.refused.Load())
	}
	// The first request is due at the start; every later one pays the
	// 3ms timer floor, and the 50ms stall at the eleventh makes it and
	// the four after it (due every 10ms) late by 53, 43, 33, 23 and 13ms.
	// Latency is charged from the due time, so it is never below the
	// lateness.
	late := st.late.sorted()
	if late[0] != 0 || late[1] < 3-1e-9 {
		t.Fatalf("lowest lateness %vms, %vms; want 0 and the 3ms floor", late[0], late[1])
	}
	if max := late[len(late)-1]; max < 53-1e-9 || max > 53+1e-9 {
		t.Fatalf("max lateness %vms, want 53ms", max)
	}
	over := 0
	for _, l := range late {
		if l > 3+1e-9 {
			over++
		}
	}
	if over != 5 {
		t.Fatalf("%d requests later than the floor, want 5", over)
	}
	lat := st.read.sorted()
	for i := range lat {
		if lat[i] < late[i]-1e-9 {
			t.Fatalf("latency %vms below lateness %vms: not timed from due", lat[i], late[i])
		}
	}
	if len(dispatched) != 100 {
		t.Fatalf("%d requests ran", len(dispatched))
	}
}

func TestOpenLoopRefusesAtInflightCap(t *testing.T) {
	// Eleven requests, one slot: the first holds it until the dispatcher
	// has moved on to the last one, so the nine between are refused.
	clk := &fakeClock{t: time.Unix(0, 0), reached: make(chan struct{}), reachAt: 11}
	st := openLoop(clk, 100, 110*time.Millisecond, 1, func(_ int, req uint64) (opKind, time.Time, error) {
		if req == 1 {
			<-clk.reached
		}
		return opWrite, time.Time{}, nil
	})
	refused := st.refused.Load()
	if st.attempted.Load() != 11 || refused < 9 || refused > 10 || st.failed.Load() != refused {
		t.Fatalf("attempted %d refused %d failed %d, want 11 attempted and 9 or 10 refused and failed",
			st.attempted.Load(), refused, st.failed.Load())
	}
	if st.completed() != 11-refused || int64(st.write.len()) != 11-refused || st.maxFlight.Load() != 1 {
		t.Fatalf("completed %d writes %d max in flight %d", st.completed(), st.write.len(), st.maxFlight.Load())
	}
}
