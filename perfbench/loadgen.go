package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// opKind classifies a request for latency accounting.
type opKind int

const (
	opRead opKind = iota
	opWrite
)

func (k opKind) String() string {
	if k == opRead {
		return "read"
	}
	return "write"
}

// request runs one operation; req is its request id (unique per phase).
// It reports the kind of operation it was, when the operation completed
// (so checks that follow it are not timed; zero means "now"), and whether
// it failed.
type request func(client int, req uint64) (opKind, time.Time, error)

// loadStats is what the load generator measured over one phase.
type loadStats struct {
	attempted atomic.Int64
	failed    atomic.Int64 // errors and refusals
	refused   atomic.Int64 // open loop: turned away at the in-flight cap
	inflight  atomic.Int64
	maxFlight atomic.Int64
	read      samples // ms, from due time (open loop) or send time (closed)
	write     samples
	late      samples // open loop: ms the generator dispatched after due
	start     time.Time
	lastDone  atomic.Int64 // ns after start of the latest completion
	doneAt    samples      // completion times, seconds after start
	errs      sync.Map     // first error text per kind, for the run record
}

func (st *loadStats) completed() int64 { return st.attempted.Load() - st.failed.Load() }

// sampleBytes is the heap the per-operation samples hold.
func (st *loadStats) sampleBytes() float64 {
	n := 0
	for _, s := range []*samples{&st.read, &st.write, &st.late, &st.doneAt} {
		s.mu.Lock()
		n += cap(s.v)
		s.mu.Unlock()
	}
	return float64(8 * n)
}

// throughput is the rate of completed operations, from the first send to
// the last completion.
func (st *loadStats) throughput() float64 {
	return ratio(float64(st.completed()), time.Duration(st.lastDone.Load()).Seconds())
}

func (st *loadStats) finish(kind opKind, err error, from, done time.Time) {
	lat := done.Sub(from)
	for at := int64(done.Sub(st.start)); ; {
		last := st.lastDone.Load()
		if at <= last || st.lastDone.CompareAndSwap(last, at) {
			break
		}
	}
	if err != nil {
		st.failed.Add(1)
		st.errs.LoadOrStore(kind, err.Error())
		return
	}
	st.doneAt.add(done.Sub(st.start).Seconds())
	if kind == opRead {
		st.read.addDur(lat)
	} else {
		st.write.addDur(lat)
	}
}

// closedLoop runs clients that each send their next request only after
// the previous one completes, for d.
func closedLoop(clients int, d time.Duration, do request) *loadStats {
	var next atomic.Uint64
	start := time.Now()
	deadline := start.Add(d)
	st := &loadStats{start: start}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				st.attempted.Add(1)
				t0 := time.Now()
				kind, done, err := do(c, next.Add(1))
				if done.IsZero() {
					done = time.Now()
				}
				st.finish(kind, err, t0, done)
			}
		}(c)
	}
	wg.Wait()
	return st
}

// clock is the open loop's time source; tests substitute a fake one.
type clock interface {
	now() time.Time
	sleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) now() time.Time { return time.Now() }
func (wallClock) sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// openLoop sends requests on a fixed schedule of rate per second for d,
// whatever the system's progress: request i is due at start + i/rate.
// Each request is timed from when it was due, so a stall is charged to
// every request it delays, and the dispatcher's own lateness is recorded.
// At most maxInflight requests run at once; a request due while the cap
// is reached is refused and counts as a failure.
func openLoop(clk clock, rate float64, d time.Duration, maxInflight int, do request) *loadStats {
	sem := make(chan struct{}, maxInflight)
	start := clk.now()
	st := &loadStats{start: start}
	interval := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	for i := int64(0); ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= d {
			break
		}
		clk.sleepUntil(due)
		st.late.addDur(clk.now().Sub(due))
		st.attempted.Add(1)
		select {
		case sem <- struct{}{}:
		default:
			st.refused.Add(1)
			st.failed.Add(1)
			continue
		}
		if n := st.inflight.Add(1); n > st.maxFlight.Load() {
			st.maxFlight.Store(n) // only the dispatcher raises it
		}
		wg.Add(1)
		go func(req uint64, due time.Time) {
			defer wg.Done()
			kind, done, err := do(int(req), req)
			if done.IsZero() {
				done = clk.now()
			}
			st.finish(kind, err, due, done)
			st.inflight.Add(-1)
			<-sem
		}(uint64(i+1), due)
	}
	wg.Wait()
	return st
}
