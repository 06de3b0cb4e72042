package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the root
	Req    uint64 `json:"req"`    // request id shared by a request's spans
}

// tracer keeps spans in memory for the run; it is written out at the end.
// A nil tracer records nothing, so untraced runs pay one branch per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	named map[string]*samples // counts and times measured beside the spans
}

func newTracer() *tracer { return &tracer{t0: time.Now(), named: make(map[string]*samples)} }

// sample records one observation of a named per-layer quantity.
func (t *tracer) sample(name string, x float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	s := t.named[name]
	if s == nil {
		s = &samples{}
		t.named[name] = s
	}
	t.mu.Unlock()
	s.add(x)
}

// get returns the observations recorded under name (possibly none).
func (t *tracer) get(name string) *samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.named[name]; s != nil {
		return s
	}
	return &samples{}
}

// durations returns the durations, in microseconds, of the closed spans
// with any of the given names.
func (t *tracer) durations(names ...string) *samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := &samples{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		for _, n := range names {
			if s.Name == n {
				out.v = append(out.v, float64(s.End-s.Start)/1e3)
			}
		}
	}
	return out
}

// begin opens a span and returns its index, -1 when tracing is off.
func (t *tracer) begin(name string, parent int, req uint64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose start and end were timed elsewhere.
func (t *tracer) record(name string, start, end time.Time, parent int, req uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Req: req})
	t.mu.Unlock()
}

// selfTimes returns, per span name, the self time of each closed span: its
// duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]*samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*samples)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - covered(s, children[i])
		if out[s.Name] == nil {
			out[s.Name] = &samples{}
		}
		out[s.Name].v = append(out[s.Name].v, float64(self)/1e3)
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	lo, hi := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if s > hi {
			total += hi - lo
			lo, hi = s, e
			continue
		}
		hi = max(hi, e)
	}
	return total + hi - lo
}

// traceFile is the traced run's output.
type traceFile struct {
	Meta   any                  `json:"meta"`
	Self   map[string]summary   `json:"self_time_us"`
	Series []map[string]float64 `json:"series"` // per-second counters
	Spans  []span               `json:"spans"`
}

func (t *tracer) write(path string, meta any, self map[string]summary, series []map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(traceFile{Meta: meta, Self: self, Series: series, Spans: t.spans})
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
