package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"bg3/internal/graph"
)

// never is the ack stamp of an edge no write has acknowledged yet.
const never = math.MaxUint64

type edgeKey struct{ src, dst graph.VertexID }

// edgeRec is the model's knowledge of one (src, dst) edge: the logical
// time its first write started and the time its first acknowledgement was
// seen.
type edgeRec struct {
	dst     graph.VertexID
	started uint64
	acked   uint64
}

// write is one logical write the benchmark issued: a single edge or an
// atomic batch.
type write struct {
	id      int64
	edges   []edgeKey
	started uint64
	acked   uint64
	// atomic writes must be all in or all out of every snapshot; a write
	// that is not may show partly where it straddles commit groups.
	atomic bool
}

const stripes = 64

type stripe struct {
	mu  sync.RWMutex
	adj map[graph.VertexID][]edgeRec // sorted by dst
}

// model is the benchmark's own record of every loaded or acknowledged edge
// of one edge type. Reads are checked against it while the run goes on,
// and the database is audited against it at the end.
//
// A logical clock orders the model's events: a write is stamped when it
// starts and again when it is acknowledged. A read that starts at clock t0
// must see every edge acknowledged by t0, and may see only edges whose
// write started before the read ended.
type model struct {
	etype   graph.EdgeType
	clock   atomic.Uint64
	stripes [stripes]stripe

	loaded uint64 // clock of the bulk load

	mu      sync.Mutex // guards the fields below
	nextID  int64
	pending map[int64]*write
	acks    []*write // acknowledged writes in ack order
	failed  []*write
}

func newModel(etype graph.EdgeType) *model {
	m := &model{etype: etype, pending: make(map[int64]*write)}
	for i := range m.stripes {
		m.stripes[i].adj = make(map[graph.VertexID][]edgeRec)
	}
	return m
}

func (m *model) stripe(src graph.VertexID) *stripe {
	return &m.stripes[uint64(src)*0x9E3779B97F4A7C15>>58]
}

// load records edges the bulk load committed before measurement.
func (m *model) load(edges []edgeKey) {
	t := m.clock.Add(1)
	m.loaded = t
	for _, e := range edges {
		m.insert(e, t, t)
	}
}

// insert adds e if absent; an upsert of a known edge keeps the earliest
// stamps.
func (m *model) insert(e edgeKey, started, acked uint64) {
	s := m.stripe(e.src)
	s.mu.Lock()
	recs := s.adj[e.src]
	i := sort.Search(len(recs), func(i int) bool { return recs[i].dst >= e.dst })
	if i < len(recs) && recs[i].dst == e.dst {
		if acked < recs[i].acked {
			recs[i].acked = acked
		}
		s.mu.Unlock()
		return
	}
	recs = append(recs, edgeRec{})
	copy(recs[i+1:], recs[i:])
	recs[i] = edgeRec{dst: e.dst, started: started, acked: acked}
	s.adj[e.src] = recs
	s.mu.Unlock()
}

// begin stamps a write as started; call it before issuing the write.
func (m *model) begin(edges []edgeKey, atomic bool) *write {
	m.mu.Lock()
	m.nextID++
	w := &write{id: m.nextID, edges: edges, started: m.clock.Add(1), acked: never, atomic: atomic}
	m.pending[w.id] = w
	m.mu.Unlock()
	for _, e := range edges {
		m.insert(e, w.started, never)
	}
	return w
}

// finish records the write's outcome once the database has answered.
func (m *model) finish(w *write, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.pending, w.id)
	if err != nil {
		m.failed = append(m.failed, w)
		return
	}
	w.acked = m.clock.Add(1)
	for _, e := range w.edges {
		s := m.stripe(e.src)
		s.mu.Lock()
		recs := s.adj[e.src]
		i := sort.Search(len(recs), func(i int) bool { return recs[i].dst >= e.dst })
		if recs[i].acked > w.acked {
			recs[i].acked = w.acked
		}
		s.mu.Unlock()
	}
	m.acks = append(m.acks, w)
}

// now is the model's logical time.
func (m *model) now() uint64 { return m.clock.Load() }

// cut is what the model knows about a pinned snapshot: every write acked
// before it was opened (at tOpen) is in it, no write started after it was
// pinned is, and for the writes in between a probe of the snapshot itself
// decided.
type cut struct {
	tOpen   uint64
	visible map[edgeKey]bool // probed in-between edges
}

// inDoubt lists the writes whose visibility in a snapshot the clock alone
// cannot decide: started by tPinned, but not acknowledged by tOpen.
func (m *model) inDoubt(tOpen, tPinned uint64) []*write {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*write
	for _, w := range m.pending {
		if w.started <= tPinned {
			out = append(out, w)
		}
	}
	i := sort.Search(len(m.acks), func(i int) bool { return m.acks[i].acked > tOpen })
	for _, w := range m.acks[i:] {
		if w.started <= tPinned {
			out = append(out, w)
		}
	}
	for _, w := range m.failed {
		if w.started <= tPinned {
			out = append(out, w)
		}
	}
	return out
}

// newCut probes the in-doubt writes through get (the snapshot's GetEdge)
// and returns the snapshot's model.
func (m *model) newCut(tOpen, tPinned uint64, get func(edgeKey) (bool, error)) (*cut, error) {
	c := &cut{tOpen: tOpen, visible: make(map[edgeKey]bool)}
	for _, w := range m.inDoubt(tOpen, tPinned) {
		for _, e := range w.edges {
			ok, err := get(e)
			if err != nil {
				return nil, fmt.Errorf("probe %v: %w", e, err)
			}
			if ok {
				c.visible[e] = true
			}
		}
	}
	return c, nil
}

// checkTorn probes the latest n atomic writes started by pinned, and every
// such write still open, through get (a snapshot's GetEdge): each must be
// all in or all out of the snapshot. Each write's edges are its own.
func (m *model) checkTorn(pinned uint64, n int, get func(edgeKey) (bool, error)) error {
	m.mu.Lock()
	var ws []*write
	for _, w := range m.pending {
		if w.atomic && w.started <= pinned {
			ws = append(ws, w)
		}
	}
	for i := len(m.acks) - 1; i >= 0 && n > 0; i-- {
		if w := m.acks[i]; w.atomic && w.started <= pinned {
			ws = append(ws, w)
			n--
		}
	}
	m.mu.Unlock()
	for _, w := range ws {
		seen := 0
		for _, e := range w.edges {
			ok, err := get(e)
			if err != nil {
				return fmt.Errorf("probe %v: %w", e, err)
			}
			if ok {
				seen++
			}
		}
		if seen != 0 && seen != len(w.edges) {
			return fmt.Errorf("write %d torn in snapshot: %d of %d edges visible", w.id, seen, len(w.edges))
		}
	}
	return nil
}

func (c *cut) sees(src graph.VertexID, r edgeRec) bool {
	return r.acked <= c.tOpen || c.visible[edgeKey{src, r.dst}]
}

// expect returns the first limit (<= 0: all) destinations of src the cut
// contains, in order.
func (m *model) expect(c *cut, src graph.VertexID, limit int) []graph.VertexID {
	s := m.stripe(src)
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []graph.VertexID
	for _, r := range s.adj[src] {
		if limit > 0 && len(out) >= limit {
			break
		}
		if c.sees(src, r) {
			out = append(out, r.dst)
		}
	}
	return out
}

// checkCut verifies one Neighbors result read through a snapshot: it must
// be exactly the snapshot's adjacency, in order, up to where the reader
// stopped (limit reached or callback declined).
func (m *model) checkCut(c *cut, src graph.VertexID, got []graph.VertexID, limit int, stopped bool) error {
	want := m.expect(c, src, limit)
	if stopped {
		if len(got) > len(want) {
			return fmt.Errorf("src %d: read %d edges, snapshot has %d", src, len(got), len(want))
		}
		want = want[:len(got)]
	}
	return sameList(src, got, want)
}

// checkLive verifies one Neighbors result read from the live graph while
// writes went on: it must be sorted and duplicate-free, hold only edges
// whose write had started when the read ended (t1), and hold every edge
// acknowledged before the read began (t0) up to where the read stopped.
func (m *model) checkLive(src graph.VertexID, got []graph.VertexID, truncated bool, t0, t1 uint64) error {
	s := m.stripe(src)
	s.mu.RLock()
	defer s.mu.RUnlock()
	recs := s.adj[src]
	j := 0
	for i, d := range got {
		if i > 0 && d <= got[i-1] {
			return fmt.Errorf("src %d: result out of order at %d (%d after %d)", src, i, d, got[i-1])
		}
		for j < len(recs) && recs[j].dst < d {
			if recs[j].acked <= t0 {
				return fmt.Errorf("src %d: acknowledged edge to %d missing", src, recs[j].dst)
			}
			j++
		}
		if j == len(recs) || recs[j].dst != d || recs[j].started > t1 {
			return fmt.Errorf("src %d: edge to %d read but never written", src, d)
		}
		j++
	}
	if !truncated {
		for ; j < len(recs); j++ {
			if recs[j].acked <= t0 {
				return fmt.Errorf("src %d: acknowledged edge to %d missing (read %d edges)", src, recs[j].dst, len(got))
			}
		}
	}
	return nil
}

func sameList(src graph.VertexID, got, want []graph.VertexID) error {
	if len(got) != len(want) {
		return fmt.Errorf("src %d: read %d edges, model has %d", src, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("src %d: edge %d is %d, model has %d", src, i, got[i], want[i])
		}
	}
	return nil
}

// sources lists every source vertex the model holds edges for.
func (m *model) sources() []graph.VertexID {
	var out []graph.VertexID
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.RLock()
		for src := range s.adj {
			out = append(out, src)
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// neighborer is the read call the audit drives: DB, Replica and ShardedDB
// all provide it.
type neighborer interface {
	Neighbors(src graph.VertexID, typ graph.EdgeType, limit int, fn func(graph.VertexID, graph.Properties) bool) error
}

// audit reads every source's full adjacency from r, with workers parallel
// readers, and compares it with the model once all writes have finished:
// each acknowledged edge present, each edge of only failed writes absent,
// nothing else. It returns the number of mismatching sources and the first
// mismatch.
func (m *model) audit(r neighborer, workers int) (int, error) {
	m.mu.Lock()
	open := len(m.pending)
	m.mu.Unlock()
	if open != 0 {
		return open, fmt.Errorf("audit with %d writes still open", open)
	}
	all := &cut{tOpen: m.now()}
	srcs := m.sources()
	var (
		next  atomic.Int64
		bad   atomic.Int64
		first sync.Once
		ferr  error
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(srcs) {
					return
				}
				src := srcs[i]
				var got []graph.VertexID
				err := r.Neighbors(src, m.etype, 0, func(d graph.VertexID, _ graph.Properties) bool {
					got = append(got, d)
					return true
				})
				if err == nil {
					err = sameList(src, got, m.expect(all, src, 0))
				}
				if err != nil {
					bad.Add(1)
					first.Do(func() { ferr = err })
				}
			}
		}()
	}
	wg.Wait()
	return int(bad.Load()), ferr
}

// edgeCount is the number of acknowledged edges.
func (m *model) edgeCount() int {
	n := 0
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.RLock()
		for _, recs := range s.adj {
			for _, r := range recs {
				if r.acked != never {
					n++
				}
			}
		}
		s.mu.RUnlock()
	}
	return n
}
