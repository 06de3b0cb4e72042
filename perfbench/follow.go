package main

import (
	"errors"
	"runtime"
	"time"

	"bg3"
	"bg3/internal/graph"
	"bg3/internal/workload"
)

// follow-read: Table-1 Douyin Follow in a closed loop on a page cache far
// smaller than the graph, so reads go to storage.
const (
	followUsers = 20000
	followEdges = 20000
	// followCachePages holds about a tenth of the leaf pages the base
	// graph loads into.
	followCachePages = 30
)

func init() {
	register(&scenario{
		name:  "follow-read",
		why:   "Table-1 Douyin Follow, closed loop, cache ~1/10 of leaves: storage reads, page cache, fan-out and edge blocks work; WAL, MVCC, GC and shards idle",
		heavy: []string{"storage", "bwtree", "graph", "runtime"},
		light: []string{"wal", "forest", "mvcc", "gc", "replication", "shard"},
		traffic: map[string]any{
			"generator": "workload.DouyinFollow (99% Neighbors limit 128, 1% AddEdge, zipf 1.2)",
			"loop":      "closed", "clients": runtime.GOMAXPROCS(0),
			"users": followUsers, "base_edges": followEdges,
		},
		options: followOptions,
		setup:   setupFollow,
	})
}

func followOptions() bg3.Options {
	o := baseOptions()
	o.CacheCapacity = followCachePages
	return o
}

type followRead struct {
	base
	db     *bg3.DB
	seed   int64
	phases int
}

func setupFollow(seed int64) (instance, error) {
	o := followOptions()
	db, err := bg3.Open(&o)
	if err != nil {
		return nil, err
	}
	f := &followRead{base: base{m: newModel(graph.ETypeFollow)}, db: db, seed: seed}
	edges := baseGraph(datasetSeed, followUsers, followEdges)
	t0 := time.Now()
	lat, err := bulkLoad(edges, graph.ETypeFollow, 512, 4, db.ApplyBatch)
	if err != nil {
		db.Close()
		return nil, err
	}
	f.m.load(edges)
	t1 := time.Now()
	blocks, err := db.BuildEdgeBlocks()
	if err != nil {
		db.Close()
		return nil, err
	}
	s := db.Stats()
	f.info = map[string]any{
		"edge_blocks": blocks, "leaf_pages": s.Cache.Pages, "trees": s.Forest.Trees,
		"apply_batch_ms": lat.summary(), "load_s": t1.Sub(t0).Seconds(), "blocks_s": time.Since(t1).Seconds(),
	}
	return f, nil
}

func (f *followRead) close() { f.db.Close() }

func (f *followRead) counters() counters {
	c := counters{}
	c.add(f.db.Metrics().Snapshot())
	c["gc.block_pinned"] = float64(f.db.Stats().GC.BlockPinned)
	return c
}

func (f *followRead) drive(d time.Duration, tr *tracer) (*loadStats, error) {
	f.phases++
	clients := runtime.GOMAXPROCS(0)
	gens := make([]workload.Generator, clients)
	for c := range gens {
		gens[c] = workload.NewDouyinFollow(followUsers, f.seed).Clone(f.seed*1000 + int64(f.phases*100+c))
	}
	return closedLoop(clients, d, func(c int, req uint64) (opKind, time.Time, error) {
		op := gens[c].Next()
		kind := opRead
		if op.Kind == workload.OpAddEdge {
			kind = opWrite
		}
		root := tr.begin("request", -1, req)
		s := &liveStore{f: f, tr: tr, parent: root, req: req}
		err := workload.Apply(s, op)
		done := time.Now()
		tr.end(root)
		if s.read != nil {
			s.read()
		}
		return kind, done, err
	}), nil
}

func (f *followRead) audit() auditResult {
	return f.auditAll(auditTarget{"leader", f.db})
}

// liveStore is the graph.Store workload.Apply drives for one follow-read
// request: each call goes to the DB inside a span, writes are stamped in
// the model, and a read leaves its check to run once the request is timed.
type liveStore struct {
	f      *followRead
	tr     *tracer
	parent int
	req    uint64
	read   func()
}

var errUnused = errors.New("perfbench: operation not used by this workload")

func (s *liveStore) Neighbors(src graph.VertexID, typ graph.EdgeType, limit int, fn func(graph.VertexID, graph.Properties) bool) error {
	m := s.f.m
	t0 := m.now()
	sp := s.tr.begin("bg3.Neighbors", s.parent, s.req)
	got, truncated, err := neighborsInto(func(g func(graph.VertexID, graph.Properties) bool) error {
		return s.f.db.Neighbors(src, typ, limit, func(d graph.VertexID, p graph.Properties) bool {
			return g(d, p) && fn(d, p)
		})
	}, limit)
	s.tr.end(sp)
	t1 := m.now()
	if err != nil {
		return err
	}
	s.tr.sample("graph.edges_per_read", float64(len(got)))
	s.tr.sample("graph.neighbors_per_traversal", 1)
	s.read = func() { s.f.checked(m.checkLive(src, got, truncated, t0, t1)) }
	return nil
}

func (s *liveStore) AddEdge(e graph.Edge) error {
	w := s.f.m.begin([]edgeKey{{e.Src, e.Dst}}, false)
	sp := s.tr.begin("bg3.AddEdge", s.parent, s.req)
	err := s.f.db.AddEdge(e)
	s.tr.end(sp)
	s.f.m.finish(w, err)
	if err == nil {
		s.f.written.Add(1)
	}
	return err
}

func (s *liveStore) GetVertex(graph.VertexID, graph.VertexType) (graph.Vertex, bool, error) {
	return graph.Vertex{}, false, errUnused
}
func (s *liveStore) GetEdge(graph.VertexID, graph.EdgeType, graph.VertexID) (graph.Edge, bool, error) {
	return graph.Edge{}, false, errUnused
}
func (s *liveStore) Degree(graph.VertexID, graph.EdgeType) (int, error) { return 0, errUnused }
func (s *liveStore) AddVertex(graph.Vertex) error                       { return errUnused }
func (s *liveStore) DeleteEdge(graph.VertexID, graph.EdgeType, graph.VertexID) error {
	return errUnused
}
