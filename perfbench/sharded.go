package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bg3"
	"bg3/internal/graph"
	"bg3/internal/shard"
)

// sharded-txn: a 4-shard ShardedDB in an open loop of single-shard
// batches, two-shard 2PC batches and consistent-cut traversals.
const (
	shardCount      = 4
	shardVertices   = 20000
	shardEdges      = 20000
	shardBatch      = 8
	shardRate       = 250
	shardInflight   = 64
	shardKHopHops   = 2
	shardKHopLimit  = 16
	shardSingle     = 70 // percent of requests
	shardMulti      = 20
	shardSettlePoll = 100 * time.Millisecond
	// shardTornProbe is how many of the latest two-shard batches each
	// traversal probes for a torn view.
	shardTornProbe = 32
	// freshBase starts the destination IDs of measured writes, above every
	// base-graph vertex, so each write's edges are new and its own.
	freshBase = 1 << 32
)

func init() {
	register(&scenario{
		name:  "sharded-txn",
		why:   "4-shard ShardedDB, open loop: 70% single-shard and 20% two-shard 2PC 8-edge batches, 10% consistent-cut 2-hop KHop: the only traffic through router, 2PC, scatter-gather",
		heavy: []string{"shard", "wal", "storage writes", "forest"},
		light: []string{"bwtree cache", "gc", "replication"},
		traffic: map[string]any{
			"generator": fmt.Sprintf("%d%% single-shard / %d%% two-shard %d-edge batches, %d%% %d-hop KHop limit %d via ShardedDB.Snapshot, zipf 1.2 sources",
				shardSingle, shardMulti, shardBatch, 100-shardSingle-shardMulti, shardKHopHops, shardKHopLimit),
			"loop": "open", "rate_per_s": shardRate, "max_inflight": shardInflight,
			"vertices": shardVertices, "base_edges": shardEdges, "shards": shardCount,
		},
		options: shardOptions,
		setup:   setupSharded,
		layers:  shardLayerMetrics,
	})
}

func shardOptions() bg3.Options {
	o := baseOptions()
	o.Shards = shardCount
	return o
}

type shardedTxn struct {
	base
	db     *bg3.ShardedDB
	seed   int64
	phases int
	next   int64 // fresh destination counter
	tr     atomic.Pointer[tracer]

	mu       sync.Mutex // guards prepared
	prepared map[uint64]time.Time
}

func setupSharded(seed int64) (instance, error) {
	o := shardOptions()
	db, err := bg3.OpenSharded(&o)
	if err != nil {
		return nil, err
	}
	s := &shardedTxn{base: base{m: newModel(graph.ETypeFollow)}, db: db, seed: seed, prepared: make(map[uint64]time.Time)}
	g := db.Group()
	g.SetTxnStageHook(s.stageHook)

	// Bulk-load each shard's edges as single-shard batches, shards in
	// parallel.
	edges := baseGraph(datasetSeed, shardVertices, shardEdges)
	parts := make([][]edgeKey, shardCount)
	for _, e := range edges {
		i := g.Router().Owner(e.src)
		parts[i] = append(parts[i], e)
	}
	var wg sync.WaitGroup
	errs := make([]error, shardCount)
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = bulkLoad(parts[i], graph.ETypeFollow, 512, 1, db.ApplyBatch)
			if errs[i] == nil {
				_, errs[i] = g.Leader(i).Engine().Forest().BuildEdgeBlocks()
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			db.Close()
			return nil, err
		}
	}
	s.m.load(edges)
	// Measure only once the load's forest migrations have settled.
	last := -1.0
	for i := 0; i < 50; i++ {
		n := s.counters().get("forest.migrations")
		if n == last {
			break
		}
		last = n
		time.Sleep(shardSettlePoll)
	}
	s.info = map[string]any{"migrations": last, "per_shard_edges": []int{len(parts[0]), len(parts[1]), len(parts[2]), len(parts[3])}}
	return s, nil
}

func (s *shardedTxn) close() { s.db.Close() }

// stageHook times each two-shard transaction from all-prepared to decided.
func (s *shardedTxn) stageHook(stage shard.TxnStage, txn uint64, _ []int) {
	tr := s.tr.Load()
	if tr == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch stage {
	case shard.StagePrepared:
		s.prepared[txn] = now
	case shard.StageDecided:
		if t, ok := s.prepared[txn]; ok {
			delete(s.prepared, txn)
			tr.record("shard.txn.prepared-decided", t, now, -1, 0)
		}
	}
}

func (s *shardedTxn) counters() counters {
	c := counters{}
	g := s.db.Group()
	c.add(s.db.Metrics().Snapshot())
	for i := 0; i < g.Shards(); i++ {
		e := g.Leader(i).Engine()
		c.add(e.Metrics().Snapshot())
		c["gc.block_pinned"] += float64(e.GCStats().BlockPinned)
	}
	return c
}

// shardOp is one generated sharded-txn request.
type shardOp struct {
	read  bool
	start graph.VertexID
	edges []edgeKey
	multi bool
}

// genShardOps draws n requests from the phase seed: zipf sources as in the
// base graph, fresh destinations so every batch's edges are its own.
func (s *shardedTxn) genShardOps(n int, seed int64) []shardOp {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.2, 1, uint64(shardVertices-1))
	r := s.db.Group().Router()
	ops := make([]shardOp, n)
	for i := range ops {
		p := rng.Intn(100)
		src := graph.VertexID(z.Uint64())
		switch {
		case p < shardSingle:
			ops[i] = shardOp{edges: s.fresh(src, shardBatch)}
		case p < shardSingle+shardMulti:
			other := graph.VertexID(z.Uint64())
			for r.Owner(other) == r.Owner(src) {
				other = graph.VertexID(z.Uint64())
			}
			ops[i] = shardOp{multi: true, edges: append(s.fresh(src, shardBatch/2), s.fresh(other, shardBatch/2)...)}
		default:
			ops[i] = shardOp{read: true, start: src}
		}
	}
	return ops
}

func (s *shardedTxn) fresh(src graph.VertexID, n int) []edgeKey {
	out := make([]edgeKey, n)
	for i := range out {
		s.next++
		out[i] = edgeKey{src, graph.VertexID(freshBase + s.next)}
	}
	return out
}

func (s *shardedTxn) drive(d time.Duration, tr *tracer) (*loadStats, error) {
	s.phases++
	ops := s.genShardOps(int(shardRate*d.Seconds())+1, s.seed*1000+int64(s.phases))
	s.tr.Store(tr)
	defer s.tr.Store(nil)
	return openLoop(wallClock{}, shardRate, d, shardInflight, func(_ int, req uint64) (opKind, time.Time, error) {
		op := ops[req-1]
		root := tr.begin("request", -1, req)
		defer tr.end(root)
		if op.read {
			return s.khop(op.start, tr, root, req)
		}
		return opWrite, time.Time{}, s.applyBatch(op, tr, root, req)
	}), nil
}

func (s *shardedTxn) applyBatch(op shardOp, tr *tracer, root int, req uint64) error {
	muts := make([]graph.Mutation, len(op.edges))
	for i, e := range op.edges {
		muts[i] = graph.AddEdgeMut(graph.Edge{Src: e.src, Dst: e.dst, Type: s.m.etype, Props: tsProps})
	}
	name := "bg3.ApplyBatch.single"
	if op.multi {
		name = "bg3.ApplyBatch.multi"
	}
	w := s.m.begin(op.edges, op.multi)
	sp := tr.begin(name, root, req)
	err := s.db.ApplyBatch(muts)
	tr.end(sp)
	s.m.finish(w, err)
	if err == nil {
		s.written.Add(int64(len(op.edges)))
	}
	return err
}

// khop runs a consistent-cut traversal and checks it while the cut is
// still pinned. A cut may lag acknowledged writes (a shard's read epoch
// waits for undecided two-shard transactions), so the checks are the cut's
// own guarantees: the scatter-gather result equals the serial traversal
// over the same cut, every read of that traversal is sorted, holds the
// whole base graph and only edges whose write had started, and no recent
// two-shard batch is visible on one shard but not the other.
func (s *shardedTxn) khop(start graph.VertexID, tr *tracer, root int, req uint64) (opKind, time.Time, error) {
	sp := tr.begin("bg3.ShardedDB.Snapshot", root, req)
	snap := s.db.Snapshot()
	tr.end(sp)
	pinned := s.m.now()
	held := tr.begin("bg3.Snapshot.held", root, req)
	k := tr.begin("bg3.ShardSnapshot.KHop", held, req)
	reached, err := snap.KHop(start, s.m.etype, shardKHopHops, shardKHopLimit)
	tr.end(k)
	done := time.Now()
	if err == nil {
		s.checked(s.checkCut(snap, start, reached, pinned))
	}
	snap.Close()
	tr.end(held)
	return opRead, done, err
}

func (s *shardedTxn) checkCut(snap *bg3.ShardSnapshot, start graph.VertexID, reached map[graph.VertexID]struct{}, pinned uint64) error {
	r := &cutReader{m: s.m, snap: snap, pinned: pinned}
	serial, err := graph.KHop(r, start, s.m.etype, shardKHopHops, shardKHopLimit)
	if err == nil {
		err = r.err
	}
	if err == nil {
		err = sameSet(start, reached, serial)
	}
	if err != nil {
		return err
	}
	return s.m.checkTorn(pinned, shardTornProbe, func(e edgeKey) (bool, error) {
		_, ok, err := snap.GetEdge(e.src, s.m.etype, e.dst)
		return ok, err
	})
}

// cutReader is the serial traversal's view of a cut: each Neighbors read is
// checked against the model as it is served.
type cutReader struct {
	m      *model
	snap   *bg3.ShardSnapshot
	pinned uint64
	err    error
}

func (r *cutReader) Neighbors(src graph.VertexID, typ graph.EdgeType, limit int, fn func(graph.VertexID, graph.Properties) bool) error {
	var got []graph.VertexID
	stopped := false
	err := r.snap.Neighbors(src, typ, limit, func(d graph.VertexID, p graph.Properties) bool {
		got = append(got, d)
		if !fn(d, p) {
			stopped = true
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	truncated := stopped || (limit > 0 && len(got) >= limit)
	if cerr := r.m.checkLive(src, got, truncated, r.m.loaded, r.pinned); cerr != nil && r.err == nil {
		r.err = cerr
	}
	return nil
}
func (r *cutReader) GetVertex(graph.VertexID, graph.VertexType) (graph.Vertex, bool, error) {
	return graph.Vertex{}, false, errUnused
}
func (r *cutReader) GetEdge(graph.VertexID, graph.EdgeType, graph.VertexID) (graph.Edge, bool, error) {
	return graph.Edge{}, false, errUnused
}
func (r *cutReader) Degree(graph.VertexID, graph.EdgeType) (int, error) { return 0, errUnused }

func sameSet(start graph.VertexID, got, want map[graph.VertexID]struct{}) error {
	if len(got) != len(want) {
		return fmt.Errorf("khop from %d reached %d vertices, model reaches %d", start, len(got), len(want))
	}
	var missing []graph.VertexID
	for v := range want {
		if _, ok := got[v]; !ok {
			missing = append(missing, v)
		}
	}
	if len(missing) > 0 {
		sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
		return fmt.Errorf("khop from %d missed %v", start, missing)
	}
	return nil
}

func (s *shardedTxn) audit() auditResult {
	return s.auditAll(auditTarget{"leaders", s.db})
}
