package main

import (
	"sync"
	"sync/atomic"
	"time"

	"bg3"
	"bg3/internal/graph"
	"bg3/internal/workload"
)

// risk-ingest: Table-1 Financial Risk Control in an open loop, with a
// read-only replica tailing the WAL and periodic GC, on a cache that holds
// the whole graph.
const (
	riskAccounts = 20000
	riskEdges    = 20000
	// riskRate is the offered load in requests per second: about half the
	// highest rate the deployment sustained without backlog when the
	// benchmark was defined.
	riskRate     = 400
	riskInflight = 128
	riskGCEvery  = 500 * time.Millisecond
	riskGCBatch  = 2
	// riskProbeEvery samples one acknowledged write in this many for the
	// replica-lag probe (traced phase only).
	riskProbeEvery = 10
)

func init() {
	register(&scenario{
		name:  "risk-ingest",
		why:   "Table-1 Risk Control, open loop, pinned-snapshot traversals beside writes, replica, periodic GC: WAL, forest migration, MVCC, GC, replication work; storage reads idle",
		heavy: []string{"wal", "forest", "mvcc", "gc", "replication", "graph"},
		light: []string{"storage reads", "bwtree cache", "shard"},
		traffic: map[string]any{
			"generator": "workload.RiskControl (50% AddEdge transfer, 50% KHopBudget 5-10 hops budget 100, zipf 1.2)",
			"loop":      "open", "rate_per_s": riskRate, "max_inflight": riskInflight,
			"accounts": riskAccounts, "base_edges": riskEdges,
			"gc_every": riskGCEvery.String(), "gc_batch": riskGCBatch, "replicas": 1,
		},
		options: riskOptions,
		setup:   setupRisk,
	})
}

func riskOptions() bg3.Options { return baseOptions() }

type riskIngest struct {
	base
	db     *bg3.DB
	rep    *bg3.Replica
	seed   int64
	phases int
}

func setupRisk(seed int64) (instance, error) {
	o := riskOptions()
	db, err := bg3.Open(&o)
	if err != nil {
		return nil, err
	}
	r := &riskIngest{base: base{m: newModel(graph.ETypeTransfer)}, db: db, seed: seed}
	edges := baseGraph(datasetSeed, riskAccounts, riskEdges)
	lat, err := bulkLoad(edges, graph.ETypeTransfer, 512, 4, db.ApplyBatch)
	if err == nil {
		r.m.load(edges)
		_, err = db.BuildEdgeBlocks()
	}
	if err == nil {
		r.rep, err = db.OpenReplica()
	}
	if err == nil {
		err = r.rep.Sync()
	}
	if err != nil {
		db.Close()
		return nil, err
	}
	s := db.Stats()
	r.info = map[string]any{"leaf_pages": s.Cache.Pages, "trees": s.Forest.Trees, "migrations": s.Forest.Migrations, "apply_batch_ms": lat.summary()}
	return r, nil
}

func (r *riskIngest) close() { r.db.Close() }

func (r *riskIngest) counters() counters {
	c := counters{}
	c.add(r.db.Metrics().Snapshot())
	c["gc.block_pinned"] = float64(r.db.Stats().GC.BlockPinned)
	return c
}

func (r *riskIngest) drive(d time.Duration, tr *tracer) (*loadStats, error) {
	r.phases++
	gen := workload.NewRiskControl(riskAccounts, r.seed).Clone(r.seed*1000 + int64(r.phases))
	ops := make([]workload.Op, int(riskRate*d.Seconds())+1)
	for i := range ops {
		ops[i] = gen.Next()
	}

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		r.gcLoop(tr, stop)
	}()
	var probes atomic.Int64
	var acked atomic.Int64

	st := openLoop(wallClock{}, riskRate, d, riskInflight, func(_ int, req uint64) (opKind, time.Time, error) {
		op := ops[req-1]
		root := tr.begin("request", -1, req)
		defer tr.end(root)
		if op.Kind == workload.OpAddEdge {
			s := &snapStore{r: r, tr: tr, parent: root, req: req}
			err := workload.Apply(s, op)
			if err == nil && tr != nil && acked.Add(1)%riskProbeEvery == 0 && probes.Load() < 4 {
				probes.Add(1)
				bg.Add(1)
				go func(e edgeKey, ack time.Time) {
					defer bg.Done()
					defer probes.Add(-1)
					r.probeReplica(tr, e, ack, req)
				}(edgeKey{op.Src, op.Dst}, time.Now())
			}
			return opWrite, time.Time{}, err
		}
		return r.traverse(op, tr, root, req)
	})
	close(stop)
	bg.Wait()
	return st, nil
}

// traverse runs one Table-1 traversal through workload.Apply on a pinned
// snapshot, every hop a child span, and checks every hop's read against
// the model's view of that snapshot.
func (r *riskIngest) traverse(op workload.Op, tr *tracer, root int, req uint64) (opKind, time.Time, error) {
	t0 := r.m.now()
	sp := tr.begin("bg3.Snapshot", root, req)
	snap := r.db.Snapshot()
	tr.end(sp)
	t1 := r.m.now()
	held := tr.begin("bg3.Snapshot.held", root, req)
	s := &snapStore{r: r, tr: tr, parent: root, req: req, snap: snap}
	trav := tr.begin("graph.KHopBudget", held, req)
	s.parent = trav
	err := workload.Apply(s, op)
	tr.end(trav)
	done := time.Now()
	tr.sample("graph.neighbors_per_traversal", float64(len(s.reads)))
	if err != nil {
		snap.Close()
		tr.end(held)
		return opRead, done, err
	}
	c, cerr := r.m.newCut(t0, t1, func(e edgeKey) (bool, error) {
		_, ok, err := snap.GetEdge(e.src, r.m.etype, e.dst)
		return ok, err
	})
	snap.Close()
	tr.end(held)
	if cerr != nil {
		r.checked(cerr)
		return opRead, done, nil
	}
	for _, rd := range s.reads {
		r.checked(r.m.checkCut(c, rd.src, rd.got, rd.limit, rd.stopped))
	}
	return opRead, done, nil
}

// gcLoop calls RunGC on a fixed period until stop.
func (r *riskIngest) gcLoop(tr *tracer, stop <-chan struct{}) {
	t := time.NewTicker(riskGCEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		sp := tr.begin("bg3.RunGC", -1, 0)
		if _, err := r.db.RunGC(riskGCBatch); err != nil {
			r.checked(err)
		}
		tr.end(sp)
	}
}

// probeReplica measures how long after its acknowledgement an edge becomes
// visible on the replica.
func (r *riskIngest) probeReplica(tr *tracer, e edgeKey, ack time.Time, req uint64) {
	sp := tr.begin("replica.probe", -1, req)
	defer tr.end(sp)
	deadline := ack.Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok, err := r.rep.GetEdge(e.src, r.m.etype, e.dst); err == nil && ok {
			tr.sample("replication.lag_ms", ms(time.Since(ack)))
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	r.checked(errReplicaLag)
}

func (r *riskIngest) audit() auditResult {
	if err := r.rep.Sync(); err != nil {
		return auditResult{Error: "replica sync: " + err.Error()}
	}
	return r.auditAll(auditTarget{"leader", r.db}, auditTarget{"replica", r.rep})
}

type hopRead struct {
	src     graph.VertexID
	got     []graph.VertexID
	limit   int
	stopped bool
}

// snapStore is the graph.Store workload.Apply drives for one risk-ingest
// request: reads go to the request's pinned snapshot, writes to the DB.
type snapStore struct {
	r      *riskIngest
	tr     *tracer
	parent int
	req    uint64
	snap   *bg3.Snapshot
	reads  []hopRead
}

func (s *snapStore) Neighbors(src graph.VertexID, typ graph.EdgeType, limit int, fn func(graph.VertexID, graph.Properties) bool) error {
	sp := s.tr.begin("bg3.Neighbors", s.parent, s.req)
	rd := hopRead{src: src, limit: limit}
	err := s.snap.Neighbors(src, typ, limit, func(d graph.VertexID, p graph.Properties) bool {
		rd.got = append(rd.got, d)
		if !fn(d, p) {
			rd.stopped = true
			return false
		}
		return true
	})
	s.tr.end(sp)
	if limit > 0 && len(rd.got) >= limit {
		rd.stopped = true
	}
	s.tr.sample("graph.edges_per_read", float64(len(rd.got)))
	s.reads = append(s.reads, rd)
	return err
}

func (s *snapStore) AddEdge(e graph.Edge) error {
	w := s.r.m.begin([]edgeKey{{e.Src, e.Dst}}, false)
	sp := s.tr.begin("bg3.AddEdge", s.parent, s.req)
	err := s.r.db.AddEdge(e)
	s.tr.end(sp)
	s.r.m.finish(w, err)
	if err == nil {
		s.r.written.Add(1)
	}
	return err
}

func (s *snapStore) GetVertex(graph.VertexID, graph.VertexType) (graph.Vertex, bool, error) {
	return graph.Vertex{}, false, errUnused
}
func (s *snapStore) GetEdge(graph.VertexID, graph.EdgeType, graph.VertexID) (graph.Edge, bool, error) {
	return graph.Edge{}, false, errUnused
}
func (s *snapStore) Degree(graph.VertexID, graph.EdgeType) (int, error) { return 0, errUnused }
func (s *snapStore) AddVertex(graph.Vertex) error                       { return errUnused }
func (s *snapStore) DeleteEdge(graph.VertexID, graph.EdgeType, graph.VertexID) error {
	return errUnused
}
