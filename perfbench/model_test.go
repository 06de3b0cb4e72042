package main

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"bg3/internal/graph"
)

// mapStore is an adjacency map standing in for the database.
type mapStore map[graph.VertexID][]graph.VertexID

func (s mapStore) add(src, dst graph.VertexID) {
	s[src] = append(s[src], dst)
	sort.Slice(s[src], func(i, j int) bool { return s[src][i] < s[src][j] })
}

func (s mapStore) Neighbors(src graph.VertexID, _ graph.EdgeType, limit int, fn func(graph.VertexID, graph.Properties) bool) error {
	for i, d := range s[src] {
		if limit > 0 && i >= limit {
			break
		}
		if !fn(d, nil) {
			break
		}
	}
	return nil
}

func loadedModel(t *testing.T) (*model, mapStore) {
	t.Helper()
	m := newModel(graph.ETypeFollow)
	db := mapStore{}
	edges := baseGraph(7, 200, 2000)
	m.load(edges)
	for _, e := range edges {
		if n := db[e.src]; len(n) == 0 || !containsDst(n, e.dst) {
			db.add(e.src, e.dst)
		}
	}
	return m, db
}

func containsDst(ds []graph.VertexID, d graph.VertexID) bool {
	for _, x := range ds {
		if x == d {
			return true
		}
	}
	return false
}

// dropFromModel deletes one edge from the model, as a model that lost
// track of a write would.
func dropFromModel(m *model, e edgeKey) {
	s := m.stripe(e.src)
	recs := s.adj[e.src]
	for i, r := range recs {
		if r.dst == e.dst {
			s.adj[e.src] = append(recs[:i], recs[i+1:]...)
			return
		}
	}
}

func TestAuditCatchesDroppedEdge(t *testing.T) {
	m, db := loadedModel(t)
	if bad, err := m.audit(db, 4); bad != 0 || err != nil {
		t.Fatalf("clean audit: %d mismatches, %v", bad, err)
	}
	var victim edgeKey
	for src, ds := range db {
		victim = edgeKey{src, ds[len(ds)/2]}
		break
	}
	dropFromModel(m, victim)
	bad, err := m.audit(db, 4)
	if bad != 1 || err == nil {
		t.Fatalf("audit after dropping %v from the model: %d mismatches, %v", victim, bad, err)
	}
}

func TestAuditChecksAckedPresentAndFailedAbsent(t *testing.T) {
	m, db := loadedModel(t)
	ok := m.begin([]edgeKey{{1, 5001}, {2, 5002}}, true)
	m.finish(ok, nil)
	lost := m.begin([]edgeKey{{3, 5003}}, false)
	m.finish(lost, errors.New("refused"))

	// The acknowledged batch is missing from the database.
	if bad, _ := m.audit(db, 2); bad != 2 {
		t.Fatalf("acked batch absent: %d mismatches, want 2", bad)
	}
	db.add(1, 5001)
	db.add(2, 5002)
	if bad, err := m.audit(db, 2); bad != 0 {
		t.Fatalf("acked batch present: %d mismatches, %v", bad, err)
	}
	// The failed write shows up anyway.
	db.add(3, 5003)
	if bad, _ := m.audit(db, 2); bad != 1 {
		t.Fatalf("failed write present: %d mismatches, want 1", bad)
	}
}

func TestAuditRefusesOpenWrites(t *testing.T) {
	m, db := loadedModel(t)
	m.begin([]edgeKey{{1, 9}}, false)
	if _, err := m.audit(db, 1); err == nil || !strings.Contains(err.Error(), "still open") {
		t.Fatalf("audit with an open write: %v", err)
	}
}

func TestCheckLive(t *testing.T) {
	m := newModel(graph.ETypeFollow)
	m.load([]edgeKey{{1, 10}, {1, 20}, {1, 30}})
	t0 := m.now()
	w := m.begin([]edgeKey{{1, 25}}, false)
	t1 := m.now()

	cases := []struct {
		name      string
		got       []graph.VertexID
		truncated bool
		ok        bool
	}{
		{"exact", []graph.VertexID{10, 20, 30}, false, true},
		{"with in-flight write", []graph.VertexID{10, 20, 25, 30}, false, true},
		{"limited prefix", []graph.VertexID{10, 20}, true, true},
		{"missing acked edge", []graph.VertexID{10, 30}, false, false},
		{"missing acked tail", []graph.VertexID{10, 20}, false, false},
		{"out of order", []graph.VertexID{20, 10, 30}, false, false},
		{"never written", []graph.VertexID{10, 20, 30, 40}, false, false},
	}
	for _, c := range cases {
		err := m.checkLive(1, c.got, c.truncated, t0, t1)
		if (err == nil) != c.ok {
			t.Errorf("%s: err=%v", c.name, err)
		}
	}
	m.finish(w, nil)
	// Acknowledged before the next read began: it must be there now.
	if err := m.checkLive(1, []graph.VertexID{10, 20, 30}, false, m.now(), m.now()); err == nil {
		t.Errorf("read missing an acknowledged write passed")
	}
}

func TestCutAndTornChecks(t *testing.T) {
	m := newModel(graph.ETypeFollow)
	m.load([]edgeKey{{1, 10}, {2, 10}})
	open := m.now()
	w := m.begin([]edgeKey{{1, 11}, {2, 11}}, true)
	pinned := m.now()
	m.finish(w, nil)

	// The snapshot shows the write on vertex 1 only: torn.
	half := func(e edgeKey) (bool, error) { return e.src == 1, nil }
	if err := m.checkTorn(pinned, 8, half); err == nil {
		t.Fatal("torn two-shard write passed")
	}
	all := func(edgeKey) (bool, error) { return true, nil }
	if err := m.checkTorn(pinned, 8, all); err != nil {
		t.Fatal(err)
	}
	// An exact snapshot check: the probe decides the in-doubt write.
	c, err := m.newCut(open, pinned, all)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.checkCut(c, 1, []graph.VertexID{10, 11}, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := m.checkCut(c, 1, []graph.VertexID{10}, 0, false); err == nil {
		t.Fatal("read missing a write the snapshot holds passed")
	}
	none, err := m.newCut(open, pinned, func(edgeKey) (bool, error) { return false, nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := m.checkCut(none, 1, []graph.VertexID{10}, 0, false); err != nil {
		t.Fatal(err)
	}
}
