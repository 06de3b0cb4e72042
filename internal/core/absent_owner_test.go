package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"bg3/internal/bwtree"
	"bg3/internal/graph"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

func countNeighbors(t *testing.T, e *Engine, src graph.VertexID) int {
	t.Helper()
	n := 0
	if err := e.Neighbors(src, graph.ETypeFollow, 0, func(graph.VertexID, graph.Properties) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestFirstEdgeVisibleAfterAck races readers against each vertex's first
// AddEdge: a read that starts after the write returned must see the edge,
// even though a read that started before it was answered from the owner
// directory without touching a tree. Run under -race.
func TestFirstEdgeVisibleAfterAck(t *testing.T) {
	e, err := New(Options{Tree: bwtree.Config{MaxPageEntries: 8}, SplitThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const owners = 300
	var acked [owners]atomic.Bool
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i += 7 {
				select {
				case <-stop:
					return
				default:
				}
				v := i % owners
				src := graph.VertexID(v + 1)
				wasAcked := acked[v].Load()
				n := 0
				err := e.Neighbors(src, graph.ETypeFollow, 0, func(graph.VertexID, graph.Properties) bool { n++; return true })
				_, found, gerr := e.GetEdge(src, graph.ETypeFollow, 1)
				if err == nil {
					err = gerr
				}
				if err == nil && wasAcked && (n != 1 || !found) {
					err = fmt.Errorf("vertex %d after ack: %d neighbors, GetEdge found=%v", src, n, found)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	for v := 0; v < owners; v++ {
		if err := e.AddEdge(graph.Edge{Src: graph.VertexID(v + 1), Dst: 1, Type: graph.ETypeFollow}); err != nil {
			t.Fatal(err)
		}
		acked[v].Store(true)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRecoveredForestReadsInitOwners: a recovered forest does not know
// which owners live in the shared INIT tree, so it must not answer their
// reads from the owner directory. Owners written before the snapshot and
// in the replayed WAL suffix all stay readable.
func TestRecoveredForestReadsInitOwners(t *testing.T) {
	st := storage.Open(nil)
	w := wal.NewWriter(st)
	treeCfg := bwtree.Config{FlushMode: bwtree.FlushAsync, MaxPageEntries: 8}
	e, err := NewWithStore(st, Options{
		Tree:   treeCfg,
		Logger: loggerFunc(func(rec *wal.Record) (wal.LSN, error) { return w.Append(rec) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	addEdges := func(src graph.VertexID, n int) {
		for dst := 1; dst <= n; dst++ {
			if err := e.AddEdge(graph.Edge{Src: src, Dst: graph.VertexID(dst), Type: graph.ETypeFollow}); err != nil {
				t.Fatal(err)
			}
		}
	}
	addEdges(1, 3)
	addEdges(2, 5)
	if _, err := e.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	state := e.SnapshotState()
	horizon := w.NextLSN() - 1
	addEdges(3, 2) // only in the WAL suffix
	e.Close()

	recovered, err := RecoverWithStore(st, Options{Tree: treeCfg}, state)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if _, err := recovered.ReplayWAL(wal.NewReader(st), horizon); err != nil {
		t.Fatal(err)
	}
	for src, want := range map[graph.VertexID]int{1: 3, 2: 5, 3: 2, 4: 0} {
		if got := countNeighbors(t, recovered, src); got != want {
			t.Errorf("recovered Neighbors(%d) = %d edges, want %d", src, got, want)
		}
	}
	if n := recovered.Forest().Stats().AbsentReads; n != 0 {
		t.Errorf("recovered forest answered %d reads from its inexact directory", n)
	}
}
