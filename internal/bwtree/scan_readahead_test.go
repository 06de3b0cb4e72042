package bwtree

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"bg3/internal/storage"
)

// newColdTwoLeafTree builds a sync-flushed tree of exactly two leaves,
// drops every leaf's resident content so each scan pays a demand load, and
// returns the tree with its leftmost leaf.
func newColdTwoLeafTree(t *testing.T) (*Tree, *pageEntry) {
	t.Helper()
	tr, _ := newTestTree(t, Config{MaxPageEntries: 8})
	for i := 0; i < 12; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	left := tr.route([]byte{})
	right := tr.m.get(left.next)
	if left.next == 0 || right == nil || right.next != 0 {
		t.Fatalf("want exactly two leaves, got left.next=%d", left.next)
	}
	for _, e := range []*pageEntry{left, right} {
		e.mu.Lock()
		if e.baseLoc.IsZero() {
			e.mu.Unlock()
			t.Fatalf("leaf %d was never persisted", e.id)
		}
		e.cached = nil
		e.mu.Unlock()
	}
	return tr, left
}

// fillReadahead occupies every read-ahead slot, so any launch is rejected
// and counted synchronously instead of racing a prefetch goroutine.
func fillReadahead(tr *Tree) {
	for len(tr.prefetchSem) < cap(tr.prefetchSem) {
		tr.prefetchSem <- struct{}{}
	}
}

// TestScanFenceStop: a scan whose bound is the first leaf's high fence
// reads that leaf only — it neither visits nor prefetches the right
// sibling, which cannot hold a key in range.
func TestScanFenceStop(t *testing.T) {
	tr, left := newColdTwoLeafTree(t)
	fillReadahead(tr)
	_, missesBefore := tr.m.CacheStats()

	var got []string
	err := tr.Scan(nil, left.hi, 0, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || bytes.Compare([]byte(got[len(got)-1]), left.hi) >= 0 {
		t.Fatalf("scan below the fence %q delivered %v", left.hi, got)
	}
	if _, misses := tr.m.CacheStats(); misses-missesBefore != 1 {
		t.Fatalf("leaf loads = %d, want 1", misses-missesBefore)
	}
	if n := tr.m.ReadaheadRejected(); n != 0 {
		t.Fatalf("read-ahead launches = %d, want 0", n)
	}
}

// TestScanEarlyReadahead: a cold scan that runs past the first leaf's
// fence starts the right sibling's read-ahead before loading the first
// leaf. The first leaf's durable location is broken, so its load fails:
// the sibling can only have been prefetched by a launch made before it.
func TestScanEarlyReadahead(t *testing.T) {
	tr, left := newColdTwoLeafTree(t)
	right := tr.m.get(left.next)
	left.mu.Lock()
	left.baseLoc = storage.Loc{Stream: left.baseLoc.Stream, Extent: 1 << 30, Length: 1}
	left.deltaLocs = nil
	left.mu.Unlock()

	if err := tr.Scan(nil, nil, 0, func(k, v []byte) bool { return true }); err == nil {
		t.Fatal("scan over an unreadable leaf succeeded")
	}
	for len(tr.prefetchSem) != 0 {
		runtime.Gosched() // let the read-ahead finish
	}
	if issued, _ := tr.m.ReadaheadStats(); issued != 1 {
		t.Fatalf("read-ahead loads = %d, want 1", issued)
	}
	right.mu.Lock()
	resident := right.cached != nil
	right.mu.Unlock()
	if !resident {
		t.Fatal("right sibling not resident after its read-ahead")
	}
}

// TestScanReadaheadLaunchedOnce: the early launch covers the sibling, so
// the post-load launch point does not repeat it.
func TestScanReadaheadLaunchedOnce(t *testing.T) {
	tr, _ := newColdTwoLeafTree(t)
	fillReadahead(tr)
	n := 0
	if err := tr.Scan(nil, nil, 0, func(k, v []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 12 {
		t.Fatalf("scan delivered %d keys, want 12", n)
	}
	if got := tr.m.ReadaheadRejected(); got != 1 {
		t.Fatalf("read-ahead launches = %d, want 1", got)
	}
}
