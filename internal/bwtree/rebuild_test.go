package bwtree

import (
	"fmt"
	"testing"

	"bg3/internal/storage"
)

// TestRebuildRetriesTornInnerFlush: Rebuild persists fresh inner nodes,
// and a torn append there is retried like every other flush instead of
// failing the recovery.
func TestRebuildRetriesTornInnerFlush(t *testing.T) {
	plan := storage.NewFaultPlan(storage.FaultConfig{Seed: 1})
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16, Faults: plan})
	cfg := Config{FlushMode: FlushAsync, MaxPageEntries: 8}
	tr, err := New(NewMapping(0, false), st, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	leaves := tr.LeafDirectory()
	if len(leaves) < 2 {
		t.Fatalf("want several leaves, got %d", len(leaves))
	}
	m := NewMapping(0, false)
	for _, lf := range leaves {
		m.EnsureIDsBeyond(lf.Page, tr.ID())
	}

	plan.TearNext()
	rt, err := Rebuild(m, st, cfg, nil, tr.ID(), leaves)
	if err != nil {
		t.Fatalf("Rebuild after a torn inner append: %v", err)
	}
	if got, err := rt.Len(); err != nil || got != n {
		t.Fatalf("rebuilt tree holds %d keys (err %v), want %d", got, err, n)
	}
}
