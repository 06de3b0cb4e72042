package bwtree

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bg3/internal/storage"
	"bg3/internal/wal"
)

// WALLogger receives the tree's write-ahead records. The RW node of §3.4
// plugs a wal.Writer-backed implementation in; standalone trees leave it
// nil.
type WALLogger interface {
	Log(rec *wal.Record) (wal.LSN, error)
}

// AsyncWALLogger is an optional WALLogger extension for group commit: the
// LSN is assigned immediately (so the caller's page latch is held only for
// an instant) and the returned wait function blocks until the record is
// durable. The tree invokes the wait after releasing the page latch, which
// lets concurrent writers to the same page share one commit round trip
// instead of serializing on it.
type AsyncWALLogger interface {
	WALLogger
	LogAsync(rec *wal.Record) (wal.LSN, func() error)
}

// Stats is a snapshot of a tree's operation counters.
type Stats struct {
	Puts           int64
	Gets           int64
	Deletes        int64
	Consolidations int64
	Splits         int64
}

// Tree is one Bw-tree. Multiple trees (a forest) share a Mapping and a
// storage.Store. All methods are safe for concurrent use.
type Tree struct {
	id     TreeID
	store  *storage.Store
	m      *Mapping
	cfg    Config
	logger WALLogger

	// structMu guards the inner-node structure and root pointer: readers
	// (routing) take the read lock, splits take the write lock.
	structMu sync.RWMutex
	root     PageID

	puts           atomic.Int64
	gets           atomic.Int64
	deletes        atomic.Int64
	consolidations atomic.Int64
	splits         atomic.Int64

	// dirty pages awaiting the async flusher; nil in sync mode.
	dirtyMu  sync.Mutex
	dirtySet map[PageID]struct{}

	// prefetchSem bounds scan read-ahead goroutines in flight for this
	// tree (cap = cfg.ReadaheadLimit); launches that would exceed it are
	// dropped and counted in readahead_rejected.
	prefetchSem chan struct{}

	// blocks is the packed edge-block state (block.go); inert unless
	// cfg.EdgeBlockMinEntries is set.
	blocks blockState
}

// New creates an empty tree registered in m, persisting to store.
func New(m *Mapping, store *storage.Store, cfg Config, logger WALLogger) (*Tree, error) {
	cfg = cfg.withDefaults()
	t := &Tree{
		id:          m.allocTreeID(),
		store:       store,
		m:           m,
		cfg:         cfg,
		logger:      logger,
		prefetchSem: make(chan struct{}, cfg.ReadaheadLimit),
	}
	if cfg.FlushMode == FlushAsync {
		if cfg.NoCache {
			return nil, fmt.Errorf("bwtree: async flushing requires the page cache")
		}
		t.dirtySet = make(map[PageID]struct{})
	} else if cfg.Epochs != nil {
		// Sync flushing folds every op into a base inline, which cannot
		// honor a retention floor; the epoch clock rides the group-commit
		// (async) pipeline only.
		return nil, fmt.Errorf("bwtree: epoch clock requires async flushing")
	}
	rootEntry := &pageEntry{
		id:     m.allocPageID(),
		tree:   t,
		isLeaf: true,
		cached: make([]kv, 0),
	}
	m.register(rootEntry)
	t.root = rootEntry.id
	if logger != nil {
		if _, err := logger.Log(&wal.Record{
			Type: wal.RecordNewTree, TreeID: uint64(t.id), AuxPage: uint64(rootEntry.id),
		}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ID returns the tree's identifier.
func (t *Tree) ID() TreeID { return t.id }

// Config returns the tree's effective configuration.
func (t *Tree) Config() Config { return t.cfg }

// Stats returns a snapshot of the operation counters.
func (t *Tree) Stats() Stats {
	return Stats{
		Puts:           t.puts.Load(),
		Gets:           t.gets.Load(),
		Deletes:        t.deletes.Load(),
		Consolidations: t.consolidations.Load(),
		Splits:         t.splits.Load(),
	}
}

// covers reports whether e's key range contains key.
func (e *pageEntry) covers(key []byte) bool {
	if e.lo != nil && bytes.Compare(key, e.lo) < 0 {
		return false
	}
	if e.hi != nil && bytes.Compare(key, e.hi) >= 0 {
		return false
	}
	return true
}

// childIndex returns the index of the child covering key.
func (n *innerNode) childIndex(key []byte) int {
	return sort.Search(len(n.keys), func(i int) bool {
		return bytes.Compare(n.keys[i], key) > 0
	})
}

// route descends from the root to the leaf whose range covers key.
// The returned entry is unlatched; callers must latch it and re-check
// coverage (a racing split may have narrowed the leaf).
func (t *Tree) route(key []byte) *pageEntry {
	t.structMu.RLock()
	defer t.structMu.RUnlock()
	id := t.root
	for {
		e := t.m.get(id)
		if e == nil {
			panic(fmt.Sprintf("bwtree: dangling page %d in tree %d", id, t.id))
		}
		if e.isLeaf {
			return e
		}
		id = e.inner.children[e.inner.childIndex(key)]
	}
}

// latchLeaf routes to and latches the leaf covering key, chasing right
// siblings if a concurrent split moved the key. The caller must unlock the
// returned entry's mutex.
func (t *Tree) latchLeaf(key []byte) *pageEntry {
	for {
		e := t.route(key)
		e.mu.Lock()
		for !e.covers(key) {
			next := e.next
			e.mu.Unlock()
			if next == 0 {
				e = nil
				break
			}
			ne := t.m.get(next)
			if ne == nil {
				e = nil
				break
			}
			ne.mu.Lock()
			e = ne
		}
		if e != nil {
			return e
		}
	}
}

// searchKV binary-searches sorted entries for key.
func searchKV(entries []kv, key []byte) (int, bool) {
	idx := sort.Search(len(entries), func(i int) bool {
		return bytes.Compare(entries[i].key, key) >= 0
	})
	return idx, idx < len(entries) && bytes.Equal(entries[idx].key, key)
}

// applyOp applies one logical op to sorted content, returning the slice.
func applyOp(entries []kv, o op) []kv {
	idx, found := searchKV(entries, o.key)
	switch {
	case o.del && found:
		entries = append(entries[:idx], entries[idx+1:]...)
	case o.del:
		// deleting an absent key: no-op
	case found:
		entries[idx].val = o.val
	default:
		entries = append(entries, kv{})
		copy(entries[idx+1:], entries[idx:])
		entries[idx] = kv{key: o.key, val: o.val}
	}
	return entries
}

// mergeOps applies a batch of logical ops to sorted content in a single
// merge pass. Equivalent to folding applyOp over ops, but the per-op O(n)
// insertion memmoves made that the second-hottest site of cold-page
// materialization; here the batch is sorted once (newest op per key wins)
// and zipped with the entries. The input slice is not mutated; with an
// empty batch it is returned as-is.
func mergeOps(entries []kv, ops []op) []kv {
	switch len(ops) {
	case 0:
		return entries
	case 1:
		return applyOp(entries, ops[0])
	}
	sorted := make([]op, len(ops))
	copy(sorted, ops)
	sort.SliceStable(sorted, func(i, j int) bool {
		return bytes.Compare(sorted[i].key, sorted[j].key) < 0
	})
	dedup := sorted[:0]
	for i, o := range sorted {
		if i+1 < len(sorted) && bytes.Equal(sorted[i+1].key, o.key) {
			continue // a newer op for the same key follows
		}
		dedup = append(dedup, o)
	}
	out := make([]kv, 0, len(entries)+len(dedup))
	i, j := 0, 0
	for i < len(entries) && j < len(dedup) {
		switch c := bytes.Compare(entries[i].key, dedup[j].key); {
		case c < 0:
			out = append(out, entries[i])
			i++
		case c > 0:
			if !dedup[j].del {
				out = append(out, kv{key: dedup[j].key, val: dedup[j].val})
			}
			j++
		default:
			if !dedup[j].del {
				out = append(out, kv{key: entries[i].key, val: dedup[j].val})
			}
			i++
			j++
		}
	}
	out = append(out, entries[i:]...)
	for ; j < len(dedup); j++ {
		if !dedup[j].del {
			out = append(out, kv{key: dedup[j].key, val: dedup[j].val})
		}
	}
	return out
}

// loadDurable fetches and applies a page's durable images — the base page
// plus the delta chain at the given locations — through one batched storage
// call, so the base and delta round trips overlap instead of paying
// ReadLatency sequentially (base and delta live in different streams and
// therefore different extents). The returned read count is the logical
// fan-out Fig. 9 measures: one per Loc — the traditional policy pays 1+n,
// the read-optimized policy at most 2 — regardless of how many round trips
// the batch coalesced them into.
func (t *Tree) loadDurable(pageID PageID, base storage.Loc, deltas []storage.Loc) ([]kv, int, error) {
	nlocs := len(deltas)
	if !base.IsZero() {
		nlocs++
	}
	if nlocs == 0 {
		return make([]kv, 0), 0, nil
	}
	locs := make([]storage.Loc, 0, nlocs)
	if !base.IsZero() {
		locs = append(locs, base)
	}
	locs = append(locs, deltas...)
	bufs, err := t.store.ReadBatch(locs)
	if err != nil {
		return nil, nlocs, fmt.Errorf("bwtree: read page %d: %w", pageID, err)
	}
	entries := make([]kv, 0)
	i := 0
	if !base.IsZero() {
		entries, err = decodeLeaf(bufs[0])
		if err != nil {
			return nil, nlocs, err
		}
		i = 1
	}
	for ; i < len(bufs); i++ {
		ops, err := decodeOps(bufs[i])
		if err != nil {
			return nil, nlocs, err
		}
		entries = mergeOps(entries, ops)
	}
	return entries, nlocs, nil
}

// materialize returns the page's full content, reading the base page and
// durable delta records from storage on a cache miss, plus the number of
// storage reads issued (0 on a cache hit). e.mu must be held for the whole
// call; the write path and splits use it because they cannot let go of the
// latch mid-update. Readers use materializeShared instead, which drops the
// latch during the storage round trip. The returned slice is resident in
// the cache unless the cache is disabled, in which case it is a transient
// copy owned by the caller.
func (t *Tree) materialize(e *pageEntry) ([]kv, int, error) {
	if e.cached != nil {
		t.m.hits.Add(1)
		t.m.touch(e)
		return e.cached, 0, nil
	}
	t.m.misses.Add(1)
	entries, reads, err := t.loadDurable(e.id, e.baseLoc, e.deltaLocs)
	if err != nil {
		return nil, reads, err
	}
	// Clip to the page's range: durable deltas written before a split can
	// carry ops beyond a since-narrowed hi (the right sibling owns those
	// keys), and resurrecting them here would hand phantom out-of-range
	// keys to scans and the split separator choice.
	entries = clipRangeView(mergeOps(entries, e.pending), e.lo, e.hi)
	e.cached = entries
	t.m.noteCached(e) // clears e.cached again when the cache is disabled
	return entries, reads, nil
}

// materializeShared is the Get/Scan-path materialization: on a cache miss
// it releases the page latch for the duration of the storage round trip and
// coalesces with every other reader missing on the same page, so N
// concurrent cold reads of one page cost one set of storage reads instead
// of N serialized behind the latch.
//
// e.mu is held on entry and on return, but NOT across the load, so the
// entry's range may change while the flight runs — callers must re-validate
// anything derived from the entry beforehand (Get re-checks key coverage).
// Correctness of the install is guarded by snapshot validation: the flight
// records the (base, deltas) locations it read, and a member only installs
// the result if the entry still carries exactly those locations when it
// re-latches; otherwise it retries with a fresh snapshot, falling back to a
// fully latched load after a few failed rounds so progress is guaranteed.
func (t *Tree) materializeShared(e *pageEntry) ([]kv, int, error) {
	if e.cached != nil {
		t.m.hits.Add(1)
		t.m.touch(e)
		return e.cached, 0, nil
	}
	t.m.misses.Add(1)
	start := time.Now()
	if !t.m.disabled {
		for attempt := 0; attempt < 3; attempt++ {
			base := e.baseLoc
			deltas := append([]storage.Loc(nil), e.deltaLocs...)
			e.mu.Unlock()
			f, leader := t.m.joinFlight(e.id, base, deltas)
			if leader {
				f.entries, f.reads, f.err = t.loadDurable(e.id, f.base, f.deltas)
				t.m.finishFlight(e.id, f)
			} else {
				t.m.coalesced.Add(1)
				<-f.done
			}
			e.mu.Lock()
			if e.cached != nil {
				// Another flight member (or a writer) installed content
				// while we were away; our storage reads, if any, are moot.
				t.m.materializeLat.Observe(time.Since(start))
				t.m.touch(e)
				return e.cached, 0, nil
			}
			if f.err != nil {
				// Transient by design: a GC relocation can invalidate the
				// snapshot's locations mid-flight. Retry against the
				// repointed entry; a persistent error surfaces through the
				// latched fallback below.
				continue
			}
			if e.baseLoc != f.base || !locsEqual(e.deltaLocs, f.deltas) {
				continue // durable state moved on; the flight's content is stale
			}
			entries := clipRangeView(mergeOps(f.entries, e.pending), e.lo, e.hi)
			e.cached = entries
			t.m.noteCached(e)
			t.m.materializeLat.Observe(time.Since(start))
			reads := 0
			if leader {
				reads = f.reads
			}
			return entries, reads, nil
		}
	}
	// Latched load: no coalescing, but no snapshot to invalidate either.
	// This is the only path when the cache is disabled (a flight would be
	// pointless — nothing gets installed for others to reuse).
	entries, reads, err := t.loadDurable(e.id, e.baseLoc, e.deltaLocs)
	if err != nil {
		return nil, reads, err
	}
	entries = clipRangeView(mergeOps(entries, e.pending), e.lo, e.hi)
	e.cached = entries
	t.m.noteCached(e)
	t.m.materializeLat.Observe(time.Since(start))
	return entries, reads, nil
}

func locsEqual(a, b []storage.Loc) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Get returns the value stored under key.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	return t.GetAt(key, horizonAll)
}

// Put upserts a key-value pair.
func (t *Tree) Put(key, value []byte) error {
	t.puts.Add(1)
	_, err := t.write(op{key: append([]byte(nil), key...), val: append([]byte(nil), value...)}, false)
	return err
}

// PutEx upserts a key-value pair and reports whether the key already
// existed — callers that maintain size accounting (the forest) must not
// count an upsert as growth.
func (t *Tree) PutEx(key, value []byte) (existed bool, err error) {
	t.puts.Add(1)
	return t.write(op{key: append([]byte(nil), key...), val: append([]byte(nil), value...)}, true)
}

// Delete removes key. Deleting an absent key is not an error.
func (t *Tree) Delete(key []byte) error {
	t.deletes.Add(1)
	_, err := t.write(op{del: true, key: append([]byte(nil), key...)}, false)
	return err
}

// DeleteEx removes key and reports whether it was present.
func (t *Tree) DeleteEx(key []byte) (existed bool, err error) {
	t.deletes.Add(1)
	return t.write(op{del: true, key: append([]byte(nil), key...)}, true)
}

// PutExDeferred upserts like PutEx but, when the logger commits
// asynchronously, appends the record's durability wait to waits instead of
// blocking — the batched-mutation path. The caller applies a whole group of
// writes back to back and drains the waits once, so every record is already
// enqueued before the first wait starts and the group shares storage
// appends. The write is NOT durable until its wait returns nil.
func (t *Tree) PutExDeferred(key, value []byte, waits *[]func() error) (existed bool, err error) {
	t.puts.Add(1)
	return t.writeWith(op{key: append([]byte(nil), key...), val: append([]byte(nil), value...)}, true, waits)
}

// DeleteExDeferred removes like DeleteEx with PutExDeferred's deferred
// durability contract.
func (t *Tree) DeleteExDeferred(key []byte, waits *[]func() error) (existed bool, err error) {
	t.deletes.Add(1)
	return t.writeWith(op{del: true, key: append([]byte(nil), key...)}, true, waits)
}

func (t *Tree) write(o op, track bool) (existed bool, err error) {
	return t.writeWith(o, track, nil)
}

func (t *Tree) writeWith(o op, track bool, waits *[]func() error) (existed bool, err error) {
	e := t.latchLeaf(o.key)
	needSplit, existed, wait, err := t.applyWrite(e, o, track)
	id := e.id
	e.mu.Unlock()
	if err != nil {
		return existed, err
	}
	if wait != nil {
		if waits != nil {
			// Deferred durability: the caller collects waits across a batch
			// and drains them together.
			*waits = append(*waits, wait)
		} else if err := wait(); err != nil {
			// Group commit: block for WAL durability only after releasing the
			// page latch so concurrent same-page writers batch together.
			return existed, err
		}
	}
	if needSplit {
		if err := t.splitPage(id); err != nil {
			return existed, err
		}
	}
	t.maybeSpawnEdgeBlockBuild()
	return existed, nil
}

// opsExistence resolves key's presence from a delta-op chain alone: the
// newest op for the key wins. known is false when the chain never mentions
// the key and the base page must be consulted.
func opsExistence(ops []op, key []byte) (exists, known bool) {
	for i := len(ops) - 1; i >= 0; i-- {
		if bytes.Equal(ops[i].key, key) {
			return !ops[i].del, true
		}
	}
	return false, false
}

// applyWrite performs Algorithm 1 on a latched leaf. It returns true when
// the page outgrew MaxPageEntries and should split (the caller performs the
// split after releasing the latch, since splits take the structure lock),
// whether the key existed before the write (only resolved when track is
// set — resolution can cost a page materialization), plus a non-nil
// durability wait when the logger commits asynchronously.
func (t *Tree) applyWrite(e *pageEntry, o op, track bool) (needSplit, existed bool, wait func() error, err error) {
	// Edge-block capture gate: must open before the LSN is assigned so a
	// block reader seeing no writer in flight knows every released op has
	// reached the overlay (block.go).
	gate := t.blockWriteEnter()

	// Write-ahead: the record enters the WAL (and receives its LSN) before
	// any page state changes (§3.4 step 2).
	if t.logger != nil {
		typ := wal.RecordPut
		if o.del {
			typ = wal.RecordDelete
		}
		rec := &wal.Record{
			Type: typ, TreeID: uint64(t.id), PageID: uint64(e.id), Key: o.key, Value: o.val,
		}
		if async, ok := t.logger.(AsyncWALLogger); ok {
			lsn, w := async.LogAsync(rec)
			if lsn == 0 {
				// Admission failed (stopped or poisoned committer, or an
				// oversized record): no LSN exists and nothing was enqueued,
				// so the write must fail before any page state changes. An
				// op stamped 0 would otherwise sit below every snapshot
				// horizon and leak an unlogged write into pinned reads.
				t.blockWriteExit(gate, o, false)
				return false, false, nil, w()
			}
			e.lsn = lsn
			o.lsn = lsn
			wait = w
		} else {
			lsn, err := t.logger.Log(rec)
			if err != nil {
				t.blockWriteExit(gate, o, false)
				return false, false, nil, err
			}
			e.lsn = lsn
			o.lsn = lsn
		}
	}

	if t.cfg.FlushMode == FlushAsync {
		needSplit, existed, err = t.applyWriteAsync(e, o, track)
	} else {
		needSplit, existed, err = t.applyWriteSync(e, o, track)
	}
	// Still under the page latch: the overlay append (when capturing)
	// keeps per-key LSN order, and the gate closes only after it.
	t.blockWriteExit(gate, o, err == nil)
	return needSplit, existed, wait, err
}

// applyWriteAsync applies the op in memory and defers persistence to the
// background flusher (group commit).
func (t *Tree) applyWriteAsync(e *pageEntry, o op, track bool) (bool, bool, error) {
	if _, _, err := t.materialize(e); err != nil {
		return false, false, err
	}
	existed := false
	if track {
		_, existed = searchKV(e.cached, o.key)
	}
	e.cached = applyOp(e.cached, o)
	e.pending = append(e.pending, o)
	e.dirty = true
	t.dirtyMu.Lock()
	t.dirtySet[e.id] = struct{}{}
	t.dirtyMu.Unlock()
	return !t.cfg.DisableSplit && len(e.cached) > t.cfg.MaxPageEntries, existed, nil
}

// applyWriteSync is Algorithm 1 with inline flushes.
func (t *Tree) applyWriteSync(e *pageEntry, o op, track bool) (bool, bool, error) {
	existed := false
	switch {
	case e.baseLoc.IsZero() && len(e.deltaOps) == 0:
		// Lines 2–8: the page has no durable image yet. Write the whole
		// (small) page as a fresh base.
		content := e.cached
		if content == nil {
			content = make([]kv, 0)
		}
		if track {
			_, existed = searchKV(content, o.key)
		}
		content = applyOp(content, o)
		needSplit, err := t.writeBaseLocked(e, content)
		return needSplit, existed, err

	case len(e.deltaOps)+1 > t.cfg.ConsolidateNum:
		// Lines 21–27: the chain is full; consolidate base+deltas+new op
		// into a fresh base page.
		content, _, err := t.materialize(e)
		if err != nil {
			return false, false, err
		}
		if track {
			_, existed = searchKV(content, o.key)
		}
		content = applyOp(content, o)
		t.consolidations.Add(1)
		needSplit, err := t.writeBaseLocked(e, content)
		return needSplit, existed, err

	default:
		if track {
			// Resolve existence as cheaply as possible: the cached image,
			// then the in-memory delta chain (newest op wins), and only if
			// neither mentions the key a full materialization.
			if e.cached != nil {
				_, existed = searchKV(e.cached, o.key)
			} else if ex, known := opsExistence(e.deltaOps, o.key); known {
				existed = ex
			} else {
				content, _, err := t.materialize(e)
				if err != nil {
					return false, false, err
				}
				_, existed = searchKV(content, o.key)
			}
		}
		if t.cfg.Policy == ReadOptimized {
			// Lines 19–31 (read-optimized): merge the existing delta with
			// the new op into a single delta record.
			merged := make([]op, 0, len(e.deltaOps)+1)
			merged = append(merged, e.deltaOps...)
			merged = append(merged, o)
			loc, err := t.store.Append(storage.StreamDelta, uint64(e.id), encodeOps(merged))
			if err != nil {
				return false, existed, err
			}
			for _, old := range e.deltaLocs {
				t.store.Invalidate(old)
			}
			e.deltaLocs = e.deltaLocs[:0]
			e.deltaLocs = append(e.deltaLocs, loc)
			e.deltaOps = merged
		} else {
			// Traditional: append one more delta to the chain.
			loc, err := t.store.Append(storage.StreamDelta, uint64(e.id), encodeOps([]op{o}))
			if err != nil {
				return false, existed, err
			}
			e.deltaLocs = append(e.deltaLocs, loc)
			e.deltaOps = append(e.deltaOps, o)
		}
		if e.cached != nil {
			e.cached = applyOp(e.cached, o)
		}
		return false, existed, nil
	}
}

// writeBaseLocked persists content as e's new base page, invalidates the
// old base and delta records, and resets the chain. e.mu must be held.
func (t *Tree) writeBaseLocked(e *pageEntry, content []kv) (bool, error) {
	loc, err := t.store.Append(storage.StreamBase, uint64(e.id), encodeLeaf(content))
	if err != nil {
		return false, err
	}
	if !e.baseLoc.IsZero() {
		t.store.Invalidate(e.baseLoc)
	}
	for _, old := range e.deltaLocs {
		t.store.Invalidate(old)
	}
	e.baseLoc = loc
	e.deltaLocs = nil
	e.deltaOps = nil
	e.cached = content
	e.stable = t.stableCopy(content) // the new base IS the fold point
	t.m.noteCached(e)
	return !t.cfg.DisableSplit && len(content) > t.cfg.MaxPageEntries, nil
}

// Len returns the total number of live keys (walks every leaf; intended
// for tests and small trees). When the tree has an epoch clock it counts
// under a pinned snapshot, so concurrent splits cannot double-count keys
// relocated rightward mid-walk.
func (t *Tree) Len() (int, error) {
	h := horizonAll
	if t.cfg.Epochs != nil {
		p := t.cfg.Epochs.Pin()
		defer p.Close()
		h = wal.LSN(p.Epoch())
	}
	n := 0
	err := t.ScanAt(nil, nil, 0, h, func(k, v []byte) bool { n++; return true })
	return n, err
}

// Scan iterates keys in [from, to) in order, invoking fn for each pair
// until fn returns false or limit pairs have been delivered (limit <= 0
// means unlimited). Each leaf is snapshotted under its latch and the latch
// released before callbacks run, so fn may safely re-enter the tree (e.g.
// a traversal that looks up the vertices it discovers). The callback must
// not retain its arguments.
func (t *Tree) Scan(from, to []byte, limit int, fn func(key, value []byte) bool) error {
	return t.ScanAt(from, to, limit, horizonAll, fn)
}

// ScanAt is Scan as of horizon h: every leaf's content is reconstructed
// at the same commit point, so the whole iteration observes one
// group-commit boundary. If a right sibling is unmapped mid-scan (its
// page was retired by a concurrent structural change), the scan re-routes
// from the last delivered key instead of silently truncating.
func (t *Tree) ScanAt(from, to []byte, limit int, h wal.LSN, fn func(key, value []byte) bool) error {
	if from == nil {
		from = []byte{}
	}
	// Block fast path: a packed super-vertex tree serves the whole scan
	// from its immutable sorted array plus the overlay patch (block.go).
	if blk, ov, ok := t.blockView(h); ok {
		return t.scanEdgeBlock(blk, ov, from, to, limit, h, fn)
	}
	// cursor is the resume point: the first key still owed to the caller
	// is the first key >= cursor (> cursor once started, because cursor
	// then names the last key already delivered).
	cursor := from
	started := false
	e := t.latchLeaf(cursor)
	delivered := 0
	var readahead PageID // right sibling whose read-ahead this scan launched
	for {
		// Early read-ahead: a cold leaf whose high fence the bound passes
		// starts its right sibling's load now, so the two storage round
		// trips overlap instead of running back to back.
		if e.cached == nil && e.scanPassesHi(to) && readahead != e.next {
			readahead = e.next
			t.launchPrefetch(readahead)
		}
		entries, reads, err := t.viewShared(e, h)
		if err != nil {
			e.mu.Unlock()
			return err
		}
		t.m.fanout.Observe(int64(reads))
		if e.prefetched {
			e.prefetched = false
			t.m.readaheadHits.Add(1)
		}
		start, found := searchKV(entries, cursor)
		if started && found {
			start++ // cursor itself was already delivered
		}
		// Snapshot only what this scan can still deliver: the upper bound
		// and the remaining limit both cap it. Graph traversals scan many
		// short adjacency ranges out of wide leaves, so copying the whole
		// leaf tail here dominated their scan cost.
		end := len(entries)
		if to != nil {
			if n, _ := searchKV(entries[start:], to); start+n < end {
				end = start + n
			}
		}
		if limit > 0 && end-start > limit-delivered {
			end = start + (limit - delivered)
		}
		if end < start {
			end = start
		}
		snapshot := append([]kv(nil), entries[start:end]...)
		// The scan ends here when the bound or the limit falls inside this
		// leaf, or when the bound is at or below the high fence (the fence
		// stop: no key of the right sibling can be in range, even when
		// this leaf holds no key at or beyond the bound).
		ended := end < len(entries) || !e.scanPassesHi(to)
		next := e.next
		e.mu.Unlock()

		// Read-ahead: warm the right sibling while this leaf's callbacks
		// run, overlapping the next cold materialization with consumption —
		// but only when the scan will actually get there, and only if the
		// early launch above did not already cover it (a split during the
		// load may have given the leaf a new right sibling).
		if !ended && next != readahead {
			readahead = next
			t.launchPrefetch(next)
		}

		for _, pair := range snapshot {
			if !fn(pair.key, pair.val) {
				return nil
			}
			cursor = pair.key
			started = true
			delivered++
		}
		if limit > 0 && delivered >= limit {
			return nil
		}
		if ended || next == 0 {
			return nil
		}
		ne := t.m.get(next)
		if ne == nil {
			// The right sibling was unmapped while the latch was down.
			// Earlier the scan silently ended here, truncating results;
			// re-route from the cursor instead — every key at or below it
			// was already delivered, so the restart is exactly-once.
			t.m.scanRestarts.Add(1)
			e = t.latchLeaf(cursor)
			continue
		}
		ne.mu.Lock()
		e = ne
	}
}

// scanPassesHi reports whether a scan bounded above by to (nil: unbounded)
// can need keys of e's right sibling: e has one and to lies beyond e's
// high fence. e.mu must be held.
func (e *pageEntry) scanPassesHi(to []byte) bool {
	return e.next != 0 && (to == nil || (e.hi != nil && bytes.Compare(to, e.hi) > 0))
}

// launchPrefetch starts a read-ahead goroutine for page id unless the
// per-tree in-flight cap is already saturated, in which case the launch is
// dropped (and counted): scan speed never creates unbounded goroutine
// pileups against cold storage.
func (t *Tree) launchPrefetch(id PageID) {
	select {
	case t.prefetchSem <- struct{}{}:
		go func() {
			defer func() { <-t.prefetchSem }()
			t.prefetch(id)
		}()
	default:
		t.m.readaheadRejected.Add(1)
	}
}

// prefetch warms the cache with leaf id's content ahead of a scan. Best
// effort on every axis: it gives up rather than contend for the latch, and
// it skips pages that are already resident. Read-ahead loads count in the
// readahead_* metrics but never in the hit/miss statistics — those track
// demand traffic only, so speculative loads cannot flatter the hit ratio.
func (t *Tree) prefetch(id PageID) {
	if t.m.disabled {
		return
	}
	e := t.m.get(id)
	if e == nil || !e.isLeaf {
		return
	}
	if !e.mu.TryLock() {
		return
	}
	defer e.mu.Unlock()
	if e.cached != nil {
		return
	}
	t.m.readaheadIssued.Add(1)
	entries, _, err := t.loadDurable(e.id, e.baseLoc, e.deltaLocs)
	if err != nil {
		return
	}
	e.cached = clipRangeView(mergeOps(entries, e.pending), e.lo, e.hi)
	e.prefetched = true
	t.m.noteCached(e)
}

// logStructural appends a structural WAL record, deferring the durability
// wait into waits when the logger supports group commit — the structure
// lock is released before the caller blocks, so splits do not stall the
// whole tree for a commit round trip.
func (t *Tree) logStructural(rec *wal.Record, waits *[]func() error) (wal.LSN, error) {
	if async, ok := t.logger.(AsyncWALLogger); ok {
		lsn, w := async.LogAsync(rec)
		if lsn == 0 {
			// Admission failed: surface the rejection now, before the
			// structural change mutates any in-memory state.
			return 0, w()
		}
		*waits = append(*waits, w)
		return lsn, nil
	}
	return t.logger.Log(rec)
}

// splitPage splits the (oversized) leaf id, updating parents and, when the
// root splits, growing the tree by one level. It re-checks the size under
// the structure lock, so spurious calls are harmless.
func (t *Tree) splitPage(id PageID) error {
	var waits []func() error
	err := t.splitPageLocked(id, &waits)
	for _, w := range waits {
		if werr := w(); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

func (t *Tree) splitPageLocked(id PageID, waits *[]func() error) error {
	t.structMu.Lock()
	defer t.structMu.Unlock()
	e := t.m.get(id)
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()

	content, _, err := t.materialize(e)
	if err != nil {
		return err
	}
	// Clip to the page's current range before choosing a separator.
	// Content is normally in-range, but a phantom key resurrected from a
	// stale durable delta (written before the flush path clipped retained
	// history) would sit at or beyond e.hi — and a separator chosen among
	// phantoms would create an empty-range sibling, permanently breaking
	// range scans over the leaf chain.
	content = clipRangeView(content, e.lo, e.hi)
	if len(content) <= t.cfg.MaxPageEntries {
		return nil // a concurrent split already handled it
	}

	mid := len(content) / 2
	sep := content[mid].key
	right := &pageEntry{
		id:     t.m.allocPageID(),
		tree:   t,
		isLeaf: true,
		lo:     sep,
		hi:     e.hi,
		next:   e.next,
	}
	rightContent := append([]kv(nil), content[mid:]...)
	leftContent := append([]kv(nil), content[:mid]...)

	// Carry the right range's history and stable image onto the new page
	// before any state moves, so pinned snapshots can still reconstruct
	// pre-split versions of keys that migrate right. (No-op without an
	// epoch clock or when the whole history is below the retention floor.)
	if err := t.seedRightHistory(e, right, sep, rightContent); err != nil {
		return err
	}

	if t.logger != nil {
		if _, err := t.logStructural(&wal.Record{
			Type: wal.RecordNewPage, TreeID: uint64(t.id), PageID: uint64(right.id),
		}, waits); err != nil {
			return err
		}
		lsn, err := t.logStructural(&wal.Record{
			Type: wal.RecordSplit, TreeID: uint64(t.id),
			PageID: uint64(e.id), AuxPage: uint64(right.id), Key: sep,
		}, waits)
		if err != nil {
			return err
		}
		e.lsn = lsn
		right.lsn = lsn
	}

	if t.cfg.FlushMode == FlushSync {
		// Persist both halves as fresh base pages immediately.
		rloc, err := t.store.Append(storage.StreamBase, uint64(right.id), encodeLeaf(rightContent))
		if err != nil {
			return err
		}
		right.baseLoc = rloc
		lloc, err := t.store.Append(storage.StreamBase, uint64(e.id), encodeLeaf(leftContent))
		if err != nil {
			return err
		}
		if !e.baseLoc.IsZero() {
			t.store.Invalidate(e.baseLoc)
		}
		for _, old := range e.deltaLocs {
			t.store.Invalidate(old)
		}
		e.baseLoc = lloc
		e.deltaLocs = nil
		e.deltaOps = nil
		e.stable = t.stableCopy(leftContent)
		right.stable = t.stableCopy(rightContent)
		// A sync split folds everything into fresh bases; drop any seeded
		// history so "stable + hist = content" still holds for the halves.
		right.pending = nil
	} else {
		// Dirty pages; the flusher rewrites both bases at the next group
		// commit (§3.4 step 7).
		e.dirty = true
		e.splitPending = true
		right.dirty = true
		right.splitPending = true
		t.dirtyMu.Lock()
		t.dirtySet[e.id] = struct{}{}
		t.dirtySet[right.id] = struct{}{}
		t.dirtyMu.Unlock()
	}

	e.cached = leftContent
	right.cached = rightContent
	e.hi = sep
	e.next = right.id
	t.m.register(right)
	t.m.noteCached(e)
	t.m.noteCached(right)
	t.splits.Add(1)

	return t.insertParent(e.id, sep, right.id, waits)
}

// insertParent inserts the separator (sep -> right) into the parent of
// leaf/inner page left, splitting inner nodes upward as needed. Caller
// holds structMu exclusively.
func (t *Tree) insertParent(left PageID, sep []byte, right PageID, waits *[]func() error) error {
	// Collect the path from root to the node `left` by routing on sep;
	// before the parent is updated, sep still routes into `left`'s subtree.
	var path []*pageEntry
	id := t.root
	for id != left {
		e := t.m.get(id)
		if e == nil || e.isLeaf {
			break
		}
		path = append(path, e)
		id = e.inner.children[e.inner.childIndex(sep)]
	}

	if len(path) == 0 {
		// left is the root: grow a new root.
		newRoot := &pageEntry{
			id:   t.m.allocPageID(),
			tree: t,
			inner: &innerNode{
				keys:     [][]byte{sep},
				children: []PageID{left, right},
			},
		}
		t.m.register(newRoot)
		t.root = newRoot.id
		if t.logger != nil {
			if _, err := t.logStructural(&wal.Record{
				Type: wal.RecordNewRoot, TreeID: uint64(t.id),
				PageID: uint64(left), AuxPage: uint64(newRoot.id),
			}, waits); err != nil {
				return err
			}
		}
		return t.flushInner(newRoot)
	}

	for lvl := len(path) - 1; lvl >= 0; lvl-- {
		parent := path[lvl]
		n := parent.inner
		idx := n.childIndex(sep)
		n.keys = append(n.keys, nil)
		copy(n.keys[idx+1:], n.keys[idx:])
		n.keys[idx] = sep
		n.children = append(n.children, 0)
		copy(n.children[idx+2:], n.children[idx+1:])
		n.children[idx+1] = right
		if err := t.flushInner(parent); err != nil {
			return err
		}
		if len(n.children) <= t.cfg.MaxInnerEntries {
			return nil
		}
		// Split the inner node and continue upward with the promoted key.
		mid := len(n.keys) / 2
		promoted := n.keys[mid]
		rightInner := &pageEntry{
			id:   t.m.allocPageID(),
			tree: t,
			inner: &innerNode{
				keys:     append([][]byte(nil), n.keys[mid+1:]...),
				children: append([]PageID(nil), n.children[mid+1:]...),
			},
		}
		n.keys = n.keys[:mid]
		n.children = n.children[:mid+1]
		t.m.register(rightInner)
		if err := t.flushInner(parent); err != nil {
			return err
		}
		if err := t.flushInner(rightInner); err != nil {
			return err
		}
		sep, right = promoted, rightInner.id
		if lvl == 0 {
			// The root inner node split: grow a new root above it.
			newRoot := &pageEntry{
				id:   t.m.allocPageID(),
				tree: t,
				inner: &innerNode{
					keys:     [][]byte{sep},
					children: []PageID{parent.id, right},
				},
			}
			t.m.register(newRoot)
			t.root = newRoot.id
			if t.logger != nil {
				if _, err := t.logger.Log(&wal.Record{
					Type: wal.RecordNewRoot, TreeID: uint64(t.id),
					PageID: uint64(parent.id), AuxPage: uint64(newRoot.id),
				}); err != nil {
					return err
				}
			}
			return t.flushInner(newRoot)
		}
	}
	return nil
}

// flushInner persists an inner node's image. Inner nodes change only
// during splits, so they are flushed synchronously in both flush modes.
func (t *Tree) flushInner(e *pageEntry) error {
	loc, err := t.flushAppend(storage.StreamBase, uint64(e.id), encodeInner(e.inner))
	if err != nil {
		return err
	}
	// GC relocation (Mapping.Relocate) repoints inner.loc under e.mu.
	e.mu.Lock()
	old := e.inner.loc
	e.inner.loc = loc
	e.mu.Unlock()
	if !old.IsZero() {
		t.store.Invalidate(old)
	}
	return nil
}

// Height returns the number of levels in the tree (1 = a single leaf).
func (t *Tree) Height() int {
	t.structMu.RLock()
	defer t.structMu.RUnlock()
	h := 1
	id := t.root
	for {
		e := t.m.get(id)
		if e == nil || e.isLeaf {
			return h
		}
		h++
		id = e.inner.children[0]
	}
}
