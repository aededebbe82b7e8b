package core

import (
	"bytes"
	"testing"

	"bmeh/internal/datapage"
	"bmeh/internal/dirnode"
	"bmeh/internal/pagestore"
	"bmeh/internal/params"
	"bmeh/internal/workload"
)

// checkCacheCoherence verifies that every decoded-cache entry agrees
// byte-for-byte with a fresh decode of its page from the store: the
// write-through and invalidation discipline must never let a cached object
// drift from the committed bytes. Deferred in-place inserts are flushed
// first — a dirty page is *supposed* to be ahead of its bytes, and the
// invariant under test is that flushing reconciles the two exactly.
func checkCacheCoherence(t *testing.T, tr *Tree) {
	t.Helper()
	if err := tr.FlushDirtyPages(); err != nil {
		t.Fatalf("flushing dirty pages: %v", err)
	}
	nbuf := make([]byte, tr.st.PageSize())
	cbuf := make([]byte, tr.st.PageSize())
	tr.nc.forEach(func(id pagestore.PageID, n *dirnode.Node) {
		fresh, err := tr.nodes.Read(id)
		if err != nil {
			t.Fatalf("cached node %d unreadable from store: %v", id, err)
		}
		cn, err := n.Encode(cbuf)
		if err != nil {
			t.Fatalf("encoding cached node %d: %v", id, err)
		}
		fn, err := fresh.Encode(nbuf)
		if err != nil {
			t.Fatalf("encoding stored node %d: %v", id, err)
		}
		if !bytes.Equal(cbuf[:cn], nbuf[:fn]) {
			t.Fatalf("node %d: decoded cache diverged from page bytes", id)
		}
	})
	tr.pc.forEach(func(id pagestore.PageID, p *datapage.Page) {
		fresh, err := tr.pages.Read(id)
		if err != nil {
			t.Fatalf("cached page %d unreadable from store: %v", id, err)
		}
		cn, err := p.Encode(cbuf)
		if err != nil {
			t.Fatalf("encoding cached page %d: %v", id, err)
		}
		fn, err := fresh.Encode(nbuf)
		if err != nil {
			t.Fatalf("encoding stored page %d: %v", id, err)
		}
		if !bytes.Equal(cbuf[:cn], nbuf[:fn]) {
			t.Fatalf("page %d: decoded cache diverged from page bytes", id)
		}
	})
}

// TestObjCacheBasics covers the cache mechanics directly: hit/miss
// accounting, replacement of an existing entry, invalidation, and the
// capacity-0 disable switch.
func TestObjCacheBasics(t *testing.T) {
	c := newObjCache[int](64)
	if _, ok := c.get(1); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.put(1, 10)
	if v, ok := c.get(1); !ok || v != 10 {
		t.Fatalf("get(1) = %d, %v; want 10, true", v, ok)
	}
	c.put(1, 11) // replace
	if v, _ := c.get(1); v != 11 {
		t.Fatalf("replacement not visible: got %d", v)
	}
	c.invalidate(1)
	if _, ok := c.get(1); ok {
		t.Fatal("invalidated entry still cached")
	}
	s := c.stats()
	if s.Hits != 2 || s.Misses != 2 || s.Invalidations != 1 {
		t.Fatalf("stats = %+v; want 2 hits, 2 misses, 1 invalidation", s)
	}

	off := newObjCache[int](0)
	off.put(1, 10)
	if _, ok := off.get(1); ok {
		t.Fatal("capacity-0 cache cached an entry")
	}
	if off.len() != 0 {
		t.Fatal("capacity-0 cache has entries")
	}
	off.invalidate(1) // must be a no-op, not a panic
}

// TestObjCacheEviction fills one shard past capacity and checks the
// second-chance sweep keeps the shard bounded while counting evictions.
func TestObjCacheEviction(t *testing.T) {
	c := newObjCache[int](objCacheShards * 2) // 2 entries per shard
	// PageIDs congruent mod objCacheShards land in the same shard.
	ids := []pagestore.PageID{0, objCacheShards, 2 * objCacheShards, 3 * objCacheShards}
	for i, id := range ids {
		c.put(id, i)
	}
	s := &c.shards[0]
	s.mu.Lock()
	n := len(s.m)
	s.mu.Unlock()
	if n > c.perShard {
		t.Fatalf("shard holds %d entries, capacity %d", n, c.perShard)
	}
	if st := c.stats(); st.Evictions == 0 {
		t.Fatal("overflow caused no evictions")
	}
	// The cache stays functional after eviction.
	c.put(1, 100)
	if v, ok := c.get(1); !ok || v != 100 {
		t.Fatal("cache broken after eviction")
	}
}

// TestDecodedCacheCoherenceInsert checks cache-vs-store agreement through
// the full growth repertoire: page splits, node doubling, and node split
// chains (the paper example's parameters force all three), with searches
// interleaved to keep the caches populated.
func TestDecodedCacheCoherenceInsert(t *testing.T) {
	prm := params.Params{Dims: 2, Width: 32, Capacity: 2, Xi: []int{2, 2}}
	tr, _ := newTree(t, prm)
	keys := paperKeys()
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatalf("insert K%d: %v", i+1, err)
		}
		for j := 0; j <= i; j++ { // populate the read caches
			if _, ok, err := tr.Search(keys[j]); err != nil || !ok {
				t.Fatalf("after K%d: K%d lost (%v)", i+1, j+1, err)
			}
		}
		checkCacheCoherence(t, tr)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	st := tr.NodeCacheStats()
	ps := tr.PageCacheStats()
	if st.Hits+ps.Hits == 0 {
		t.Fatal("workload produced no decoded-cache hits")
	}
}

// TestDecodedCacheCoherenceDelete deletes a grown tree down to empty,
// checking coherence after every removal: page merges, node merges, GC
// sweeps and root collapses must all leave cache and store agreeing.
func TestDecodedCacheCoherenceDelete(t *testing.T) {
	prm := params.Params{Dims: 2, Width: 32, Capacity: 2, Xi: []int{2, 2}}
	tr, _ := newTree(t, prm)
	keys := workload.Uniform(2, 7).Take(120)
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil && err != ErrDuplicate {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		if _, err := tr.Delete(k); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("after delete %d: %v", i, err)
		}
		checkCacheCoherence(t, tr)
		// The survivors stay reachable through the (possibly restructured)
		// cached nodes.
		for j := i + 1; j < len(keys); j++ {
			if _, ok, err := tr.Search(keys[j]); err != nil || !ok {
				t.Fatalf("after delete %d: key %d lost (%v)", i, j, err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("tree not empty: %d records", tr.Len())
	}
}

// TestDecodedCacheDisabled runs the paper example with the decoded caches
// off: behavior must be identical (every read decodes from bytes, the
// pre-cache configuration) and nothing may be cached.
func TestDecodedCacheDisabled(t *testing.T) {
	prm := params.Params{Dims: 2, Width: 32, Capacity: 2, Xi: []int{2, 2}}
	tr, _ := newTree(t, prm)
	tr.SetDecodedCacheCapacity(0, 0)
	keys := paperKeys()
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		if v, ok, err := tr.Search(k); err != nil || !ok || v != uint64(i) {
			t.Fatalf("key %d: v=%d ok=%v err=%v", i, v, ok, err)
		}
	}
	if n, p := tr.NodeCacheStats(), tr.PageCacheStats(); n.Entries != 0 || p.Entries != 0 {
		t.Fatalf("disabled caches hold entries: nodes=%d pages=%d", n.Entries, p.Entries)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDecodedCacheAccounting checks the §4 access model survives the
// decoded cache: a warm exact-match probe still counts (levels−1) node
// reads plus one data-page read at the store layer even when every byte
// read is absorbed by the cache.
func TestDecodedCacheAccounting(t *testing.T) {
	prm := params.Params{Dims: 2, Width: 32, Capacity: 2, Xi: []int{2, 2}}
	tr, st := newTree(t, prm)
	keys := paperKeys()
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Levels() < 2 {
		t.Fatalf("want a multi-level tree, got %d levels", tr.Levels())
	}
	for _, k := range keys { // warm both caches
		if _, ok, err := tr.Search(k); err != nil || !ok {
			t.Fatal("warmup failed")
		}
	}
	want := uint64(tr.Levels()) // (levels−1) node reads + 1 page read
	for i, k := range keys {
		before := st.Stats().Reads
		if _, ok, err := tr.Search(k); err != nil || !ok {
			t.Fatal("probe failed")
		}
		if got := st.Stats().Reads - before; got != want {
			t.Fatalf("key %d: warm probe counted %d reads, want %d", i, got, want)
		}
	}
}

// TestDecodedCacheReload verifies a freshly loaded tree (recovery path)
// starts with empty caches and rebuilds coherent ones from the recovered
// bytes.
func TestDecodedCacheReload(t *testing.T) {
	prm := params.Params{Dims: 2, Width: 32, Capacity: 2, Xi: []int{2, 2}}
	st := pagestore.NewMemDisk(PageBytes(prm))
	tr, err := New(st, prm)
	if err != nil {
		t.Fatal(err)
	}
	keys := paperKeys()
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	meta := tr.MarshalMeta()
	re, err := Load(st, meta)
	if err != nil {
		t.Fatal(err)
	}
	if n, p := re.NodeCacheStats(), re.PageCacheStats(); n.Entries != 0 || p.Entries != 0 {
		t.Fatalf("reloaded tree has pre-populated caches: nodes=%d pages=%d", n.Entries, p.Entries)
	}
	for i, k := range keys {
		if v, ok, err := re.Search(k); err != nil || !ok || v != uint64(i) {
			t.Fatalf("reloaded key %d: v=%d ok=%v err=%v", i, v, ok, err)
		}
	}
	checkCacheCoherence(t, re)
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
}
