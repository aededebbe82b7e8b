package core

import (
	"bytes"
	"path/filepath"
	"testing"

	"bmeh/internal/bitkey"
	"bmeh/internal/datapage"
	"bmeh/internal/dirnode"
	"bmeh/internal/pagestore"
	"bmeh/internal/params"
	"bmeh/internal/workload"
)

// checkCacheCoherence verifies that every decoded-cache entry agrees
// byte-for-byte with a fresh decode of its page from the store: the
// write-through and invalidation discipline must never let a cached object
// drift from the stored bytes, on any store.
func checkCacheCoherence(t *testing.T, tr *Tree) {
	t.Helper()
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

// coherenceStores are the stores the coherence tests run over: the
// accounting MemDisk and a FileDisk (on in-memory files), so the one
// page-write path is checked on both kinds of store.
var coherenceStores = []struct {
	name string
	open func(t *testing.T, prm params.Params) *Tree
}{
	{"mem", func(t *testing.T, prm params.Params) *Tree {
		tr, _ := newTree(t, prm)
		return tr
	}},
	{"file", func(t *testing.T, prm params.Params) *Tree {
		fd, err := pagestore.CreateFileDiskFiles(pagestore.NewMemFile(), pagestore.NewMemFile(), PageBytes(prm))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := New(fd, prm)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}},
}

// TestDecodedCacheCoherenceInsert checks cache-vs-store agreement through
// the full growth repertoire: page splits, node doubling, and node split
// chains (the paper example's parameters force all three), with searches
// interleaved to keep the caches populated.
func TestDecodedCacheCoherenceInsert(t *testing.T) {
	for _, s := range coherenceStores {
		t.Run(s.name, func(t *testing.T) {
			prm := params.Params{Dims: 2, Width: 32, Capacity: 2, Xi: []int{2, 2}}
			testCacheCoherenceInsert(t, s.open(t, prm))
		})
	}
}

func testCacheCoherenceInsert(t *testing.T, tr *Tree) {
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
	for _, s := range coherenceStores {
		t.Run(s.name, func(t *testing.T) {
			prm := params.Params{Dims: 2, Width: 32, Capacity: 2, Xi: []int{2, 2}}
			testCacheCoherenceDelete(t, s.open(t, prm))
		})
	}
}

func testCacheCoherenceDelete(t *testing.T, tr *Tree) {
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
// off: behavior must be identical (every search reads page bytes in place,
// every other read decodes) and nothing may be cached.
func TestDecodedCacheDisabled(t *testing.T) {
	prm := params.Params{Dims: 2, Width: 32, Capacity: 2, Xi: []int{2, 2}}
	tr, _ := newTree(t, prm)
	tr.setDecodedCacheCapacity(0, 0)
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

// cacheMissStores are the stores the in-place read path runs over: a
// FileDisk over a real file (reads through the mapping where the platform
// has one), a FileDisk over an in-memory file (reads by pread into a
// pooled buffer) and the accounting MemDisk (reads by copy).
var cacheMissStores = []struct {
	name string
	open func(t *testing.T, pageSize int) pagestore.Store
}{
	{"mapped", func(t *testing.T, pageSize int) pagestore.Store {
		fd, err := pagestore.CreateFileDisk(filepath.Join(t.TempDir(), "ix.bmeh"), pageSize)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fd.Close() })
		return fd
	}},
	{"pread", func(t *testing.T, pageSize int) pagestore.Store {
		fd, err := pagestore.CreateFileDiskFiles(pagestore.NewMemFile(), pagestore.NewMemFile(), pageSize)
		if err != nil {
			t.Fatal(err)
		}
		return fd
	}},
	{"mem", func(t *testing.T, pageSize int) pagestore.Store {
		return pagestore.NewMemDisk(pageSize)
	}},
}

// cacheMissTree builds a three-level tree over st, commits it when st is
// a file store (so the mapped store reads committed pages through its
// mapping) and returns it with its keys; key i stores value i.
func cacheMissTree(t *testing.T, st pagestore.Store) (*Tree, []bitkey.Vector) {
	t.Helper()
	tr, err := New(st, cacheMissParams)
	if err != nil {
		t.Fatal(err)
	}
	keys := workload.Uniform(2, 11).Take(3000)
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if fd, ok := st.(*pagestore.FileDisk); ok {
		if err := fd.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Levels() < 3 {
		t.Fatalf("want node reads below the root: tree has %d levels", tr.Levels())
	}
	return tr, keys
}

var cacheMissParams = params.Params{Dims: 2, Width: 32, Capacity: 4, Xi: []int{2, 2}}

// searchAll searches every key and checks the stored value.
func searchAll(t *testing.T, tr *Tree, keys []bitkey.Vector) {
	for i, k := range keys {
		if v, ok, err := tr.Search(k); err != nil || !ok || v != uint64(i) {
			t.Fatalf("key %d: v=%d ok=%v err=%v", i, v, ok, err)
		}
	}
}

// TestSearchMissesNeverEvict fills small decoded caches, then searches
// keys whose nodes and pages are not cached. Every answer must be right,
// no entry may be evicted, the caches must stay at capacity, and each
// lookup that misses must count exactly one miss and one store read. A
// later write to an uncached page must still install it.
func TestSearchMissesNeverEvict(t *testing.T) {
	fd, err := pagestore.CreateFileDiskFiles(pagestore.NewMemFile(), pagestore.NewMemFile(), PageBytes(cacheMissParams))
	if err != nil {
		t.Fatal(err)
	}
	tr, keys := cacheMissTree(t, fd)
	const nodeCap, pageCap = 2 * objCacheShards, 4 * objCacheShards
	tr.setDecodedCacheCapacity(nodeCap, pageCap)
	searchAll(t, tr, keys[:len(keys)/2])
	n0, p0 := tr.NodeCacheStats(), tr.PageCacheStats()
	if n0.Entries != nodeCap || p0.Entries != pageCap {
		t.Fatalf("setup: caches hold %d nodes, %d pages; want %d, %d", n0.Entries, p0.Entries, nodeCap, pageCap)
	}
	r0 := fd.Stats().Reads
	searchAll(t, tr, keys)
	n1, p1 := tr.NodeCacheStats(), tr.PageCacheStats()
	if n1.Evictions != n0.Evictions || p1.Evictions != p0.Evictions {
		t.Fatalf("searches evicted: nodes %d→%d, pages %d→%d", n0.Evictions, n1.Evictions, p0.Evictions, p1.Evictions)
	}
	if n1.Entries != nodeCap || p1.Entries != pageCap {
		t.Fatalf("caches hold %d nodes, %d pages after searches; want %d, %d", n1.Entries, p1.Entries, nodeCap, pageCap)
	}
	lookups := uint64(len(keys))
	if got := n1.Hits + n1.Misses - n0.Hits - n0.Misses; got != lookups*uint64(tr.Levels()-1) {
		t.Fatalf("%d node lookups for %d searches of a %d-level tree", got, len(keys), tr.Levels())
	}
	if got := p1.Hits + p1.Misses - p0.Hits - p0.Misses; got != lookups {
		t.Fatalf("%d page lookups for %d searches", got, len(keys))
	}
	misses := n1.Misses - n0.Misses + p1.Misses - p0.Misses
	if reads := fd.Stats().Reads - r0; misses == 0 || reads != misses {
		t.Fatalf("%d misses counted, %d store reads: want one of each per missed lookup", misses, reads)
	}

	// A write commit still installs an uncached page, evicting for it.
	for _, k := range workload.Uniform(2, 12).Take(1000) {
		id, p := tr.leafPage(t, k)
		if _, cached := tr.pc.get(id); cached || p.Len() >= cacheMissParams.Capacity {
			continue
		}
		if err := tr.Insert(k, 1); err != nil {
			t.Fatal(err)
		}
		if _, cached := tr.pc.get(id); !cached {
			t.Fatalf("insert into uncached page %d did not install it", id)
		}
		if p2 := tr.PageCacheStats(); p2.Evictions != p1.Evictions+1 || p2.Entries != pageCap {
			t.Fatalf("after the insert: %d evictions (want %d), %d entries (want %d)", p2.Evictions, p1.Evictions+1, p2.Entries, pageCap)
		}
		return
	}
	t.Fatal("no key routes to an uncached page with room")
}

// leafPage returns the data page k routes to and a private decode of it.
func (tr *Tree) leafPage(t *testing.T, k bitkey.Vector) (pagestore.PageID, *datapage.Page) {
	t.Helper()
	v := k.Clone()
	n := tr.rc.load().node
	for {
		e := n.Entries[tr.nodeIndex(n, v)]
		if !e.IsNode {
			p, err := tr.pages.Read(e.Ptr)
			if err != nil {
				t.Fatal(err)
			}
			return e.Ptr, p
		}
		for j := range v {
			v[j] = bitkey.LeftShift(v[j], int(e.H[j]), tr.prm.Width)
		}
		var err error
		if n, err = tr.nodes.Read(e.Ptr); err != nil {
			t.Fatal(err)
		}
	}
}
