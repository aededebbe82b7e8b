package core

// The decoded-object cache generalizes the pinned-root discipline of
// rootcache.go to the rest of the tree: decoded directory nodes and data
// pages are kept in their operable in-memory form, keyed by PageID, so a
// steady-state descent touches serialized page bytes only at the storage
// boundary. Coherence follows the same commit-point rules as the root:
//
//   - read-only descents (Search, Range, Validate, walks) may share the
//     cached object and must not mutate it; concurrent readers of a data
//     page hold its shared latch, because of the in-place exception below;
//   - node-mutating descents work on a private copy (readNodeMut,
//     readPageMut) and the cache is updated write-through only after the
//     page write committed (writeNode, writePage), so a storage fault
//     leaves cache, memory and disk agreeing on the previous state;
//   - the insert fast path is the one in-place exception: under the
//     page's exclusive latch it mutates the cached data page directly and
//     writes it through, dropping the entry if the store write fails —
//     the next decode then restores the committed state;
//   - freeing a page invalidates its entry before the store free, so a
//     recycled PageID can never resurrect a stale decoded image.
//
// Accounting: a cache hit still counts one logical read at the store
// layer via pagestore.ReadAccounter, keeping the paper's §4 access model
// (levels−1 node reads + 1 data read per probe) exact on counting stores
// while skipping the byte copy and the decode entirely.

import (
	"sync"
	"sync/atomic"

	"bmeh/internal/datapage"
	"bmeh/internal/dirnode"
	"bmeh/internal/pagestore"
)

const (
	// objCacheShards stripes the cache locks; reads under the index's
	// RLock run concurrently, so shard contention matters.
	objCacheShards = 16
	// defaultNodeCacheCap bounds cached decoded directory nodes. Interior
	// nodes are few (one per ~2^φ regions), so this covers directories far
	// past the paper's 2^27-element scale.
	defaultNodeCacheCap = 1024
	// defaultPageCacheCap bounds cached decoded data pages. Sized to keep
	// the hot working set of write-heavy workloads decoded: a miss costs a
	// Decode allocation and, because a fresh decode has no spare record
	// capacity, a reallocation on the next in-place insert. At ~2KB per
	// decoded page this bounds the cache near 64MB.
	defaultPageCacheCap = 32768
)

// objCacheStats are the cache's white-box counters.
type objCacheStats struct {
	Hits, Misses, Evictions, Invalidations uint64
}

// objShard is one lock stripe of an objCache. Every holder of mu does a
// few map and atomic operations and nothing else, so a plain mutex, whose
// waiters spin briefly before parking, fits better than an RWMutex: there
// a reader behind a writer, or a writer behind readers, parks at once and
// waits out a full goroutine wake-up for a section of nanoseconds.
type objShard[V any] struct {
	mu sync.Mutex
	m  map[pagestore.PageID]*objEntry[V]
}

// objEntry wraps a cached object with its second-chance reference bit and,
// for data pages on the deferred write-back path, a dirty bit. A dirty
// entry's decoded object is ahead of the page bytes and is the only
// up-to-date form, so eviction skips it; the dirty-page flusher clears the
// bit once the bytes catch up. The shard lock serializes markDirty against
// the eviction sweep, so an entry can never be both chosen as victim and
// marked dirty.
type objEntry[V any] struct {
	val   V
	ref   atomic.Bool
	dirty atomic.Bool
}

// objCache is a sharded, capacity-bounded map from PageID to a decoded
// object with second-chance (CLOCK-approximating) eviction. Every
// operation takes its shard's lock. Capacity 0 disables the cache (every
// get misses, puts are dropped).
type objCache[V any] struct {
	shards   [objCacheShards]objShard[V]
	perShard int
	hits     atomic.Uint64
	misses   atomic.Uint64
	evicts   atomic.Uint64
	invals   atomic.Uint64
}

// newObjCache returns a cache bounded to roughly capacity entries.
func newObjCache[V any](capacity int) *objCache[V] {
	c := &objCache[V]{perShard: (capacity + objCacheShards - 1) / objCacheShards}
	for i := range c.shards {
		c.shards[i].m = make(map[pagestore.PageID]*objEntry[V])
	}
	return c
}

func (c *objCache[V]) shard(id pagestore.PageID) *objShard[V] {
	return &c.shards[uint32(id)%objCacheShards]
}

// get returns the cached object for id, marking it recently used. The
// value is copied out under the shard lock: put replaces an existing
// entry's val in place, so reading it after unlock would race.
func (c *objCache[V]) get(id pagestore.PageID) (V, bool) {
	var v V
	if c.perShard == 0 {
		c.misses.Add(1)
		return v, false
	}
	s := c.shard(id)
	s.mu.Lock()
	e, ok := s.m[id]
	if ok {
		e.ref.Store(true)
		v = e.val
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return v, false
	}
	c.hits.Add(1)
	return v, true
}

// evictOneLocked frees one slot in a full shard by evicting a
// not-recently-used clean entry. Map iteration order is randomized, so
// clearing reference bits along the probe acts as a second-chance sweep
// without a ring. Dirty entries are never victims (their decoded object is
// the only up-to-date form); if every entry is dirty the shard overflows
// softly — the dirty-page flusher drains it back under capacity.
func (c *objCache[V]) evictOneLocked(s *objShard[V]) {
	var fallback pagestore.PageID
	haveFallback := false
	for k, e := range s.m {
		if e.dirty.Load() {
			continue
		}
		fallback, haveFallback = k, true
		if e.ref.CompareAndSwap(true, false) {
			continue // recently used: spend its second chance
		}
		delete(s.m, k)
		c.evicts.Add(1)
		return
	}
	if haveFallback { // every clean entry was hot: evict the last seen
		delete(s.m, fallback)
		c.evicts.Add(1)
	}
}

// put installs (or replaces) the object for id, evicting a
// not-recently-used entry when the shard is full. A put is a write
// commit — the caller just wrote the bytes — so it clears any dirty bit.
func (c *objCache[V]) put(id pagestore.PageID, v V) {
	if c.perShard == 0 {
		return
	}
	s := c.shard(id)
	s.mu.Lock()
	if e, ok := s.m[id]; ok {
		e.val = v
		e.ref.Store(true)
		e.dirty.Store(false)
		s.mu.Unlock()
		return
	}
	if len(s.m) >= c.perShard {
		c.evictOneLocked(s)
	}
	e := &objEntry[V]{val: v}
	e.ref.Store(true)
	s.m[id] = e
	s.mu.Unlock()
}

// putIfAbsent installs the object for id only when no entry exists,
// evicting like put when the shard is full. Read-miss installs use this so
// a slow reader cannot overwrite a newer object committed by a writer
// between the reader's storage read and its cache install.
func (c *objCache[V]) putIfAbsent(id pagestore.PageID, v V) {
	if c.perShard == 0 {
		return
	}
	s := c.shard(id)
	s.mu.Lock()
	if e, ok := s.m[id]; ok {
		e.ref.Store(true)
		s.mu.Unlock()
		return
	}
	if len(s.m) >= c.perShard {
		c.evictOneLocked(s)
	}
	e := &objEntry[V]{val: v}
	e.ref.Store(true)
	s.m[id] = e
	s.mu.Unlock()
}

// markDirty flags id's entry as dirty, pinning it against eviction until
// the flusher clears it. It reports whether an entry was present: when it
// is not (cache disabled, or the entry was evicted before the caller's
// mutation), the caller must fall back to writing the page through.
// newly distinguishes the first marking from re-dirtying, so each page
// enters the flush queue once. Runs under the shard lock, which the
// eviction sweep also holds.
func (c *objCache[V]) markDirty(id pagestore.PageID) (newly, ok bool) {
	if c.perShard == 0 {
		return false, false
	}
	s := c.shard(id)
	s.mu.Lock()
	e, ok := s.m[id]
	if ok {
		e.ref.Store(true)
		newly = e.dirty.CompareAndSwap(false, true)
	}
	s.mu.Unlock()
	return newly, ok
}

// getIfDirty returns the cached object only if it is present and dirty.
// The flusher uses it: an entry that went absent (freed) or clean
// (rewritten through writePage) since it was queued needs no flush.
func (c *objCache[V]) getIfDirty(id pagestore.PageID) (V, bool) {
	var v V
	if c.perShard == 0 {
		return v, false
	}
	s := c.shard(id)
	s.mu.Lock()
	e, ok := s.m[id]
	if ok && e.dirty.Load() {
		v = e.val
	} else {
		ok = false
	}
	s.mu.Unlock()
	return v, ok
}

// clearDirty marks id's entry clean again. The caller must have excluded
// concurrent mutators of the object (the flusher holds the page's shared
// latch, so in-place inserters, who need it exclusive, are out).
func (c *objCache[V]) clearDirty(id pagestore.PageID) {
	if c.perShard == 0 {
		return
	}
	s := c.shard(id)
	s.mu.Lock()
	if e, ok := s.m[id]; ok {
		e.dirty.Store(false)
	}
	s.mu.Unlock()
}

// invalidate drops the entry for id, if any.
func (c *objCache[V]) invalidate(id pagestore.PageID) {
	if c.perShard == 0 {
		return
	}
	s := c.shard(id)
	s.mu.Lock()
	if _, ok := s.m[id]; ok {
		delete(s.m, id)
		c.invals.Add(1)
	}
	s.mu.Unlock()
}

// forEach calls fn for every cached (id, object) pair; for tests and the
// coherence checker. fn must not mutate the object.
func (c *objCache[V]) forEach(fn func(id pagestore.PageID, v V)) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for id, e := range s.m {
			fn(id, e.val)
		}
		s.mu.Unlock()
	}
}

// len returns the number of cached entries.
func (c *objCache[V]) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// stats snapshots the counters.
func (c *objCache[V]) stats() objCacheStats {
	return objCacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evicts.Load(),
		Invalidations: c.invals.Load(),
	}
}

// CacheStats is a snapshot of one decoded cache's counters.
type CacheStats struct {
	Hits, Misses, Evictions, Invalidations uint64
	Entries                                int
}

// NodeCacheStats reports the decoded directory-node cache's counters.
func (t *Tree) NodeCacheStats() CacheStats {
	s := t.nc.stats()
	return CacheStats{s.Hits, s.Misses, s.Evictions, s.Invalidations, t.nc.len()}
}

// PageCacheStats reports the decoded data-page cache's counters.
func (t *Tree) PageCacheStats() CacheStats {
	s := t.pc.stats()
	return CacheStats{s.Hits, s.Misses, s.Evictions, s.Invalidations, t.pc.len()}
}

// SetDecodedCacheCapacity resizes the decoded caches (rebuilding them
// empty): nodes bounds cached directory nodes, pages cached data pages.
// Zero or negative disables the respective cache — every read then decodes
// from page bytes, the pre-cache behavior. Dirty pages are flushed first,
// since dropping the old cache discards the only up-to-date form of each.
// Not safe to call concurrently with operations on the tree.
func (t *Tree) SetDecodedCacheCapacity(nodes, pages int) error {
	if err := t.FlushDirtyPages(); err != nil {
		return err
	}
	if nodes < 0 {
		nodes = 0
	}
	if pages < 0 {
		pages = 0
	}
	t.nc = newObjCache[*dirnode.Node](nodes)
	t.pc = newObjCache[*datapage.Page](pages)
	return nil
}

// AdoptDecodedCaches hands prev's decoded caches to t after dropping the
// entries of the pages a replicated batch rewrote (changed). A replica
// reloads its tree from the replicated header after every applied batch;
// the batch carries every page it changed, so every other cached node and
// page is still exact, and the reloaded tree keeps serving them instead of
// reading the store again. A prev with deferred page writes keeps its
// caches (t starts cold). prev must not be used afterwards. Not safe to
// call concurrently with operations on either tree.
func (t *Tree) AdoptDecodedCaches(prev *Tree, changed []pagestore.Frame) {
	if prev.dirtyLen.Load() != 0 {
		return
	}
	for _, f := range changed {
		prev.nc.invalidate(f.ID)
		prev.pc.invalidate(f.ID)
	}
	t.nc, t.pc = prev.nc, prev.pc
}
