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
//   - an insert into a data page with room is the one in-place exception:
//     under the page's exclusive latch it mutates the cached page directly
//     and writes it through, dropping the entry if the store write fails —
//     the next decode then restores the committed state;
//   - freeing a page invalidates its entry before the store free, so a
//     recycled PageID can never resurrect a stale decoded image;
//   - full-shard read misses are served from page bytes: Search, on a
//     miss into a shard with no free slot, reads the one element or
//     record it needs in place (dirnode.Route, datapage.Lookup) and
//     installs nothing. A read miss into a shard with a free slot decodes
//     and installs; no reader evicts, only write commits do.
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
	m  map[pagestore.PageID]objEntry[V]
}

// objEntry is a cached object with its second-chance reference bit. The
// map holds entries by value, guarded by the shard lock, so installing an
// object allocates nothing beyond the map's own growth.
type objEntry[V any] struct {
	val V
	ref bool
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
		c.shards[i].m = make(map[pagestore.PageID]objEntry[V])
	}
	return c
}

func (c *objCache[V]) shard(id pagestore.PageID) *objShard[V] {
	return &c.shards[uint32(id)%objCacheShards]
}

// get returns the cached object for id, marking it recently used.
func (c *objCache[V]) get(id pagestore.PageID) (V, bool) {
	v, hit, _ := c.lookup(id)
	return v, hit
}

// lookup is get that also reports, on a miss, whether id's shard has a
// free slot, read under the same lock acquisition: a read-only descent
// decides between installing a decode and reading page bytes with one
// lock and one counted miss.
func (c *objCache[V]) lookup(id pagestore.PageID) (v V, hit, room bool) {
	if c.perShard == 0 {
		c.misses.Add(1)
		return v, false, false
	}
	s := c.shard(id)
	s.mu.Lock()
	e, hit := s.m[id]
	if hit {
		if !e.ref {
			s.m[id] = objEntry[V]{val: e.val, ref: true}
		}
		v = e.val
	} else {
		room = len(s.m) < c.perShard
	}
	s.mu.Unlock()
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, hit, room
}

// evictOneLocked frees one slot in a full shard by evicting a
// not-recently-used entry. Map iteration order is randomized, so clearing
// reference bits along the probe acts as a second-chance sweep without a
// ring. The store holds every cached object's bytes, so any entry may be
// the victim.
func (c *objCache[V]) evictOneLocked(s *objShard[V]) {
	var last pagestore.PageID
	for k, e := range s.m {
		last = k
		if e.ref {
			s.m[k] = objEntry[V]{val: e.val} // spend its second chance
			continue
		}
		break
	}
	// last is the first cold entry, or the last one seen if all were hot.
	delete(s.m, last)
	c.evicts.Add(1)
}

// put installs (or replaces) the object for id, evicting a
// not-recently-used entry when the shard is full. A put is a write
// commit: the caller just wrote the bytes.
func (c *objCache[V]) put(id pagestore.PageID, v V) {
	if c.perShard == 0 {
		return
	}
	s := c.shard(id)
	s.mu.Lock()
	if _, ok := s.m[id]; !ok && len(s.m) >= c.perShard {
		c.evictOneLocked(s)
	}
	s.m[id] = objEntry[V]{val: v, ref: true}
	s.mu.Unlock()
}

// putIfAbsent installs the object for id only when no entry exists and
// the shard has a free slot. Read-miss installs use it: a slow reader
// cannot overwrite a newer object committed by a writer between the
// reader's storage read and its install, and a reader never evicts. Only
// write commits (put) evict, so a read-only stream over more pages than
// the cache holds leaves the cache as it found it.
func (c *objCache[V]) putIfAbsent(id pagestore.PageID, v V) {
	if c.perShard == 0 {
		return
	}
	s := c.shard(id)
	s.mu.Lock()
	if e, ok := s.m[id]; ok {
		if !e.ref {
			s.m[id] = objEntry[V]{val: e.val, ref: true}
		}
	} else if len(s.m) < c.perShard {
		s.m[id] = objEntry[V]{val: v, ref: true}
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

// setDecodedCacheCapacity resizes the decoded caches (rebuilding them
// empty): nodes bounds cached directory nodes, pages cached data pages.
// Zero or negative disables the respective cache — Search then reads
// page bytes in place on every step, and every other read decodes. Not safe to call concurrently
// with operations on the tree.
func (t *Tree) setDecodedCacheCapacity(nodes, pages int) {
	if nodes < 0 {
		nodes = 0
	}
	if pages < 0 {
		pages = 0
	}
	t.nc = newObjCache[*dirnode.Node](nodes)
	t.pc = newObjCache[*datapage.Page](pages)
}

// AdoptDecodedCaches hands prev's decoded caches to t after dropping the
// entries of the pages a replicated batch rewrote (changed). A replica
// reloads its tree from the replicated header after every applied batch;
// the batch carries every page it changed, so every other cached node and
// page is still exact, and the reloaded tree keeps serving them instead of
// reading the store again. prev must not be used afterwards. Not safe to
// call concurrently with operations on either tree.
func (t *Tree) AdoptDecodedCaches(prev *Tree, changed []pagestore.Frame) {
	for _, f := range changed {
		prev.nc.invalidate(f.ID)
		prev.pc.invalidate(f.ID)
	}
	t.nc, t.pc = prev.nc, prev.pc
}
