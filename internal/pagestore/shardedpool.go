package pagestore

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ShardedPool is a concurrency-scalable write-back page cache layered over
// a Store: N lock-striped shards with CLOCK (second chance) eviction, so
// that the read path taken by concurrent index probes is latch-light:
//
//   - a cache hit takes only the shard's read lock (shared among readers of
//     every page hashing to that shard) and performs two atomic stores —
//     the pin count and the CLOCK reference bit. No list is reordered, no
//     exclusive lock is taken, so hits on a warm cache do not serialize.
//   - a miss upgrades to the shard's write lock, claims a frame slot by
//     sweeping the shard's clock hand (pinned frames are skipped, recently
//     referenced frames get a second chance, dirty victims are written
//     back), and faults the page in from the store.
//
// Hit/miss/eviction counters are atomics, read without any lock via
// Stats. Pin discipline: every Get/NewPage must be paired with exactly one
// Unpin, and a frame's bytes may be mutated only between Get and Unpin with
// MarkDirty called before Unpin. Writers of the same page must be
// externally serialized (bmeh.Index does so with its writer lock);
// concurrent readers are safe.
type ShardedPool struct {
	store  Store
	shards []poolShard
	mask   uint32

	hits       atomic.Uint64
	misses     atomic.Uint64
	evictions  atomic.Uint64
	writebacks atomic.Uint64
}

// poolShard is one lock stripe: a fixed array of frame slots driven by a
// clock hand, plus the id → frame map.
type poolShard struct {
	mu     sync.RWMutex
	frames map[PageID]*cframe
	slots  []*cframe // fixed length = shard capacity; nil slots are free
	hand   int
	used   int
}

// cframe is one cached page frame. pins and the CLOCK reference bit are
// atomics so the hit path can update them under the shard's shared lock.
type cframe struct {
	id    PageID
	data  []byte
	slot  int
	pins  atomic.Int32
	ref   atomic.Bool
	dirty atomic.Bool
}

// PoolStats is a snapshot of a pool's counters.
type PoolStats struct {
	Hits       uint64 // Gets served from a resident frame
	Misses     uint64 // Gets that faulted the page in from the store
	Evictions  uint64 // frames reclaimed by the clock sweep
	Writebacks uint64 // dirty frames written to the store on eviction/Flush
	Shards     int    // number of lock stripes
	Capacity   int    // total frame slots across all shards
}

// HitRatio returns Hits / (Hits + Misses), or 0 before any access.
func (s PoolStats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// NewShardedPool creates a pool of up to capacity frames over store,
// striped across the given number of shards (rounded up to a power of
// two). shards <= 0 picks a default sized to the machine: one stripe per
// core up to 16, reduced so that every stripe keeps at least four frames.
// Each shard owns an equal slice of the capacity, so a single shard can
// hold at most ceil(capacity/shards) pages.
func NewShardedPool(store Store, capacity, shards int) *ShardedPool {
	if capacity < 1 {
		panic(fmt.Sprintf("pagestore: sharded pool capacity %d < 1", capacity))
	}
	if shards <= 0 {
		shards = defaultPoolShards(capacity)
	}
	shards = ceilPow2(shards)
	perShard := (capacity + shards - 1) / shards
	p := &ShardedPool{
		store:  store,
		shards: make([]poolShard, shards),
		mask:   uint32(shards - 1),
	}
	for i := range p.shards {
		p.shards[i].frames = make(map[PageID]*cframe, perShard)
		p.shards[i].slots = make([]*cframe, perShard)
	}
	return p
}

// defaultPoolShards sizes the stripe count for a pool of the given
// capacity: parallelism up to 16 stripes, but never so many that a stripe
// holds fewer than four frames.
func defaultPoolShards(capacity int) int {
	n := runtime.GOMAXPROCS(0)
	if n > 16 {
		n = 16
	}
	for n > 1 && capacity/n < 4 {
		n /= 2
	}
	if n < 1 {
		n = 1
	}
	return n
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// shard returns the stripe responsible for id (multiplicative hash so
// consecutive page ids spread across stripes).
func (p *ShardedPool) shard(id PageID) *poolShard {
	h := uint32(id) * 0x9e3779b1
	return &p.shards[(h>>16)&p.mask]
}

// Store returns the underlying store.
func (p *ShardedPool) Store() Store { return p.store }

// Get returns the page contents, pinning the frame. The returned slice is
// the frame's buffer: the caller may read it, and may modify it if it
// calls MarkDirty before Unpin. Callers must Unpin exactly once per Get.
func (p *ShardedPool) Get(id PageID) ([]byte, error) {
	s := p.shard(id)
	// Hit path: shared lock only. The pin is taken while the read lock is
	// held, which excludes the exclusive-locked clock sweep, so a frame
	// observed here cannot be evicted before the pin lands.
	s.mu.RLock()
	if f, ok := s.frames[id]; ok {
		f.pins.Add(1)
		f.ref.Store(true)
		s.mu.RUnlock()
		p.hits.Add(1)
		return f.data, nil
	}
	s.mu.RUnlock()

	// Miss path: exclusive lock; re-check, since another goroutine may
	// have faulted the page in between the two lock acquisitions.
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.frames[id]; ok {
		f.pins.Add(1)
		f.ref.Store(true)
		p.hits.Add(1)
		return f.data, nil
	}
	p.misses.Add(1)
	f, err := p.claimSlotLocked(s)
	if err != nil {
		return nil, err
	}
	if err := p.store.Read(id, f.data); err != nil {
		p.releaseSlotLocked(s, f)
		return nil, err
	}
	p.installLocked(s, f, id)
	return f.data, nil
}

// ReadInto copies the page's bytes into buf, faulting the page in on a
// miss. Unlike Get, no pin is taken: the copy happens under the shard
// lock (shared on a hit), which is what makes it consistent against a
// concurrent Put of the same page.
func (p *ShardedPool) ReadInto(id PageID, buf []byte) error {
	s := p.shard(id)
	s.mu.RLock()
	if f, ok := s.frames[id]; ok {
		f.ref.Store(true)
		copy(buf, f.data)
		s.mu.RUnlock()
		p.hits.Add(1)
		return nil
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.frames[id]; ok {
		f.ref.Store(true)
		copy(buf, f.data)
		p.hits.Add(1)
		return nil
	}
	p.misses.Add(1)
	f, err := p.claimSlotLocked(s)
	if err != nil {
		return err
	}
	if err := p.store.Read(id, f.data); err != nil {
		p.releaseSlotLocked(s, f)
		return err
	}
	p.installLocked(s, f, id)
	f.pins.Store(0) // unpinned: ReadInto callers never hold the frame
	copy(buf, f.data)
	return nil
}

// Put replaces the page's frame contents with the full-page image in data
// and marks the frame dirty. The old image is never faulted in from the
// store — the page is overwritten whole — so a write miss costs one frame
// claim and one copy. The copy happens under the shard's exclusive lock,
// so ReadInto and hit-path Get callers never observe a torn image. Put
// must not race a pinned mutator of the same page (CachedStore's callers
// serialize page writers externally).
func (p *ShardedPool) Put(id PageID, data []byte) error {
	s := p.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.frames[id]
	if !ok {
		// Write-around: a full-page overwrite of a non-resident page goes
		// straight to the store. Faulting a frame in just to overwrite it
		// buys nothing (the caller keeps its own decoded copy) and, when
		// the working set exceeds the pool, turns every write into an
		// eviction. Done under the shard lock so a racing ReadInto of the
		// same page cannot install the pre-write image after we return.
		return p.store.Write(id, data)
	}
	f.ref.Store(true)
	n := copy(f.data, data)
	for i := n; i < len(f.data); i++ {
		f.data[i] = 0
	}
	f.dirty.Store(true)
	return nil
}

// NewPage allocates a page in the store and returns its zeroed, pinned
// frame (no read I/O).
func (p *ShardedPool) NewPage(kind Kind) (PageID, []byte, error) {
	id, err := p.store.Alloc(kind)
	if err != nil {
		return NilPage, nil, err
	}
	s := p.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := p.claimSlotLocked(s)
	if err != nil {
		return NilPage, nil, err
	}
	clear(f.data) // claimed buffers are recycled; NewPage promises zeroes
	f.dirty.Store(true)
	p.installLocked(s, f, id)
	return id, f.data, nil
}

// claimSlotLocked finds a free slot in s, evicting if necessary with a
// CLOCK sweep: pinned frames are skipped, frames with the reference bit
// set get a second chance, and dirty victims are written back. The caller
// holds the shard's exclusive lock. The returned frame has one pin and is
// not yet in the map (see installLocked); its buffer is recycled from the
// victim, so the contents are undefined — every caller overwrites the
// whole page (fault-in, Put) or zeroes it (NewPage).
func (p *ShardedPool) claimSlotLocked(s *poolShard) (*cframe, error) {
	var slot int
	var buf []byte
	switch {
	case s.used < len(s.slots):
		for s.slots[s.hand] != nil {
			s.hand = (s.hand + 1) % len(s.slots)
		}
		slot = s.hand
	default:
		victim := -1
		// Two full laps: the first clears reference bits, the second takes
		// the first unpinned frame. More laps cannot change the outcome.
		for i := 0; i < 2*len(s.slots); i++ {
			f := s.slots[s.hand]
			if f.pins.Load() == 0 {
				if !f.ref.Swap(false) {
					victim = s.hand
					break
				}
			}
			s.hand = (s.hand + 1) % len(s.slots)
		}
		if victim < 0 {
			return nil, fmt.Errorf("pagestore: pool shard exhausted (%d frames, all pinned)", len(s.slots))
		}
		f := s.slots[victim]
		if f.dirty.Load() {
			if err := p.store.Write(f.id, f.data); err != nil {
				return nil, err
			}
			p.writebacks.Add(1)
		}
		delete(s.frames, f.id)
		buf = f.data // recycle the victim's buffer: no per-eviction malloc
		s.slots[victim] = nil
		s.used--
		p.evictions.Add(1)
		slot = victim
	}
	if buf == nil {
		buf = make([]byte, p.store.PageSize())
	}
	f := &cframe{slot: slot, data: buf}
	f.pins.Store(1)
	s.slots[slot] = f
	s.used++
	return f, nil
}

// installLocked publishes a claimed frame under id and advances the hand
// past it so the freshly loaded page is not the next eviction candidate.
func (p *ShardedPool) installLocked(s *poolShard, f *cframe, id PageID) {
	f.id = id
	f.ref.Store(true)
	s.frames[id] = f
	s.hand = (f.slot + 1) % len(s.slots)
}

// releaseSlotLocked undoes claimSlotLocked after a failed fault-in.
func (p *ShardedPool) releaseSlotLocked(s *poolShard, f *cframe) {
	s.slots[f.slot] = nil
	s.used--
}

// MarkDirty flags the page's frame as modified; it must be pinned.
func (p *ShardedPool) MarkDirty(id PageID) {
	s := p.shard(id)
	s.mu.RLock()
	if f, ok := s.frames[id]; ok {
		f.dirty.Store(true)
	}
	s.mu.RUnlock()
}

// Unpin releases one pin on the page's frame.
func (p *ShardedPool) Unpin(id PageID) {
	s := p.shard(id)
	s.mu.RLock()
	f, ok := s.frames[id]
	s.mu.RUnlock()
	if !ok || f.pins.Add(-1) < 0 {
		panic(fmt.Sprintf("pagestore: unpin of unpinned page %d", id))
	}
}

// Drop removes the page's frame without write-back (for freed pages).
func (p *ShardedPool) Drop(id PageID) {
	s := p.shard(id)
	s.mu.Lock()
	if f, ok := s.frames[id]; ok {
		delete(s.frames, id)
		s.slots[f.slot] = nil
		s.used--
	}
	s.mu.Unlock()
}

// Flush writes back every dirty frame. Concurrent mutators of pinned
// frames must be externally excluded (bmeh.Index flushes under its writer
// lock).
func (p *ShardedPool) Flush() error {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for _, f := range s.frames {
			if f.dirty.Load() {
				if err := p.store.Write(f.id, f.data); err != nil {
					s.mu.Unlock()
					return err
				}
				f.dirty.Store(false)
				p.writebacks.Add(1)
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// HitRate returns cache hits, misses since creation (see Stats for the
// full picture).
func (p *ShardedPool) HitRate() (hits, misses uint64) {
	return p.hits.Load(), p.misses.Load()
}

// Stats returns a lock-free snapshot of the pool's counters.
func (p *ShardedPool) Stats() PoolStats {
	return PoolStats{
		Hits:       p.hits.Load(),
		Misses:     p.misses.Load(),
		Evictions:  p.evictions.Load(),
		Writebacks: p.writebacks.Load(),
		Shards:     len(p.shards),
		Capacity:   len(p.shards) * len(p.shards[0].slots),
	}
}
