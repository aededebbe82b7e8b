package pagestore

import "fmt"

// CachedStore layers a page pool behind the Store interface so index
// implementations, which speak Store, transparently gain a page cache.
// Reads are served from the pool; writes land in the pool (write-back) and
// reach the inner store on eviction or Flush. Access counters of the inner
// store then reflect physical I/O only, which is what a production
// deployment experiences — the experiment harness uses raw stores instead,
// because the paper counts logical page accesses.
type CachedStore struct {
	inner Store
	pool  *ShardedPool
}

// NewCachedStore wraps inner with a sharded (lock-striped, CLOCK-evicting)
// pool of the given frame capacity, the concurrency-scalable default.
func NewCachedStore(inner Store, frames int) *CachedStore {
	return &CachedStore{inner: inner, pool: NewShardedPool(inner, frames, 0)}
}

// PageSize implements Store.
func (c *CachedStore) PageSize() int { return c.inner.PageSize() }

// Alloc implements Store. The fresh page takes no pool frame: its first
// write goes around the pool (see Write), and its first read faults it in
// like any other page — so the pool's frames stay reserved for pages that
// are actually re-read.
func (c *CachedStore) Alloc(kind Kind) (PageID, error) {
	return c.inner.Alloc(kind)
}

// Free implements Store, dropping any cached frame.
func (c *CachedStore) Free(id PageID) error {
	c.pool.Drop(id)
	return c.inner.Free(id)
}

// Read implements Store. A buffer shorter than the page size fails with
// ErrShortBuffer (it used to slice out of range and panic).
//
// CachedStore deliberately does not implement SliceReader: a pool frame
// can be evicted and reused the moment its pin drops, so a zero-copy
// window onto it has no usable lifetime. The mmap backend therefore
// bypasses the byte pool entirely — the OS page cache is its byte cache —
// and only the decoded-node cache sits above it.
func (c *CachedStore) Read(id PageID, buf []byte) error {
	if ps := c.inner.PageSize(); len(buf) < ps {
		return fmt.Errorf("pagestore: read buffer %d bytes < page size %d: %w", len(buf), ps, ErrShortBuffer)
	}
	return c.pool.ReadInto(id, buf[:c.inner.PageSize()])
}

// Write implements Store (write-back). Put replaces the frame contents
// whole, so a write miss costs no fault-in read from the inner store.
func (c *CachedStore) Write(id PageID, data []byte) error {
	return c.pool.Put(id, data)
}

// KindOf implements Store.
func (c *CachedStore) KindOf(id PageID) (Kind, error) { return c.inner.KindOf(id) }

// Stats implements Store, reporting the inner store's physical I/O.
func (c *CachedStore) Stats() Stats { return c.inner.Stats() }

// ResetStats implements Store.
func (c *CachedStore) ResetStats() { c.inner.ResetStats() }

// Allocated implements Store.
func (c *CachedStore) Allocated() map[Kind]int { return c.inner.Allocated() }

// Flush writes every dirty frame back to the inner store.
func (c *CachedStore) Flush() error { return c.pool.Flush() }

// Drop discards any cached frame for id without write-back. Replication
// apply uses it to invalidate frames whose pages were rewritten in the
// inner store underneath the cache.
func (c *CachedStore) Drop(id PageID) { c.pool.Drop(id) }

// HitRate reports the pool's cache hits and misses.
func (c *CachedStore) HitRate() (hits, misses uint64) { return c.pool.HitRate() }

// PoolStats reports the pool's counters.
func (c *CachedStore) PoolStats() PoolStats { return c.pool.Stats() }

// Close flushes and closes the inner store.
func (c *CachedStore) Close() error {
	if err := c.pool.Flush(); err != nil {
		c.inner.Close()
		return err
	}
	return c.inner.Close()
}
