//go:build !race

// The race detector randomly drops sync.Pool entries, so allocation
// counts are checked in normal builds only.

package core

import (
	"testing"

	"bmeh/internal/latch"
	"bmeh/internal/pagestore"
)

// TestSearchMissAllocatesNothing pins the in-place read path: with the
// decoded caches full or disabled, an exact-match search whose nodes and
// page miss them reads the page bytes where they lie and allocates
// nothing, on every kind of store.
func TestSearchMissAllocatesNothing(t *testing.T) {
	if latch.Debug {
		t.Skip("latchdebug's latch-order tracking allocates")
	}
	for _, s := range cacheMissStores {
		for _, caches := range []string{"full", "disabled"} {
			t.Run(s.name+"/"+caches, func(t *testing.T) {
				tr, keys := cacheMissTree(t, s.open(t, PageBytes(cacheMissParams)))
				if caches == "full" {
					tr.setDecodedCacheCapacity(objCacheShards, 4*objCacheShards)
				} else {
					tr.setDecodedCacheCapacity(0, 0)
				}
				searchAll(t, tr, keys) // fills the caches
				n0, p0 := tr.NodeCacheStats(), tr.PageCacheStats()
				if caches == "full" && (n0.Entries != objCacheShards || p0.Entries != 4*objCacheShards) {
					t.Fatalf("setup: caches hold %d nodes, %d pages; want them full", n0.Entries, p0.Entries)
				}
				allocs := testing.AllocsPerRun(2, func() { searchAll(t, tr, keys) })
				if allocs != 0 {
					t.Fatalf("%.1f allocations per %d searches, want 0", allocs, len(keys))
				}
				n1, p1 := tr.NodeCacheStats(), tr.PageCacheStats()
				if n1.Misses == n0.Misses || p1.Misses == p0.Misses {
					t.Fatalf("searches missed no cache: nodes %+v, pages %+v", n1, p1)
				}
			})
		}
	}
}

// TestPutIntoFullShardAllocatesNothing pins the write-commit install of a
// decoded object: under copy-on-write every commit lands on a fresh page
// id, and putting a fresh id into a full cache shard reuses the entry it
// evicts instead of allocating one.
func TestPutIntoFullShardAllocatesNothing(t *testing.T) {
	const perShard = 4
	c := newObjCache[*int](perShard * objCacheShards)
	v := new(int)
	next := pagestore.PageID(0)
	put := func() {
		c.put(next, v) // every id lands in shard 0
		next += objCacheShards
	}
	for i := 0; i < perShard; i++ {
		put()
	}
	if allocs := testing.AllocsPerRun(1000, put); allocs != 0 {
		t.Fatalf("a put into a full shard makes %.0f allocations, want 0", allocs)
	}
	if n := c.len(); n != perShard {
		t.Fatalf("cache holds %d entries, want %d", n, perShard)
	}
}
