//go:build !race

// The race detector randomly drops sync.Pool entries, so allocation
// counts are checked in normal builds only.

package bmeh

import (
	"math/rand"
	"path/filepath"
	"testing"

	"bmeh/internal/latch"
)

// TestCOWInsertAllocs pins the allocations of one copy-on-write insert
// into a file-backed index of 50k keys. A COW insert copies its root-to-
// leaf path: each directory node copy is the node and one element array
// (element entries hold no pointers), a fresh page stages the store's
// shared zero image rather than a buffer of its own, a freed page stages
// only its free-list link, and the decoded caches hold their entries by
// value, so installing a fresh id allocates nothing.
func TestCOWInsertAllocs(t *testing.T) {
	if latch.Debug {
		t.Skip("latchdebug's latch-order tracking allocates")
	}
	ix, err := Create(filepath.Join(t.TempDir(), "cow.bmeh"), Options{Dims: 2, PageCapacity: 32, WriteMode: WriteModeCOW})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	rng := rand.New(rand.NewSource(1))
	next := func() Key { return Key{uint64(rng.Uint32()), uint64(rng.Uint32())} }
	for i := 0; i < 50000; i++ {
		if err := ix.Insert(next(), uint64(i)); err != nil {
			t.Fatal(err)
		}
		if i%1000 == 999 {
			if err := ix.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	const runs = 500
	keys := make([]Key, runs+1) // AllocsPerRun adds one warm-up run
	for i := range keys {
		keys[i] = next()
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := ix.Insert(keys[i], uint64(i)); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%.0f allocations per COW insert", allocs)
	if allocs > 13 {
		t.Fatalf("a COW insert makes %.0f allocations, want ≤ 13", allocs)
	}
}
