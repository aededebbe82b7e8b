package bmeh_test

import (
	"testing"

	"bmeh"
	"bmeh/internal/latch"
)

// TestNoAliasedResults locks in the ownership contract the serving layer
// depends on: keys handed to a Range callback are defensive copies, not
// aliases of the index's pooled descent buffers, and the index never
// retains a reference to a caller's key slice. A violation here shows up
// remotely as one client's response bytes changing under another's
// request — so this is tier-1, not just hygiene.
func TestNoAliasedResults(t *testing.T) {
	ix, err := bmeh.New(bmeh.Options{Dims: 2, PageCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	const n = 500
	keyOf := func(i int) bmeh.Key { return bmeh.Key{uint64(i), uint64(i * 3 % 251)} }
	for i := 0; i < n; i++ {
		k := keyOf(i)
		if err := ix.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
		// The index must have copied/encoded k by now: trashing the
		// caller's slice must not corrupt the stored record.
		k[0], k[1] = ^uint64(0), ^uint64(0)
	}

	// Collect every key from a full-box Range, retaining the slices.
	lo := bmeh.Key{0, 0}
	hi := bmeh.Key{ix.MaxComponent(), ix.MaxComponent()}
	var keys []bmeh.Key
	vals := map[uint64]bool{}
	err = ix.Range(lo, hi, func(k bmeh.Key, v uint64) bool {
		keys = append(keys, k) // retained past the callback
		vals[v] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != n {
		t.Fatalf("range returned %d keys, want %d", len(keys), n)
	}
	for i := 0; i < n; i++ {
		if !vals[uint64(i)] {
			t.Fatalf("value %d missing from range", i)
		}
	}

	// Trash every retained key. If any aliased a pooled buffer still in
	// use, the index (or a later query) would see the garbage.
	for _, k := range keys {
		for j := range k {
			k[j] = ^uint64(0)
		}
	}

	// Everything must still be intact and findable.
	for i := 0; i < n; i++ {
		v, ok, err := ix.Get(keyOf(i))
		if err != nil || !ok || v != uint64(i) {
			t.Fatalf("get %d after mutating range results: %d %v %v", i, v, ok, err)
		}
	}
	count := 0
	err = ix.Range(lo, hi, func(k bmeh.Key, v uint64) bool {
		// Each callback key must be freshly owned: equal to a real key,
		// not the garbage we wrote above.
		if k[0] == ^uint64(0) {
			t.Fatalf("range callback key aliases a previously returned slice")
		}
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("second range returned %d keys, want %d", count, n)
	}
	if err := ix.Validate(); err != nil {
		t.Fatalf("index invariants after mutation probes: %v", err)
	}
}

// TestNoAliasedResultsInterleaved mutates range results while a second
// range over the same pages is mid-flight — the sharpest version of the
// aliasing hazard, since both descents draw from the same buffer pools.
func TestNoAliasedResultsInterleaved(t *testing.T) {
	if latch.Debug {
		// The inner Range re-takes, on the same goroutine, the shared page
		// latch the outer callback runs under; the latch-order checker
		// rejects any re-acquisition. Harmless here (no writer exists to
		// queue between the two read locks), so the aliasing check runs
		// in release builds only.
		t.Skip("nested Range re-acquires a held page latch; not checkable under latchdebug")
	}
	ix, err := bmeh.New(bmeh.Options{Dims: 2, PageCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	const n = 200
	for i := 0; i < n; i++ {
		if err := ix.Insert(bmeh.Key{uint64(i), uint64(i)}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	lo := bmeh.Key{0, 0}
	hi := bmeh.Key{ix.MaxComponent(), ix.MaxComponent()}
	outer := 0
	err = ix.Range(lo, hi, func(ok bmeh.Key, ov uint64) bool {
		outer++
		if ov%50 != 0 {
			ok[0] = ^uint64(0) // trash it mid-iteration
			return true
		}
		inner := 0
		if err := ix.Range(lo, hi, func(ik bmeh.Key, iv uint64) bool {
			if ik[0] == ^uint64(0) {
				t.Fatalf("inner range observed outer callback's mutation")
			}
			ik[1] = ^uint64(0)
			inner++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if inner != n {
			t.Fatalf("inner range saw %d keys, want %d", inner, n)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if outer != n {
		t.Fatalf("outer range saw %d keys, want %d", outer, n)
	}
}
