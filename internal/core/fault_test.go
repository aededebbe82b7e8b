package core

import (
	"errors"
	"testing"

	"bmeh/internal/pagestore"
	"bmeh/internal/params"
	"bmeh/internal/workload"
)

// TestFaultInjection verifies that storage failures at every point of an
// operation's page-access sequence surface as errors — never panics — and
// that once the fault clears the tree still validates and answers queries
// (records acknowledged before the fault are never lost; an operation
// interrupted mid-restructuring may leave benign artifacts such as an
// extra allocated page, but structural invariants must hold).
func TestFaultInjection(t *testing.T) {
	prm := params.Default(2, 4)
	inner := pagestore.NewMemDisk(PageBytes(prm))
	fs := pagestore.NewFaultStore(inner, -1)
	tr, err := New(fs, prm)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.Uniform(2, 31)
	keys := gen.Take(3000)
	acked := 0
	faults := 0
	for i, k := range keys {
		// Inject a fault a few accesses into every 7th insert.
		if i%7 == 3 {
			fs.Arm(int64(i % 11))
		}
		err := tr.Insert(k, uint64(i))
		fs.Disarm()
		switch {
		case err == nil:
			acked++
		case errors.Is(err, pagestore.ErrInjected):
			faults++
			// Retry once without faults; duplicate means the record made
			// it in before the failure — count it as acknowledged.
			if err := tr.Insert(k, uint64(i)); err == nil || errors.Is(err, ErrDuplicate) {
				acked++
			} else {
				t.Fatalf("insert %d retry: %v", i, err)
			}
		default:
			t.Fatalf("insert %d: unexpected error %v", i, err)
		}
	}
	if faults == 0 {
		t.Fatal("fault injection never fired; test is vacuous")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("after faulty inserts: %v", err)
	}
	for i, k := range keys {
		v, ok, err := tr.Search(k)
		if err != nil || !ok || v != uint64(i) {
			t.Fatalf("key %d lost after fault recovery (v=%d ok=%v err=%v)", i, v, ok, err)
		}
	}
	// Faulty deletes — driven all the way down to the empty tree, so the
	// page-merge and directory-shrink paths run under fault injection too,
	// not just the raw removals.
	delFaults := 0
	for i, k := range keys {
		if i%5 == 2 {
			fs.Arm(int64(i % 9))
		}
		_, err := tr.Delete(k)
		fs.Disarm()
		if err != nil {
			if !errors.Is(err, pagestore.ErrInjected) {
				t.Fatalf("delete %d: unexpected error %v", i, err)
			}
			delFaults++
			// Retry without faults; "not found" means the removal had
			// committed before the failure, which is fine.
			if _, err := tr.Delete(k); err != nil {
				t.Fatalf("delete %d retry: %v", i, err)
			}
		}
		if i == len(keys)/2 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("midway through faulty deletes: %v", err)
			}
		}
	}
	if delFaults == 0 {
		t.Fatal("delete fault injection never fired")
	}
	if tr.Len() != 0 {
		t.Fatalf("%d records left after deleting every key", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("after faulty deletes: %v", err)
	}
	// The emptied tree is still fully usable.
	for i, k := range keys[:100] {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatalf("reinsert %d: %v", i, err)
		}
		if v, ok, err := tr.Search(k); err != nil || !ok || v != uint64(i) {
			t.Fatalf("reinserted key %d unreadable (v=%d ok=%v err=%v)", i, v, ok, err)
		}
	}
}

// TestFaultInjectionCachedStore repeats the faulty insert/delete workload
// with a small write-back buffer pool between the tree and the faulting
// store, so faults also fire on eviction and flush traffic — the shape a
// cached production deployment sees — instead of synchronously inside the
// faulting operation only.
func TestFaultInjectionCachedStore(t *testing.T) {
	prm := params.Default(2, 4)
	inner := pagestore.NewMemDisk(PageBytes(prm))
	fs := pagestore.NewFaultStore(inner, -1)
	cs := pagestore.NewCachedStore(fs, 16) // tiny pool: constant eviction
	tr, err := New(cs, prm)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.Uniform(2, 77)
	keys := gen.Take(1500)
	faults := 0
	for i, k := range keys {
		if i%6 == 1 {
			fs.Arm(int64(i % 10))
		}
		err := tr.Insert(k, uint64(i))
		fs.Disarm()
		if err != nil {
			if !errors.Is(err, pagestore.ErrInjected) {
				t.Fatalf("insert %d: unexpected error %v", i, err)
			}
			faults++
			if err := tr.Insert(k, uint64(i)); err != nil && !errors.Is(err, ErrDuplicate) {
				t.Fatalf("insert %d retry: %v", i, err)
			}
		}
	}
	if faults == 0 {
		t.Fatal("no fault fired through the buffer pool")
	}
	if err := cs.Flush(); err != nil {
		t.Fatalf("flush after faulty inserts: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("after faulty inserts: %v", err)
	}
	for i, k := range keys {
		if v, ok, err := tr.Search(k); err != nil || !ok || v != uint64(i) {
			t.Fatalf("key %d lost behind the pool (v=%d ok=%v err=%v)", i, v, ok, err)
		}
	}
	delFaults := 0
	for i, k := range keys {
		if i%4 == 2 {
			fs.Arm(int64(i % 8))
		}
		_, err := tr.Delete(k)
		fs.Disarm()
		if err != nil {
			if !errors.Is(err, pagestore.ErrInjected) {
				t.Fatalf("delete %d: unexpected error %v", i, err)
			}
			delFaults++
			if _, err := tr.Delete(k); err != nil {
				t.Fatalf("delete %d retry: %v", i, err)
			}
		}
	}
	if delFaults == 0 {
		t.Fatal("no delete fault fired through the buffer pool")
	}
	if err := cs.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Fatalf("%d records left after deleting every key", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("after faulty deletes: %v", err)
	}
}

// TestFaultInjectionTargetedKinds aims faults at directory pages only,
// then at data pages only, verifying that failures confined to either
// page population still surface cleanly and leave the tree valid with
// every acknowledged record reachable.
func TestFaultInjectionTargetedKinds(t *testing.T) {
	for _, target := range []pagestore.Kind{pagestore.KindDirectory, pagestore.KindData} {
		prm := params.Default(2, 4)
		inner := pagestore.NewMemDisk(PageBytes(prm))
		fs := pagestore.NewFaultStore(inner, -1)
		fs.TargetKinds(target)
		tr, err := New(fs, prm)
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.Uniform(2, int64(100+target))
		keys := gen.Take(2000)
		faults := 0
		for i, k := range keys {
			if i%5 == 1 {
				fs.Arm(int64(i % 6))
			}
			err := tr.Insert(k, uint64(i))
			fs.Disarm()
			if err != nil {
				if !errors.Is(err, pagestore.ErrInjected) {
					t.Fatalf("%v: insert %d: unexpected error %v", target, i, err)
				}
				faults++
				if err := tr.Insert(k, uint64(i)); err != nil && !errors.Is(err, ErrDuplicate) {
					t.Fatalf("%v: insert %d retry: %v", target, i, err)
				}
			}
		}
		if faults == 0 {
			t.Fatalf("no fault fired while targeting %v pages", target)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%v-targeted faults broke the tree: %v", target, err)
		}
		for i, k := range keys {
			if v, ok, err := tr.Search(k); err != nil || !ok || v != uint64(i) {
				t.Fatalf("%v: key %d lost (v=%d ok=%v err=%v)", target, i, v, ok, err)
			}
		}
	}
}

// TestTornWritesNeverPanic hammers the tree with torn-write faults — the
// page reaches the store with its second half garbled — aimed at each page
// kind in turn. A store without checksums cannot detect the damage, so no
// structural promise holds afterwards; the robustness contract under test
// is narrower and absolute: every subsequent operation returns normally or
// with an error, and nothing panics. (The checksummed FileDisk turns the
// same damage into ErrCorrupt; see the pagestore tests.)
func TestTornWritesNeverPanic(t *testing.T) {
	for _, target := range []pagestore.Kind{pagestore.KindData, pagestore.KindDirectory} {
		prm := params.Default(2, 4)
		inner := pagestore.NewMemDisk(PageBytes(prm))
		fs := pagestore.NewFaultStore(inner, -1)
		fs.TargetKinds(target)
		tr, err := New(fs, prm)
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.Uniform(2, 13)
		keys := gen.Take(1200)
		faults := 0
		for i, k := range keys {
			if i%3 == 1 {
				fs.ArmMode(int64(i%5), pagestore.FaultTorn)
			}
			if err := tr.Insert(k, uint64(i)); errors.Is(err, pagestore.ErrInjected) {
				faults++
			}
			fs.Disarm()
			if i%7 == 0 {
				tr.Search(keys[i/2])         //nolint:errcheck
				tr.Delete(keys[(i*3)%(i+1)]) //nolint:errcheck
			}
		}
		if faults == 0 {
			t.Fatalf("no torn fault fired while targeting %v pages", target)
		}
		// Sweep every key once more: junk answers are permitted, panics
		// and hangs are not. Validate may reject the damage; it must
		// report, not crash.
		for _, k := range keys {
			tr.Search(k) //nolint:errcheck
		}
		tr.Validate() //nolint:errcheck
	}
}

// TestFaultDuringSearch verifies read-path errors propagate.
func TestFaultDuringSearch(t *testing.T) {
	prm := params.Default(2, 8)
	inner := pagestore.NewMemDisk(PageBytes(prm))
	fs := pagestore.NewFaultStore(inner, -1)
	tr, err := New(fs, prm)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.Uniform(2, 5)
	keys := gen.Take(2000)
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	sawErr := false
	for i, k := range keys[:50] {
		fs.Arm(int64(i % 3))
		_, _, err := tr.Search(k)
		fs.Disarm()
		if err != nil {
			if !errors.Is(err, pagestore.ErrInjected) {
				t.Fatalf("search: unexpected error %v", err)
			}
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("no search fault fired")
	}
	if _, ok, err := tr.Search(keys[0]); err != nil || !ok {
		t.Fatal("index unusable after search faults")
	}
}
