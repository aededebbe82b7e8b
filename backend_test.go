package bmeh

import (
	"path/filepath"
	"testing"

	"bmeh/internal/pagestore"
)

// TestBackendMmapEndToEnd drives the full index lifecycle on the mmap
// backend — create, insert, sync, point reads, range, delete, reopen,
// fsck — and asserts the read path actually served zero-copy where the
// platform maps.
func TestBackendMmapEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.bmeh")
	ix, err := Create(path, Options{Dims: 2, PageCapacity: 8, Backend: BackendMmap})
	if err != nil {
		t.Fatal(err)
	}
	keys := randKeys(3000, 2, 77)
	for i, k := range keys {
		if err := ix.Insert(k, uint64(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := ix.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		v, ok, err := ix.Get(k)
		if err != nil || !ok || v != uint64(i) {
			t.Fatalf("get %d: v=%d ok=%v err=%v", i, v, ok, err)
		}
	}
	// Range agrees with a brute-force filter.
	lo, hi := Key{1 << 28, 1 << 27}, Key{3 << 28, 5 << 27}
	want := 0
	for _, k := range keys {
		if k[0] >= lo[0] && k[0] <= hi[0] && k[1] >= lo[1] && k[1] <= hi[1] {
			want++
		}
	}
	got := 0
	if err := ix.Range(lo, hi, func(Key, uint64) bool { got++; return true }); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("range saw %d records, want %d", got, want)
	}
	for i := 0; i < len(keys); i += 3 {
		if ok, err := ix.Delete(keys[i]); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	st, ok := ix.MmapStats()
	if !ok {
		t.Fatal("MmapStats not available on BackendMmap")
	}
	if pagestore.MmapSupported && !st.ZeroCopy {
		t.Fatal("mapping not established on a platform that supports it")
	}
	if st.ZeroCopy && st.CopiedReads != 0 {
		t.Fatalf("mapped store made %d per-read copies", st.CopiedReads)
	}
	// A run that never read through the mapping proves nothing about it.
	if st.ZeroCopy && st.ZeroCopyReads == 0 {
		t.Fatalf("no zero-copy reads after %d gets, a range and %d deletes: %+v", len(keys), len(keys)/3, st)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// The on-disk image passes the same fsck as the file backend's.
	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck problems: %v", rep.Problems)
	}

	// Reopen on the mmap backend: committed reads are zero-copy from the
	// first Get (staged reads only exist before a commit).
	re, err := OpenWithOptions(path, Options{Backend: BackendMmap})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i, k := range keys {
		v, ok, err := re.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if ok {
				t.Fatalf("deleted key %d resurrected", i)
			}
			continue
		}
		if !ok || v != uint64(i) {
			t.Fatalf("reopen get %d: v=%d ok=%v", i, v, ok)
		}
	}
	st, _ = re.MmapStats()
	if pagestore.MmapSupported {
		if st.ZeroCopyReads == 0 {
			t.Fatal("no zero-copy reads on a mapped reopened index")
		}
		if st.CopiedReads != 0 || st.StagedReads != 0 {
			t.Fatalf("reopened index stats %+v, want pure zero-copy", st)
		}
	}
}

// TestBackendCrossOpen writes an index under each backend and reopens it
// under the other: the format is backend-neutral, so the choice of engine
// is a property of the process, never of the file.
func TestBackendCrossOpen(t *testing.T) {
	keys := randKeys(500, 2, 5)
	for _, create := range []Backend{BackendFile, BackendMmap} {
		for _, reopen := range []Backend{BackendFile, BackendMmap} {
			t.Run(create.String()+"-then-"+reopen.String(), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "x.bmeh")
				ix, err := Create(path, Options{Dims: 2, PageCapacity: 8, Backend: create})
				if err != nil {
					t.Fatal(err)
				}
				for i, k := range keys {
					if err := ix.Insert(k, uint64(i)); err != nil {
						t.Fatal(err)
					}
				}
				if err := ix.Close(); err != nil {
					t.Fatal(err)
				}
				re, err := OpenWithOptions(path, Options{Backend: reopen})
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				if _, ok := re.MmapStats(); ok != (reopen == BackendMmap) {
					t.Fatalf("MmapStats ok=%v under %v", ok, reopen)
				}
				for i, k := range keys {
					v, ok, err := re.Get(k)
					if err != nil || !ok || v != uint64(i) {
						t.Fatalf("get %d: v=%d ok=%v err=%v", i, v, ok, err)
					}
				}
				if err := re.Validate(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestBackendAdvise checks the access-pattern hints: accepted (and
// harmless) on the mmap backend, a clean no-op elsewhere, and an error
// for garbage patterns.
func TestBackendAdvise(t *testing.T) {
	dir := t.TempDir()
	mm, err := Create(filepath.Join(dir, "m.bmeh"), Options{Dims: 2, Backend: BackendMmap})
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	for _, p := range []AccessPattern{AdviseRandom, AdviseSequential, AdviseNormal} {
		if err := mm.Advise(p); err != nil {
			t.Fatalf("advise %d on mmap: %v", int(p), err)
		}
	}
	if err := mm.Insert(Key{1, 2}, 3); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := mm.Get(Key{1, 2}); err != nil || !ok || v != 3 {
		t.Fatalf("get after advise: v=%d ok=%v err=%v", v, ok, err)
	}
	if err := mm.Advise(AccessPattern(99)); err == nil {
		t.Fatal("bogus pattern accepted")
	}
	fb, err := Create(filepath.Join(dir, "f.bmeh"), Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	if err := fb.Advise(AdviseSequential); err != nil {
		t.Fatalf("advise on file backend: %v", err)
	}
	mem, err := New(Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if err := mem.Advise(AdviseRandom); err != nil {
		t.Fatalf("advise on memory index: %v", err)
	}
}
