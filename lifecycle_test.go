package bmeh

import (
	"errors"
	"path/filepath"
	"testing"

	"bmeh/internal/pagestore"
)

// TestFileIndexEndToEnd drives the full lifecycle of a file-backed index
// through the default Create and Open — create, insert, sync, point reads,
// range, delete, close, fsck, reopen — so every read after the first
// commit goes through the store's read view where the platform maps.
// (That those reads really are zero-copy is TestMmapZeroCopyAliasing's
// job, in internal/pagestore.)
func TestFileIndexEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.bmeh")
	ix, err := Create(path, Options{Dims: 2, PageCapacity: 8})
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
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// The on-disk image passes fsck.
	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck problems: %v", rep.Problems)
	}

	re, err := Open(path, 0)
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
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncAfterClose: Sync on a closed index fails with
// pagestore.ErrClosed, the way Insert, Get and Range do, whatever the
// backing store.
func TestSyncAfterClose(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func() (*Index, error)
	}{
		{"mem", func() (*Index, error) { return New(Options{Dims: 2}) }},
		{"file", func() (*Index, error) {
			return Create(filepath.Join(t.TempDir(), "index.bmeh"), Options{Dims: 2})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := tc.open()
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Insert(Key{1, 2}, 3); err != nil {
				t.Fatal(err)
			}
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			if err := ix.Sync(); !errors.Is(err, pagestore.ErrClosed) {
				t.Fatalf("Sync after Close: %v, want %v", err, pagestore.ErrClosed)
			}
		})
	}
}
