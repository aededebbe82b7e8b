package bmeh

import (
	"path/filepath"
	"testing"
)

// bulkIter streams n records derived from benchKey.
func bulkIter(n uint64) func() (KV, bool, error) {
	i := uint64(0)
	return func() (KV, bool, error) {
		if i >= n {
			return KV{}, false, nil
		}
		i++
		return KV{Key: benchKey(i), Value: i}, true, nil
	}
}

// TestBulkLoadFsck is the durability acceptance check: a file-backed
// index built by BulkLoad must pass the offline integrity check (page
// checksums, WAL chain, structural Validate), and reopening it must
// recover every record.
func TestBulkLoadFsck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bulk.bmeh")
	ix, err := Create(path, Options{Dims: 2, PageCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	st, err := ix.BulkLoad(bulkIter(n), BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Loaded != n {
		t.Fatalf("stats: %+v", st)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck found problems: %v", rep.Problems)
	}
	if rep.Records != n {
		t.Fatalf("fsck saw %d records, want %d", rep.Records, n)
	}

	ix, err = Open(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.Len() != n {
		t.Fatalf("reopened Len=%d want %d", ix.Len(), n)
	}
	for i := uint64(1); i <= n; i += 97 {
		v, ok, err := ix.Get(benchKey(i))
		if err != nil || !ok || v != i {
			t.Fatalf("key %d after reopen: v=%d ok=%v err=%v", i, v, ok, err)
		}
	}
}

// TestBulkLoadSchemeGate checks the comparison schemes reject BulkLoad.
func TestBulkLoadSchemeGate(t *testing.T) {
	ix, err := New(Options{Scheme: SchemeMDEH, Dims: 2, PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, err := ix.BulkLoad(bulkIter(1), BulkOptions{}); err == nil {
		t.Fatal("MDEH BulkLoad should be rejected")
	}
}

// TestBulkLoadConcurrentReads checks readers stay live while a bulk load
// streams in and land on the new structure afterwards.
func TestBulkLoadConcurrentReads(t *testing.T) {
	ix, err := New(Options{Dims: 2, PageCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	const resident = 2000
	for i := uint64(1); i <= resident; i++ {
		if err := ix.Insert(benchKey(i), i); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		defer close(errc)
		for i := uint64(1); ; i = i%resident + 1 {
			select {
			case <-stop:
				return
			default:
			}
			if v, ok, err := ix.Get(benchKey(i)); err != nil || !ok || v != i {
				errc <- err
				return
			}
		}
	}()
	if _, err := ix.BulkLoad(bulkIter(10000), BulkOptions{}); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if err, open := <-errc; open && err != nil {
		t.Fatalf("concurrent reader failed: %v", err)
	}
	if ix.Len() != 10000 {
		t.Fatalf("Len=%d want 10000", ix.Len())
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}
