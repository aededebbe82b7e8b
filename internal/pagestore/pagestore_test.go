package pagestore

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// storeContract exercises the Store interface semantics shared by both
// implementations.
func storeContract(t *testing.T, st Store) {
	t.Helper()
	if st.PageSize() <= 0 {
		t.Fatal("bad page size")
	}
	// Nil and out-of-range accesses fail.
	buf := make([]byte, st.PageSize())
	if err := st.Read(NilPage, buf); err == nil {
		t.Error("read of nil page succeeded")
	}
	if err := st.Read(9999, buf); err == nil {
		t.Error("read of unallocated page succeeded")
	}
	// Alloc, write, read back.
	a, err := st.Alloc(KindData)
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Alloc(KindDirectory)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a == NilPage || b == NilPage {
		t.Fatalf("bad ids %d %d", a, b)
	}
	payload := []byte("hello, page store")
	if err := st.Write(a, payload); err != nil {
		t.Fatal(err)
	}
	if err := st.Read(a, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:len(payload)], payload) {
		t.Fatalf("read back %q", buf[:len(payload)])
	}
	for _, c := range buf[len(payload):] {
		if c != 0 {
			t.Fatal("short write not zero-padded")
		}
	}
	// Kinds are recorded.
	if k, _ := st.KindOf(a); k != KindData {
		t.Errorf("KindOf(a) = %v", k)
	}
	if k, _ := st.KindOf(b); k != KindDirectory {
		t.Errorf("KindOf(b) = %v", k)
	}
	// Oversized writes fail.
	if err := st.Write(a, make([]byte, st.PageSize()+1)); err == nil {
		t.Error("oversized write succeeded")
	}
	// Free, then access fails; freed id gets reused zeroed.
	if err := st.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := st.Read(a, buf); err == nil {
		t.Error("read of freed page succeeded")
	}
	c, err := st.Alloc(KindData)
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Errorf("freed page %d not reused (got %d)", a, c)
	}
	if err := st.Read(c, buf); err != nil {
		t.Fatal(err)
	}
	for _, x := range buf {
		if x != 0 {
			t.Fatal("reused page not zeroed")
		}
	}
	// Stats move.
	s := st.Stats()
	if s.Reads == 0 || s.Writes == 0 || s.Allocs != 3 || s.Frees != 1 {
		t.Errorf("stats %+v", s)
	}
	st.ResetStats()
	if st.Stats().Accesses() != 0 {
		t.Error("ResetStats did not reset")
	}
	alloc := st.Allocated()
	if alloc[KindData] != 1 || alloc[KindDirectory] != 1 {
		t.Errorf("allocated %+v", alloc)
	}
	// Meta/free kinds are not allocatable.
	if _, err := st.Alloc(KindMeta); err == nil {
		t.Error("allocated a meta page")
	}
}

func TestMemDiskContract(t *testing.T) {
	storeContract(t, NewMemDisk(256))
}

func TestFileDiskContract(t *testing.T) {
	st, err := CreateFileDisk(filepath.Join(t.TempDir(), "disk"), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	storeContract(t, st)
}

func TestFileDiskReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk")
	st, err := CreateFileDisk(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 5; i++ {
		id, err := st.Alloc(KindData)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if err := st.Write(id, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Free(ids[2]); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteMeta([]byte("meta-state")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.PageSize() != 128 {
		t.Fatalf("page size %d", re.PageSize())
	}
	buf := make([]byte, 128)
	for i, id := range ids {
		if i == 2 {
			if err := re.Read(id, buf); err == nil {
				t.Error("freed page readable after reopen")
			}
			continue
		}
		if err := re.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i+1) {
			t.Errorf("page %d content %d", id, buf[0])
		}
	}
	meta := make([]byte, 10)
	if _, err := re.ReadMeta(meta); err != nil {
		t.Fatal(err)
	}
	if string(meta) != "meta-state" {
		t.Errorf("meta = %q", meta)
	}
	// The freed page is reusable after reopen.
	id, err := re.Alloc(KindData)
	if err != nil {
		t.Fatal(err)
	}
	if id != ids[2] {
		t.Errorf("free list lost across reopen: got %d want %d", id, ids[2])
	}
}

func TestOpenFileDiskRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := writeFile(path, bytes.Repeat([]byte{0xAB}, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileDisk(path); err == nil {
		t.Fatal("opened a non-pagestore file")
	}
}

func TestMemDiskConcurrent(t *testing.T) {
	st := NewMemDisk(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < 200; i++ {
				id, err := st.Alloc(KindData)
				if err != nil {
					t.Error(err)
					return
				}
				if err := st.Write(id, []byte{1, 2, 3}); err != nil {
					t.Error(err)
					return
				}
				if err := st.Read(id, buf); err != nil {
					t.Error(err)
					return
				}
				if err := st.Free(id); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := st.Allocated()[KindData]; n != 0 {
		t.Errorf("%d pages leaked", n)
	}
}

func TestClosedStore(t *testing.T) {
	st := NewMemDisk(64)
	id, _ := st.Alloc(KindData)
	st.Close()
	buf := make([]byte, 64)
	if err := st.Read(id, buf); err != ErrClosed {
		t.Errorf("read after close: %v", err)
	}
	if _, err := st.Alloc(KindData); err != ErrClosed {
		t.Errorf("alloc after close: %v", err)
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
