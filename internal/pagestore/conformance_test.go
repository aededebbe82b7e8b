package pagestore

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// Backend-conformance suite: every Store implementation — MemDisk,
// FileDisk, MmapDisk (and the pool layers where a behavior applies) —
// must agree on the observable contract, so an index can switch backends
// without changing behavior. The file-backed cases run over real files in
// a temp dir; on platforms without mmap the "mmap" case still runs,
// exercising the MmapDisk wrapper over its pread fallback.

// fileBacked is the slice of the FileDisk surface the conformance suite
// needs beyond Store.
type fileBacked interface {
	Store
	WriteMeta(data []byte) error
	ReadMeta(buf []byte) (int, error)
	Sync() error
}

// diskBackend is one persistent backend under conformance test.
type diskBackend struct {
	name   string
	create func(path string, pageSize int) (fileBacked, error)
	open   func(path string) (fileBacked, error)
}

func diskBackends() []diskBackend {
	return []diskBackend{
		{
			name:   "file",
			create: func(p string, ps int) (fileBacked, error) { return CreateFileDisk(p, ps) },
			open:   func(p string) (fileBacked, error) { return OpenFileDisk(p) },
		},
		{
			name:   "mmap",
			create: func(p string, ps int) (fileBacked, error) { return CreateMmapDisk(p, ps) },
			open:   func(p string) (fileBacked, error) { return OpenMmapDisk(p) },
		},
	}
}

// TestBackendContract runs the shared Store contract (alloc, write, read
// back, free-list reuse with zeroing, kind tracking, stats) over every
// backend.
func TestBackendContract(t *testing.T) {
	t.Run("mem", func(t *testing.T) { storeContract(t, NewMemDisk(256)) })
	for _, b := range diskBackends() {
		b := b
		t.Run(b.name, func(t *testing.T) {
			st, err := b.create(filepath.Join(t.TempDir(), "disk"), 256)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			storeContract(t, st)
		})
	}
}

// TestBackendShortBuffer is the shared regression for the typed short-
// buffer error: Read into a buffer smaller than PageSize must return an
// error wrapping ErrShortBuffer — on every backend, and through the
// buffer-pool layer — and must not touch the buffer.
func TestBackendShortBuffer(t *testing.T) {
	const ps = 128
	cases := map[string]func(t *testing.T) Store{
		"mem": func(t *testing.T) Store { return NewMemDisk(ps) },
		"file": func(t *testing.T) Store {
			st, err := CreateFileDisk(filepath.Join(t.TempDir(), "disk"), ps)
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
		"mmap": func(t *testing.T) Store {
			st, err := CreateMmapDisk(filepath.Join(t.TempDir(), "disk"), ps)
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
		"cached": func(t *testing.T) Store { return NewCachedStore(NewMemDisk(ps), 4) },
		"sharded": func(t *testing.T) Store {
			mem := NewMemDisk(ps)
			return &CachedStore{inner: mem, pool: NewShardedPool(mem, 8, 2)}
		},
	}
	for name, mk := range cases {
		mk := mk
		t.Run(name, func(t *testing.T) {
			st := mk(t)
			defer st.Close()
			id, err := st.Alloc(KindData)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Write(id, []byte{0xAB}); err != nil {
				t.Fatal(err)
			}
			short := make([]byte, ps-1)
			short[0] = 0x77
			if err := st.Read(id, short); !errors.Is(err, ErrShortBuffer) {
				t.Fatalf("short read error = %v, want ErrShortBuffer", err)
			}
			if short[0] != 0x77 {
				t.Fatal("short read modified the buffer")
			}
			// An exact-size buffer works.
			buf := make([]byte, ps)
			if err := st.Read(id, buf); err != nil {
				t.Fatal(err)
			}
			if buf[0] != 0xAB {
				t.Fatalf("read back %x", buf[0])
			}
		})
	}
}

// TestBackendMetaRoundTrip checks the client meta record survives a sync,
// a close, and a reopen — including a reopen through the *other* backend,
// since the on-disk format is shared.
func TestBackendMetaRoundTrip(t *testing.T) {
	for _, b := range diskBackends() {
		b := b
		t.Run(b.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "disk")
			st, err := b.create(path, 128)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.WriteMeta([]byte("round-trip-meta")); err != nil {
				t.Fatal(err)
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			// Meta is readable back before close.
			buf := make([]byte, 64)
			n, err := st.ReadMeta(buf)
			if err != nil || string(buf[:n]) != "round-trip-meta" {
				t.Fatalf("pre-close meta %q, %v", buf[:n], err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			// Reopen under every backend: the format is backend-neutral.
			for _, rb := range diskBackends() {
				re, err := rb.open(path)
				if err != nil {
					t.Fatalf("reopen via %s: %v", rb.name, err)
				}
				n, err := re.ReadMeta(buf)
				if err != nil || string(buf[:n]) != "round-trip-meta" {
					t.Fatalf("reopen via %s: meta %q, %v", rb.name, buf[:n], err)
				}
				re.Close()
			}
		})
	}
}

// TestBackendTornTrailer damages one byte of a committed page's CRC-32C
// trailer on disk and verifies both backends reject the page with
// ErrCorrupt on first read — the mmap backend through its verify-once
// zero-copy path as well as through the copying Read.
func TestBackendTornTrailer(t *testing.T) {
	const ps = 128
	for _, b := range diskBackends() {
		b := b
		t.Run(b.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "disk")
			st, err := b.create(path, ps)
			if err != nil {
				t.Fatal(err)
			}
			id, err := st.Alloc(KindData)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Write(id, []byte("trailer-guarded")); err != nil {
				t.Fatal(err)
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			// Flip a CRC byte in the page's slot trailer. (Not the kind
			// byte: that is structural and may be caught at open instead.)
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			off := int64(id)*int64(ps+pageTrailerSize) + ps
			one := make([]byte, 1)
			if _, err := f.ReadAt(one, off); err != nil {
				t.Fatal(err)
			}
			one[0] ^= 0x40
			if _, err := f.WriteAt(one, off); err != nil {
				t.Fatal(err)
			}
			f.Close()

			re, err := b.open(path)
			if err != nil {
				if errors.Is(err, ErrCorrupt) {
					return // caught even earlier; fine
				}
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			buf := make([]byte, ps)
			if err := re.Read(id, buf); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Read of torn-trailer page = %v, want ErrCorrupt", err)
			}
			if md, ok := re.(*MmapDisk); ok {
				if _, err := md.ReadSlice(id); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("ReadSlice of torn-trailer page = %v, want ErrCorrupt", err)
				}
			}
		})
	}
}

// TestBackendConcurrentReadDuringCheckpoint hammers Read from several
// goroutines while the main goroutine rewrites every page and commits in
// a loop. Readers must only ever observe fully committed page images —
// whole pages of a single version stamp, never a blend — on both
// backends (on mmap this exercises readers against commit-time applies
// into the mapping and the msync barrier).
func TestBackendConcurrentReadDuringCheckpoint(t *testing.T) {
	const (
		ps       = 256
		numPages = 8
		rounds   = 25
	)
	for _, b := range diskBackends() {
		b := b
		t.Run(b.name, func(t *testing.T) {
			st, err := b.create(filepath.Join(t.TempDir(), "disk"), ps)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			ids := make([]PageID, numPages)
			page := make([]byte, ps)
			for i := range ids {
				if ids[i], err = st.Alloc(KindData); err != nil {
					t.Fatal(err)
				}
				for j := range page {
					page[j] = 1
				}
				if err := st.Write(ids[i], page); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					buf := make([]byte, ps)
					for i := seed; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						id := ids[i%numPages]
						if err := st.Read(id, buf); err != nil {
							t.Errorf("concurrent read: %v", err)
							return
						}
						v := buf[0]
						if v < 1 || int(v) > rounds+1 {
							t.Errorf("page %d: version stamp %d out of range", id, v)
							return
						}
						for j, c := range buf {
							if c != v {
								t.Errorf("page %d: torn image at byte %d (%d vs %d)", id, j, c, v)
								return
							}
						}
					}
				}(w)
			}
			for r := 2; r <= rounds+1 && !t.Failed(); r++ {
				for _, id := range ids {
					for j := range page {
						page[j] = byte(r)
					}
					if err := st.Write(id, page); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}
