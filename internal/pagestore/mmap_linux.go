//go:build linux

package pagestore

import (
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// MmapSupported reports whether this platform maps store files for reads.
// Where it is false, every page read takes the pread path.
const MmapSupported = true

// mmapFile is an OS file with a read-only MAP_SHARED view of its bytes.
// Writes, truncation and fsync go to the file itself (pwrite, ftruncate,
// fsync) exactly as for a plain file; the view only serves reads. The
// file occupies one contiguous range inside a PROT_NONE reservation, so a
// window onto any [off, off+n) is a plain subslice, and growth maps new
// chunks behind the old ones without moving them.
//
// Slice is lock-free against the atomic size. Every byte below size is
// mapped and exists in the file: Map publishes only what the store has
// already written, and Truncate withdraws bytes before the file loses
// them, so a reader can never fault on a page past end of file.
type mmapFile struct {
	osFile
	mu  sync.Mutex // Map, Truncate, Close
	res []byte     // whole reservation; file bytes live at res[0:size]
	// mapped is the high-water mark of file-backed bytes from res[0], a
	// chunk multiple; limit caps it (the reservation's end, or where a
	// failed mmap stopped growth for good).
	mapped, limit int64
	size          atomic.Int64 // bytes Slice may serve
}

// withView reserves address space for a read view of f. If the
// reservation fails (vm.overcommit limits, say) f is returned as is and
// its store reads through pread.
func withView(f osFile) File {
	res, err := syscall.Mmap(-1, 0, int(mmapReserveBytes),
		syscall.PROT_NONE, syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		return f
	}
	return &mmapFile{osFile: f, res: res, limit: int64(len(res))}
}

// Map implements sliceView, mapping whole chunks MAP_FIXED over the
// reservation as the file grows.
func (m *mmapFile) Map(size int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.res == nil || size <= m.size.Load() {
		return
	}
	if size > m.mapped && m.mapped < m.limit {
		grown := min((size+mmapChunkBytes-1)/mmapChunkBytes*mmapChunkBytes, m.limit)
		addr := uintptr(unsafe.Pointer(&m.res[0])) + uintptr(m.mapped)
		r, _, errno := syscall.Syscall6(syscall.SYS_MMAP, addr, uintptr(grown-m.mapped),
			syscall.PROT_READ, syscall.MAP_SHARED|syscall.MAP_FIXED, m.Fd(), uintptr(m.mapped))
		if errno == 0 && r == addr {
			m.mapped = grown
		} else {
			// A failed MAP_FIXED may have left a hole in the reservation;
			// never map into it again.
			m.limit = m.mapped
		}
	}
	m.size.Store(min(size, m.mapped))
}

// Slice implements sliceView. The window is capped at full capacity so
// append can never scribble past it.
func (m *mmapFile) Slice(off int64, n int) ([]byte, bool) {
	end := off + int64(n)
	if off < 0 || n < 0 || end > m.size.Load() {
		return nil, false
	}
	return m.res[off:end:end], true
}

// Truncate implements File. A shrink leaves the view's size at most the
// new length before the file gives the bytes up; the mapping itself stays
// in place, and a later Map re-exposes the range once it is rewritten.
func (m *mmapFile) Truncate(size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if size < m.size.Load() {
		m.size.Store(size)
	}
	return m.osFile.Truncate(size)
}

// Close implements File, unmapping the reservation. Every outstanding
// slice is invalid afterwards — the FileDisk layer guarantees no reader
// holds one across Close. Idempotent, so a harness may close a file its
// store already closed.
func (m *mmapFile) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.res == nil {
		return nil
	}
	m.size.Store(0)
	err := syscall.Munmap(m.res)
	m.res = nil
	if cerr := m.osFile.Close(); err == nil {
		err = cerr
	}
	return err
}
