//go:build linux

package pagestore

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// MmapSupported reports whether this platform maps the page file into
// memory. Where it is false, MmapDisk still works — it degrades to the
// pread path and ReadSlice returns freshly allocated copies.
const MmapSupported = true

// mmapReserveBytes is the size of the contiguous virtual-address
// reservation a mapped file lives in. Address space is reserved
// (PROT_NONE, MAP_NORESERVE), not committed: no physical memory or swap
// is charged until file chunks are mapped over it. 16 GiB bounds the
// store size per mapped file; stores that outgrow it fail loudly at the
// extending write.
var mmapReserveBytes int64 = 16 << 30

// linuxMSSync is MS_SYNC for the raw msync syscall (not exported by the
// syscall package on all configurations).
const linuxMSSync = 0x4

// mmapFile is a File whose contents are memory-mapped. The entire file
// occupies one contiguous address range inside a PROT_NONE reservation,
// so a slice of any [off, off+n) byte range is a plain subslice — no
// chunk-straddling logic, and no remapping on growth.
//
// Durability: WriteAt copies into the shared mapping and widens a dirty
// byte range; Sync runs msync(MS_SYNC) over the page-rounded dirty range
// followed by fsync (for file-size metadata). The kernel may write mapped
// pages back earlier than Sync on its own schedule — which is harmless
// under the FileDisk WAL protocol, where home-slot bytes are only ever
// written after their WAL frames are durable.
//
// Concurrency: writers and structural changes (grow, truncate, sync)
// serialize on mu; ReadAt/Slice are lock-free against the atomic size and
// rely on the invariant that every byte below size is file-backed and
// mapped (ftruncate-before-publish), so readers can never fault.
type mmapFile struct {
	mu   sync.Mutex // WriteAt/Truncate/Sync/Close; grow
	f    *os.File
	res  []byte       // whole reservation; file bytes live at res[0:size]
	size atomic.Int64 // current file size
	// mapped is the high-water mark of file-backed (PROT_READ|WRITE)
	// bytes from res[0]; always a chunk multiple ≥ size.
	mapped  atomic.Int64
	dirtyLo int64 // under mu; dirty byte range awaiting msync
	dirtyHi int64
	advice  int // last readahead madvise; re-applied to newly mapped chunks
	closed  bool
}

// openMmapFile opens (or creates) path and maps it. If the mapping cannot
// be established the file is closed and the error returned; callers fall
// back to the pread path.
func openMmapFile(path string, truncate bool) (*mmapFile, error) {
	flags := os.O_RDWR | os.O_CREATE
	if truncate {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	m, err := newMmapFile(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return m, nil
}

// newMmapFile maps an already-open file. The fd's lifetime passes to the
// returned mmapFile.
func newMmapFile(f *os.File) (*mmapFile, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() > mmapReserveBytes {
		return nil, fmt.Errorf("pagestore: file %d bytes exceeds the %d-byte mmap reservation", st.Size(), mmapReserveBytes)
	}
	res, err := syscall.Mmap(-1, 0, int(mmapReserveBytes),
		syscall.PROT_NONE, syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("pagestore: reserving %d bytes of address space: %w", mmapReserveBytes, err)
	}
	m := &mmapFile{f: f, res: res}
	m.size.Store(st.Size())
	if err := m.growMapping(st.Size()); err != nil {
		syscall.Munmap(res)
		return nil, err
	}
	return m, nil
}

// growMapping ensures at least need bytes from the start of the
// reservation are file-backed, mapping whole chunks MAP_FIXED over the
// reservation. Caller holds mu (or is the constructor).
func (m *mmapFile) growMapping(need int64) error {
	cur := m.mapped.Load()
	if need <= cur {
		return nil
	}
	if need > mmapReserveBytes {
		return fmt.Errorf("pagestore: store needs %d bytes, mmap reservation is %d", need, mmapReserveBytes)
	}
	newMapped := (need + mmapChunkBytes - 1) / mmapChunkBytes * mmapChunkBytes
	if newMapped > mmapReserveBytes {
		newMapped = mmapReserveBytes
	}
	addr := uintptr(unsafe.Pointer(&m.res[0])) + uintptr(cur)
	length := uintptr(newMapped - cur)
	prot := uintptr(syscall.PROT_READ | syscall.PROT_WRITE)
	flags := uintptr(syscall.MAP_SHARED | syscall.MAP_FIXED)
	r, _, errno := syscall.Syscall6(syscall.SYS_MMAP, addr, length, prot, flags, m.f.Fd(), uintptr(cur))
	if errno != 0 {
		return fmt.Errorf("pagestore: mapping file chunk at %d: %w", cur, errno)
	}
	if r != addr {
		return fmt.Errorf("pagestore: MAP_FIXED mapping landed at %#x, wanted %#x", r, addr)
	}
	if m.advice != 0 {
		syscall.Madvise(m.res[cur:newMapped], m.advice)
	}
	m.mapped.Store(newMapped)
	return nil
}

// ReadAt implements io.ReaderAt with os.File semantics (short read past
// EOF returns io.EOF). Lock-free; see the type comment.
func (m *mmapFile) ReadAt(p []byte, off int64) (int, error) {
	size := m.size.Load()
	if off < 0 || off >= size {
		return 0, io.EOF
	}
	end := off + int64(len(p))
	if end > size {
		end = size
	}
	n := copy(p, m.res[off:end])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt, growing the file as needed. The file is
// extended with ftruncate before the size is published, so a concurrent
// reader never touches a mapped page beyond EOF (which would SIGBUS).
func (m *mmapFile) WriteAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, os.ErrClosed
	}
	if off < 0 {
		return 0, fmt.Errorf("pagestore: negative write offset %d", off)
	}
	end := off + int64(len(p))
	if end > m.size.Load() {
		if err := m.growMapping(end); err != nil {
			return 0, err
		}
		if err := m.f.Truncate(end); err != nil {
			return 0, err
		}
		m.size.Store(end)
	}
	copy(m.res[off:end], p)
	if m.dirtyHi == 0 || off < m.dirtyLo {
		m.dirtyLo = off
	}
	if end > m.dirtyHi {
		m.dirtyHi = end
	}
	return len(p), nil
}

// Truncate implements File. Shrinking keeps the mapping in place — bytes
// beyond the new size are simply never read again (ReadAt/Slice are
// bounded by size), and a later re-extension reads back zeros, exactly
// like a real file.
func (m *mmapFile) Truncate(size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return os.ErrClosed
	}
	if size < 0 {
		return fmt.Errorf("pagestore: negative truncate size %d", size)
	}
	if size > m.size.Load() {
		if err := m.growMapping(size); err != nil {
			return err
		}
	}
	if err := m.f.Truncate(size); err != nil {
		return err
	}
	if size < m.size.Load() {
		// Published after the ftruncate so readers stop at the new EOF
		// before the underlying pages vanish.
		m.size.Store(size)
		if m.dirtyLo > size {
			m.dirtyLo = size
		}
		if m.dirtyHi > size {
			m.dirtyHi = size
		}
	} else {
		m.size.Store(size)
	}
	return nil
}

// Sync implements File: msync(MS_SYNC) over the page-rounded dirty range,
// then fsync for the file-size metadata. This is the durability barrier
// the FileDisk commit protocol relies on.
func (m *mmapFile) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return os.ErrClosed
	}
	if m.dirtyHi > m.dirtyLo {
		pg := int64(os.Getpagesize())
		lo := m.dirtyLo / pg * pg
		hi := (m.dirtyHi + pg - 1) / pg * pg
		if mapped := m.mapped.Load(); hi > mapped {
			hi = mapped
		}
		addr := uintptr(unsafe.Pointer(&m.res[0])) + uintptr(lo)
		if _, _, errno := syscall.Syscall(syscall.SYS_MSYNC, addr, uintptr(hi-lo), linuxMSSync); errno != 0 {
			return fmt.Errorf("pagestore: msync: %w", errno)
		}
	}
	m.dirtyLo, m.dirtyHi = 0, 0
	return m.f.Sync()
}

// Size implements File.
func (m *mmapFile) Size() (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, os.ErrClosed
	}
	return m.size.Load(), nil
}

// Close implements File, unmapping the reservation. Every outstanding
// slice is invalid afterwards — the FileDisk layer guarantees no reader
// holds one across Close.
func (m *mmapFile) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	err := syscall.Munmap(m.res)
	m.res = nil
	if cerr := m.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Slice implements sliceView: a zero-copy window onto the mapped file.
// Valid while [off, off+n) stays below the file size and the file stays
// open; contents track the mapping (they change when the range is
// rewritten). Full-capacity-capped so append can never scribble past it.
func (m *mmapFile) Slice(off int64, n int) ([]byte, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("pagestore: slice [%d,+%d) out of range", off, n)
	}
	end := off + int64(n)
	if end > m.size.Load() {
		return nil, fmt.Errorf("pagestore: slice [%d,%d) beyond file size %d", off, end, m.size.Load())
	}
	return m.res[off:end:end], nil
}

// Advise implements adviser, translating the portable AccessPattern to
// madvise over the mapped range. Newly mapped chunks inherit the last
// advice. Advice is a hint; failures are ignored except for EINVAL-class
// programming errors surfaced during tests.
func (m *mmapFile) Advise(p AccessPattern) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return os.ErrClosed
	}
	var adv int
	switch p {
	case AdviseNormal:
		adv = syscall.MADV_NORMAL
	case AdviseRandom:
		adv = syscall.MADV_RANDOM
	case AdviseSequential:
		adv = syscall.MADV_SEQUENTIAL
	case AdviseWillNeed:
		adv = syscall.MADV_WILLNEED
	default:
		return fmt.Errorf("pagestore: unknown access pattern %d", p)
	}
	m.advice = adv
	if mapped := m.mapped.Load(); mapped > 0 {
		return syscall.Madvise(m.res[:mapped], adv)
	}
	return nil
}

// openMappedFile is the per-platform main-file opener used by the mmap
// backend: a real mapping here, a plain pread file elsewhere or when the
// mapping cannot be established.
func openMappedFile(path string, truncate bool) (File, error) {
	m, err := openMmapFile(path, truncate)
	if err == nil {
		return m, nil
	}
	// Reservation or mapping failed (e.g. vm.overcommit limits): degrade
	// to the pread path rather than refusing to serve.
	return openOSFile(path, truncate)
}

// openExistingMappedFile is openMappedFile without O_CREATE.
func openExistingMappedFile(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	m, err := newMmapFile(f)
	if err != nil {
		f.Close()
		return openExistingOSFile(path)
	}
	return m, nil
}
