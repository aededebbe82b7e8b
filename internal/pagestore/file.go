package pagestore

import (
	"io"
	"os"
	"sync"
)

// File is the byte-addressed backing of a FileDisk and its WAL. It is the
// level at which crash consistency is implemented and, therefore, the level
// at which crashes are injected: the production implementation wraps an
// *os.File, while tests substitute a MemFile — optionally behind a
// CrashDisk, which simulates power loss at an arbitrary write.
type File interface {
	io.ReaderAt
	io.WriterAt
	// Truncate changes the file's size.
	Truncate(size int64) error
	// Sync flushes written data to stable storage (the durability barrier).
	Sync() error
	// Size returns the current file size in bytes.
	Size() (int64, error)
	// Close releases the file.
	Close() error
}

// osFile adapts *os.File to File.
type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// openOSFile opens (or creates) path for read/write.
func openOSFile(path string, truncate bool) (osFile, error) {
	flags := os.O_RDWR | os.O_CREATE
	if truncate {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	return osFile{f}, err
}

// openExistingOSFile opens without O_CREATE: a missing store file is an
// error, not an empty store.
func openExistingOSFile(path string) (osFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	return osFile{f}, err
}

// MemFile is an in-memory File. It is safe for concurrent use and retains
// its contents after Close, so a crash-simulation harness can reopen the
// surviving bytes the way a real system reopens a device after power loss.
type MemFile struct {
	mu   sync.Mutex
	data []byte
}

// NewMemFile returns an empty in-memory file.
func NewMemFile() *MemFile { return &MemFile{} }

// ReadAt implements io.ReaderAt with os.File semantics: a read past the end
// of the file returns the bytes available and io.EOF.
func (m *MemFile) ReadAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off < 0 {
		return 0, io.EOF
	}
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt, growing the file as needed.
func (m *MemFile) WriteAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if need := off + int64(len(p)); need > int64(len(m.data)) {
		grown := make([]byte, need)
		copy(grown, m.data)
		m.data = grown
	}
	copy(m.data[off:], p)
	return len(p), nil
}

// Truncate implements File.
func (m *MemFile) Truncate(size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if size <= int64(len(m.data)) {
		m.data = m.data[:size]
		return nil
	}
	grown := make([]byte, size)
	copy(grown, m.data)
	m.data = grown
	return nil
}

// Sync implements File (memory is always "durable").
func (m *MemFile) Sync() error { return nil }

// Size implements File.
func (m *MemFile) Size() (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(len(m.data)), nil
}

// Close implements File; contents remain readable through Bytes.
func (m *MemFile) Close() error { return nil }

// Bytes returns a copy of the current contents.
func (m *MemFile) Bytes() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.data...)
}
