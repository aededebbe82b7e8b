package pagestore

import (
	"errors"
	"sync"
)

// ErrCrashed is returned by every operation on a file behind a CrashDisk
// once the simulated power loss has fired: the device is gone until the
// harness "reboots" by reopening the surviving bytes.
var ErrCrashed = errors.New("pagestore: simulated power loss")

// CrashMode selects what happens to the write on which the crash fires.
type CrashMode int

const (
	// CrashDrop loses the fatal write entirely (power failed just before
	// the controller latched it).
	CrashDrop CrashMode = iota
	// CrashTorn applies only a prefix of the fatal write (power failed
	// while the sectors were streaming out), leaving a torn page or a
	// truncated log record on the medium.
	CrashTorn
)

// CrashDisk simulates whole-device power loss. It is the crash-injection
// sibling of FaultStore, but operates one level lower: FaultStore fails
// Store operations (testing that an index surfaces storage errors), while
// CrashDisk kills the Files a FileDisk and its WAL write through (testing
// that the on-disk state a crash leaves behind is always recoverable).
//
// One controller governs all files of a simulated device, so arming it
// crashes the main file and the WAL at the same instant, exactly as a
// power cut would. Every WriteAt and Truncate across the wrapped files
// counts as one crash point; when the armed countdown reaches zero the
// fatal write is dropped or torn per the mode and every subsequent
// operation returns ErrCrashed.
type CrashDisk struct {
	mu      sync.Mutex
	left    int64 // crash points until power loss; -1 = disarmed
	mode    CrashMode
	crashed bool
	writes  int64 // total write operations observed (for planning sweeps)
}

// NewCrashDisk returns a disarmed controller.
func NewCrashDisk() *CrashDisk { return &CrashDisk{left: -1} }

// File wraps inner under this controller.
func (c *CrashDisk) File(inner File) File { return &crashFile{c: c, inner: inner} }

// Arm schedules the crash: the next after writes succeed, then the
// following write is the fatal one.
func (c *CrashDisk) Arm(after int64, mode CrashMode) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.left = after
	c.mode = mode
	c.crashed = false
}

// Disarm cancels a scheduled crash (an already-fired crash stays fired).
func (c *CrashDisk) Disarm() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.left = -1
}

// Crashed reports whether the power loss has fired.
func (c *CrashDisk) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// Writes returns the total number of write operations observed, including
// the fatal one. A disarmed pass over a workload measures how many crash
// points the workload exposes.
func (c *CrashDisk) Writes() int64 { c.mu.Lock(); defer c.mu.Unlock(); return c.writes }

// tick registers one crash point. It returns (fatal, mode): fatal is true
// on the write the power loss interrupts. If the controller has already
// crashed it returns ErrCrashed.
func (c *CrashDisk) tick() (bool, CrashMode, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return false, 0, ErrCrashed
	}
	c.writes++
	if c.left < 0 {
		return false, 0, nil
	}
	if c.left == 0 {
		c.crashed = true
		return true, c.mode, nil
	}
	c.left--
	return false, 0, nil
}

func (c *CrashDisk) dead() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return ErrCrashed
	}
	return nil
}

type crashFile struct {
	c     *CrashDisk
	inner File
}

func (f *crashFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.c.dead(); err != nil {
		return 0, err
	}
	return f.inner.ReadAt(p, off)
}

func (f *crashFile) WriteAt(p []byte, off int64) (int, error) {
	fatal, mode, err := f.c.tick()
	if err != nil {
		return 0, err
	}
	if fatal {
		if mode == CrashTorn && len(p) > 1 {
			// Apply a strict prefix; the tail never reaches the medium.
			f.inner.WriteAt(p[:len(p)/2], off)
		}
		return 0, ErrCrashed
	}
	return f.inner.WriteAt(p, off)
}

func (f *crashFile) Truncate(size int64) (err error) {
	fatal, _, err := f.c.tick()
	if err != nil {
		return err
	}
	if fatal {
		// A truncate either happens or it doesn't; the fatal one doesn't.
		return ErrCrashed
	}
	return f.inner.Truncate(size)
}

func (f *crashFile) Sync() error {
	if err := f.c.dead(); err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *crashFile) Size() (int64, error) {
	if err := f.c.dead(); err != nil {
		return 0, err
	}
	return f.inner.Size()
}

func (f *crashFile) Close() error { return f.inner.Close() }

// Slice forwards the read view of a mapped inner file, so the crash
// harness can wrap a real file and its store still reads through the
// view. After the simulated power loss the device is gone: Slice declines,
// and the store's pread fallback then fails like every other operation.
// Reads don't tick the crash countdown — only writes are crash points.
func (f *crashFile) Slice(off int64, n int) ([]byte, bool) {
	v := viewOf(f.inner)
	if v == nil || f.c.dead() != nil {
		return nil, false
	}
	return v.Slice(off, n)
}

// Map forwards to the inner file's view.
func (f *crashFile) Map(size int64) {
	if v := viewOf(f.inner); v != nil {
		v.Map(size)
	}
}

// SliceCapable reports whether the wrapped file really serves zero-copy
// slices, so capability detection (viewOf) sees through the wrapper.
func (f *crashFile) SliceCapable() bool { return viewOf(f.inner) != nil }
