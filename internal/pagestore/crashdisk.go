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
	// CrashUnsynced models a volatile write cache. When the power fails,
	// each file reverts to what its last Sync covered, plus a seeded
	// subset — not only a prefix — of the writes and truncates issued to
	// it since; the fatal write is one of the candidates, whole or torn.
	// CrashDrop and CrashTorn keep every write made before the crash
	// point, so a protocol that never fsyncs passes them; in this mode it
	// loses what it acknowledged.
	CrashUnsynced
)

func (m CrashMode) String() string {
	switch m {
	case CrashDrop:
		return "drop"
	case CrashTorn:
		return "torn"
	case CrashUnsynced:
		return "unsynced"
	}
	return "CrashMode(?)"
}

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
// fatal write is dropped or torn, or under CrashUnsynced every file loses
// some of what no Sync covered, and every subsequent operation returns
// ErrCrashed.
type CrashDisk struct {
	mu      sync.Mutex
	left    int64 // crash points until power loss; -1 = disarmed
	mode    CrashMode
	seed    uint64 // SetSeed's value
	rng     uint64 // CrashUnsynced's generator: seed mixed with the arm point
	crashed bool
	writes  int64 // total write operations observed (for planning sweeps)
	syncs   int64 // total Sync calls that reached the device
	files   []*crashFile
}

// NewCrashDisk returns a disarmed controller.
func NewCrashDisk() *CrashDisk { return &CrashDisk{left: -1} }

// File wraps inner under this controller. The bytes inner holds now count
// as synced.
func (c *CrashDisk) File(inner File) File {
	f := &crashFile{c: c, inner: inner}
	if n, err := inner.Size(); err == nil && n > 0 {
		f.synced = make([]byte, n)
		inner.ReadAt(f.synced, 0)
	}
	c.mu.Lock()
	c.files = append(c.files, f)
	c.mu.Unlock()
	return f
}

// Arm schedules the crash: the next after writes succeed, then the
// following write is the fatal one. Under CrashUnsynced the writes a
// crash keeps are drawn from a generator seeded with after and SetSeed's
// value, so a failing point reproduces.
func (c *CrashDisk) Arm(after int64, mode CrashMode) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.left = after
	c.mode = mode
	c.crashed = false
	c.rng = c.seed ^ uint64(after)*0x9e3779b97f4a7c15
}

// SetSeed varies the subset of unsynced writes a CrashUnsynced crash
// keeps; call it before Arm.
func (c *CrashDisk) SetSeed(seed uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seed = seed
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

// Syncs returns the number of Sync calls the wrapped files received
// before the power loss — the fsyncs a workload paid for.
func (c *CrashDisk) Syncs() int64 { c.mu.Lock(); defer c.mu.Unlock(); return c.syncs }

// tick registers one crash point. It returns (fatal, mode): fatal is true
// on the write the power loss interrupts. If the controller has already
// crashed it returns ErrCrashed. Caller holds mu.
func (c *CrashDisk) tick() (bool, CrashMode, error) {
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

// rand is a splitmix64 step. Caller holds mu.
func (c *CrashDisk) rand() uint64 {
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// loseUnsynced is CrashUnsynced's power loss: every file is rewritten to
// its synced image plus the seeded subset of its unsynced operations,
// applied in issue order. Caller holds mu.
func (c *CrashDisk) loseUnsynced() {
	for _, f := range c.files {
		img := append([]byte(nil), f.synced...)
		for _, op := range f.unsynced {
			if c.rand()&1 == 0 {
				img = op.apply(img)
			}
		}
		f.inner.Truncate(int64(len(img)))
		f.inner.WriteAt(img, 0)
		f.unsynced = nil
	}
}

// fileOp is one write (data at off) or truncate (truncate set, to off)
// that no Sync has covered yet.
type fileOp struct {
	off      int64
	data     []byte
	truncate bool
}

func (op fileOp) apply(img []byte) []byte {
	if op.truncate {
		if op.off <= int64(len(img)) {
			return img[:op.off]
		}
		return append(img, make([]byte, op.off-int64(len(img)))...)
	}
	if end := op.off + int64(len(op.data)); end > int64(len(img)) {
		img = append(img, make([]byte, end-int64(len(img)))...)
	}
	copy(img[op.off:], op.data)
	return img
}

type crashFile struct {
	c        *CrashDisk
	inner    File
	synced   []byte   // the file's bytes as of its last Sync
	unsynced []fileOp // writes and truncates since; guarded by c.mu
}

func (f *crashFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.c.dead(); err != nil {
		return 0, err
	}
	return f.inner.ReadAt(p, off)
}

func (f *crashFile) WriteAt(p []byte, off int64) (int, error) {
	f.c.mu.Lock()
	defer f.c.mu.Unlock()
	fatal, mode, err := f.c.tick()
	if err != nil {
		return 0, err
	}
	if fatal {
		switch mode {
		case CrashTorn:
			if len(p) > 1 {
				// Apply a strict prefix; the tail never reaches the medium.
				f.inner.WriteAt(p[:len(p)/2], off)
			}
		case CrashUnsynced:
			if f.c.rand()&1 == 0 {
				p = p[:len(p)/2]
			}
			f.unsynced = append(f.unsynced, fileOp{off: off, data: append([]byte(nil), p...)})
			f.c.loseUnsynced()
		}
		return 0, ErrCrashed
	}
	f.unsynced = append(f.unsynced, fileOp{off: off, data: append([]byte(nil), p...)})
	return f.inner.WriteAt(p, off)
}

func (f *crashFile) Truncate(size int64) (err error) {
	f.c.mu.Lock()
	defer f.c.mu.Unlock()
	fatal, mode, err := f.c.tick()
	if err != nil {
		return err
	}
	op := fileOp{off: size, truncate: true}
	if fatal {
		// Under CrashDrop and CrashTorn a truncate either happens or it
		// doesn't, and the fatal one doesn't; under CrashUnsynced it is a
		// candidate like any unsynced operation.
		if mode == CrashUnsynced {
			f.unsynced = append(f.unsynced, op)
			f.c.loseUnsynced()
		}
		return ErrCrashed
	}
	f.unsynced = append(f.unsynced, op)
	return f.inner.Truncate(size)
}

// Sync makes every operation issued to this file so far part of the image
// a CrashUnsynced power loss keeps.
func (f *crashFile) Sync() error {
	f.c.mu.Lock()
	defer f.c.mu.Unlock()
	if f.c.crashed {
		return ErrCrashed
	}
	f.c.syncs++
	for _, op := range f.unsynced {
		f.synced = op.apply(f.synced)
	}
	f.unsynced = nil
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
