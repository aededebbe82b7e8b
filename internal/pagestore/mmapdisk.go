package pagestore

import (
	"fmt"
	"os"
	"sync/atomic"
)

// AccessPattern is a portable madvise hint for a mapped store: point-read
// workloads want AdviseRandom (no readahead), sequential sweeps — bulk
// load, range scans, snapshot streaming — want AdviseSequential. On
// stores without a mapping, Advise is a no-op.
type AccessPattern int

const (
	// AdviseNormal restores the kernel's default readahead.
	AdviseNormal AccessPattern = iota
	// AdviseRandom disables readahead (point-read workloads).
	AdviseRandom
	// AdviseSequential enables aggressive readahead (scans, bulk load).
	AdviseSequential
	// AdviseWillNeed asks the kernel to start faulting the range in.
	AdviseWillNeed
)

func (p AccessPattern) String() string {
	switch p {
	case AdviseNormal:
		return "normal"
	case AdviseRandom:
		return "random"
	case AdviseSequential:
		return "sequential"
	case AdviseWillNeed:
		return "willneed"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// mmapChunkBytes is the granularity at which file-backed mappings are
// placed into the address-space reservation. Growth maps the next
// chunk(s) with MAP_FIXED at the reserved address — existing chunks are
// never moved or remapped, which is what keeps outstanding zero-copy
// slices valid across file growth. Must be a multiple of the OS page
// size. (Declared here, platform-neutrally, so tests can reason about
// chunk boundaries everywhere; only the Linux mapping code consumes it.)
const mmapChunkBytes int64 = 4 << 20

// sliceView is the zero-copy contract a File may offer: a window straight
// onto its bytes. mmapFile implements it; crashFile forwards it so the
// crash harness can wrap a mapped store.
type sliceView interface {
	// Slice returns file bytes [off, off+n) without copying. The slice
	// stays valid (same backing memory) until the file is closed; its
	// contents track the file.
	Slice(off int64, n int) ([]byte, error)
}

// sliceCapabler lets a wrapping File (crashFile) report whether the file
// underneath it actually supports Slice, so capability detection sees
// through wrappers whose Slice would just return an error.
type sliceCapabler interface {
	SliceCapable() bool
}

// adviser is the madvise contract a File may offer.
type adviser interface {
	Advise(p AccessPattern) error
}

// viewOf returns f as a sliceView if it can genuinely serve zero-copy
// slices, seeing through capability-reporting wrappers.
func viewOf(f File) sliceView {
	if c, ok := f.(sliceCapabler); ok && !c.SliceCapable() {
		return nil
	}
	if v, ok := f.(sliceView); ok {
		return v
	}
	return nil
}

// SliceReader is implemented by stores that can serve a page read as a
// zero-copy slice. The returned slice is exactly PageSize bytes and
// read-only by convention. Lifetime discipline (see DESIGN.md): the
// slice's *contents* are stable until the next commit that rewrites the
// page — under the index's locking that means for as long as the caller
// holds the read lock it read under — and the slice's *memory* stays
// valid until the store is closed. Callers that outlive the read lock
// must copy. There is no byte cache in the store stack: the OS page cache
// fills that role, and the core's decoded-object cache sits directly on
// top of this read path.
type SliceReader interface {
	// ReadSlice returns the page's current image without copying when the
	// backend is mapped (a fresh copy otherwise). Counts one disk read.
	ReadSlice(id PageID) ([]byte, error)
}

// OpenMappedFile opens (or, with truncate, creates) path as a
// memory-mapped File when the platform supports it, falling back to a
// plain pread file otherwise. Crash and fault harnesses use it to build
// mmap-backed stores over wrapped files (CrashDisk.File); production
// callers use CreateMmapDisk/OpenMmapDisk instead.
func OpenMappedFile(path string, truncate bool) (File, error) {
	return openMappedFile(path, truncate)
}

// MmapStats counts how ReadSlice calls were served, so benchmarks can
// assert the "zero per-read page copies" property instead of assuming it.
type MmapStats struct {
	// ZeroCopyReads were served as windows onto the mapping.
	ZeroCopyReads uint64 `json:"zero_copy_reads"`
	// CopiedReads fell back to an allocated copy (unmapped backend).
	CopiedReads uint64 `json:"copied_reads"`
	// StagedReads were served from the in-memory staging area (pages
	// written since the last commit); no disk image exists for them yet.
	StagedReads uint64 `json:"staged_reads"`
}

// MmapDisk is FileDisk over a memory-mapped main file: identical on-disk
// format (a file created by either backend opens under the other, and
// Fsck applies unchanged), identical WAL-first commit protocol — stage in
// memory, journal to the WAL, fsync the WAL, apply to the mapped home
// slots, msync at the commit barrier, reset the WAL — plus a zero-copy
// read path:
//
//   - ReadSlice hands out windows straight onto the mapping, checked
//     against the CRC-32C slot trailer the first time each committed page
//     version is read (the verified bitmap is invalidated per page at
//     commit, so a rewritten slot is re-verified exactly once).
//   - Advise forwards madvise hints (RANDOM for point reads, SEQUENTIAL
//     for scans and bulk load).
//
// On platforms (or files) where the mapping cannot be established,
// everything still works: the view is nil, ReadSlice returns verified
// copies, Advise is a no-op, and ZeroCopy reports false.
type MmapDisk struct {
	*FileDisk
	zeroReads   atomic.Uint64
	copiedReads atomic.Uint64
	stagedReads atomic.Uint64
}

// CreateMmapDisk creates (truncating) a mapped file-backed disk at path,
// with its write-ahead log at path+".wal". The WAL stays an ordinary
// appended-and-fsynced file — mapping it would buy nothing, it is written
// once per commit and never read back except in recovery.
func CreateMmapDisk(path string, pageSize int) (*MmapDisk, error) {
	f, err := openMappedFile(path, true)
	if err != nil {
		return nil, err
	}
	wf, err := openOSFile(path+walSuffix, true)
	if err != nil {
		f.Close()
		return nil, err
	}
	d, err := CreateMmapDiskFiles(f, wf, pageSize)
	if err != nil {
		f.Close()
		wf.Close()
		return nil, err
	}
	return d, nil
}

// CreateMmapDiskFiles is CreateMmapDisk over caller-supplied Files (tests
// inject crash-wrapped mapped files).
func CreateMmapDiskFiles(main, walFile File, pageSize int) (*MmapDisk, error) {
	fd, err := CreateFileDiskFiles(main, walFile, pageSize)
	if err != nil {
		return nil, err
	}
	return attachView(fd, main), nil
}

// OpenMmapDisk opens an existing disk through the mapped backend, with
// the same crash recovery and validation as OpenFileDisk.
func OpenMmapDisk(path string) (*MmapDisk, error) {
	f, err := openExistingMappedFile(path)
	if err != nil {
		return nil, err
	}
	walPath := path + walSuffix
	_, statErr := os.Stat(walPath)
	walExisted := statErr == nil
	wf, err := openOSFile(walPath, false)
	if err != nil {
		f.Close()
		return nil, err
	}
	d, err := OpenMmapDiskFiles(f, wf)
	if err != nil {
		f.Close()
		wf.Close()
		if !walExisted {
			os.Remove(walPath)
		}
		return nil, err
	}
	return d, nil
}

// OpenMmapDiskFiles is OpenMmapDisk over caller-supplied Files.
func OpenMmapDiskFiles(main, walFile File) (*MmapDisk, error) {
	fd, err := OpenFileDiskFiles(main, walFile)
	if err != nil {
		return nil, err
	}
	return attachView(fd, main), nil
}

// attachView wires the zero-copy view into the FileDisk when the main
// file supports it. Recovery and open-time validation have already run
// with view == nil (copying reads), so the verified bitmap starts empty
// and every slot is CRC-checked on its first zero-copy read.
func attachView(fd *FileDisk, main File) *MmapDisk {
	if v := viewOf(main); v != nil {
		fd.mu.Lock()
		fd.view = v
		fd.verified = make([]uint64, (int(fd.pageCount)+63)/64)
		fd.mu.Unlock()
	}
	return &MmapDisk{FileDisk: fd}
}

// ZeroCopy reports whether reads are served straight out of a mapping.
func (d *MmapDisk) ZeroCopy() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.view != nil
}

// ReadSlice implements SliceReader. Staged (written-but-uncommitted)
// pages are served from the staging buffer — those buffers are replaced,
// never mutated, so they are stable too. Committed pages come straight
// from the mapping, CRC-verified once per committed version.
func (d *MmapDisk) ReadSlice(id PageID) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	if err := d.checkLocked(id); err != nil {
		return nil, err
	}
	if p, ok := d.dirty[id]; ok {
		d.stats.Reads++
		d.stagedReads.Add(1)
		return p[:d.pageSize:d.pageSize], nil
	}
	page, err := d.slotViewLocked(id)
	if err != nil {
		return nil, err
	}
	d.stats.Reads++
	if d.view != nil {
		d.zeroReads.Add(1)
	} else {
		d.copiedReads.Add(1)
	}
	return page, nil
}

// MmapStats reports how ReadSlice calls have been served.
func (d *MmapDisk) MmapStats() MmapStats {
	return MmapStats{
		ZeroCopyReads: d.zeroReads.Load(),
		CopiedReads:   d.copiedReads.Load(),
		StagedReads:   d.stagedReads.Load(),
	}
}

// Advise forwards an access-pattern hint to the mapped file (no-op when
// the backend is not mapped).
func (d *MmapDisk) Advise(p AccessPattern) error {
	d.mu.Lock()
	f := d.f
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if a, ok := f.(adviser); ok {
		return a.Advise(p)
	}
	return nil
}
