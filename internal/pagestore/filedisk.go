package pagestore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// fileMagic identifies a pagestore file. Stored in the first 8 bytes of the
// meta page together with the format version and geometry, so reopening
// validates both.
const fileMagic uint64 = 0x424d45485f504753 // "BMEH_PGS"

// fileVersion is the on-disk format version. Version 2 introduced the
// crash-consistency layer: per-page CRC trailers, the checksummed meta
// page, and the write-ahead log. Version-1 files (which predate checksums)
// are rejected loudly rather than misread.
const fileVersion = 2

// fileHeaderSize is the number of meta-page bytes reserved for the store's
// own header; the remainder of the meta page is available to the client via
// ReadMeta/WriteMeta.
const fileHeaderSize = 32 // magic(8) version(4) pageSize(4) pageCount(4) freeHead(4) metaLen(4) commitSeq(4)

// pageTrailerSize is the per-slot trailer appended after each page's data:
// crc32(4) over data+kind, kind(1), reserved(3). The trailer both detects
// corruption and persists the page's Kind, so a reopened store knows every
// page's role.
const pageTrailerSize = 8

// walSuffix names the write-ahead log that travels with a store file.
const walSuffix = ".wal"

// FileDisk is a file-backed Store with crash consistency. On disk, each
// page occupies a slot of pageSize+pageTrailerSize bytes at offset
// id*slotSize; the trailer carries a CRC-32C over the page image and the
// page's kind. The free list is threaded through freed pages (first 4
// bytes of a free page hold the next free id).
//
// Durability model: Write, Alloc and Free stage their effects in memory;
// Sync is the commit point. A Sync journals every dirty page plus the meta
// page to the write-ahead log (path + ".wal"), fsyncs it, then writes the
// pages to their home slots, fsyncs the main file, and resets the log.
// A crash at any write therefore leaves the file recoverable to either the
// previous or the new commit: OpenFileDisk replays a fully committed log
// tail and discards an incomplete one. Checksum damage anywhere surfaces
// as an error wrapping ErrCorrupt, never a silent wrong answer.
//
// Reads: where the main file offers a read view (a MAP_SHARED mapping on
// Linux; see OpenMappedFile), committed pages are served out of it —
// zero-copy through ReadSlice, CRC-verified once per committed version.
// Pages beyond the view, and every page of a store whose File offers none
// (MemFile, the crash and fault harnesses, non-Linux builds), are read
// through pread. Writes never touch the view: pwrite and fsync only.
//
// Safe for concurrent use. The free-list head lives under allocMu (taken
// before mu), so an allocation that must read the next free slot from disk
// performs that read without holding the main lock — two splitting writers
// allocate while readers keep streaming.
type FileDisk struct {
	mu        sync.Mutex
	allocMu   sync.Mutex // freeHead hand-over-hand; ordered before mu
	f         File
	wal       *WAL
	pageSize  int
	pageCount uint32
	freeHead  PageID
	kinds     []Kind            // persisted in each slot's trailer
	dirty     map[PageID][]byte // staged page images awaiting Sync
	meta      []byte            // client meta record (staged + cached)
	metaDirty bool
	stats     Stats
	recovered int // committed WAL batches replayed when the store was opened
	closed    bool
	// commitSeq numbers committed batches, starting at 1 for the creation
	// commit. It is persisted in the meta header (as a uint32; ~4 billion
	// commits before wraparound, far beyond this store's lifetime), so a
	// reopened store resumes the sequence and a replica can tell exactly
	// which commit its copy reflects.
	commitSeq uint64
	// hook, when set, observes every committed batch: it runs under mu,
	// after the WAL has been reset, with the batch's sequence number and
	// frames (meta page last). Frames are not reused afterwards, so the
	// hook may retain them. See SetCommitHook.
	hook func(seq uint64, frames []Frame)
	// slots pools Read's slot buffers (*[]byte of slotSize bytes) for the
	// pread path, so a read that misses every cache above allocates nothing.
	slots sync.Pool
	// homeGen moves whenever home slots are rewritten (commitLocked) or
	// the file is released (Close), both under mu. Read's pread runs
	// outside mu and keeps its bytes only if homeGen stood still meanwhile.
	homeGen atomic.Uint64
	// view, when non-nil, is a read-only window onto the main file (see
	// attachView). Committed pages inside it are read straight out of the
	// mapping; writes never touch it. Set once, before the store is
	// shared, and never changed.
	view sliceView
	// verified is a per-page bitmap (only maintained when view != nil):
	// bit set = the page's slot has passed CRC verification since its
	// home bytes last changed. commitLocked clears the bit of every slot
	// it rewrites, so each committed page version is verified exactly
	// once no matter how often it is re-read. Guarded by mu.
	verified []uint64
}

// CreateFileDisk creates (truncating) a file-backed disk at path, together
// with its write-ahead log at path+".wal".
func CreateFileDisk(path string, pageSize int) (*FileDisk, error) {
	f, err := OpenMappedFile(path, true)
	if err != nil {
		return nil, err
	}
	wf, err := openOSFile(path+walSuffix, true)
	if err != nil {
		f.Close()
		return nil, err
	}
	d, err := CreateFileDiskFiles(f, wf, pageSize)
	if err != nil {
		f.Close()
		wf.Close()
		return nil, err
	}
	return d, nil
}

// CreateFileDiskFiles is CreateFileDisk over caller-supplied Files (tests
// inject MemFiles, optionally behind a CrashDisk).
func CreateFileDiskFiles(main, walFile File, pageSize int) (*FileDisk, error) {
	if pageSize < fileHeaderSize+16 {
		return nil, fmt.Errorf("pagestore: page size %d too small for file store", pageSize)
	}
	wal, err := CreateWAL(walFile, pageSize)
	if err != nil {
		return nil, err
	}
	if err := main.Truncate(0); err != nil {
		return nil, err
	}
	d := &FileDisk{
		f:         main,
		wal:       wal,
		pageSize:  pageSize,
		pageCount: 1,
		freeHead:  NilPage,
		kinds:     []Kind{KindMeta},
		dirty:     make(map[PageID][]byte),
		metaDirty: true,
	}
	// The initial commit writes the meta page through the WAL like any
	// other, so even creation is atomic: a crash mid-create leaves a file
	// that fails to open rather than one that half-opens.
	if err := d.syncLocked(); err != nil {
		return nil, err
	}
	d.attachView(main)
	return d, nil
}

// OpenFileDisk opens an existing file-backed disk, running crash recovery
// against its write-ahead log and validating the meta page's checksum and
// the free list. Damage is reported as an error wrapping ErrCorrupt.
func OpenFileDisk(path string) (*FileDisk, error) {
	of, err := openExistingOSFile(path)
	if err != nil {
		return nil, err
	}
	f := withView(of)
	// The WAL is created if absent: a store that was closed cleanly by an
	// older process may travel without one. If the open then fails — the
	// path wasn't a pagestore at all, say — a WAL we created is removed
	// again rather than left as a stray file next to a non-store.
	walPath := path + walSuffix
	_, statErr := os.Stat(walPath)
	walExisted := statErr == nil
	wf, err := openOSFile(walPath, false)
	if err != nil {
		f.Close()
		return nil, err
	}
	d, err := OpenFileDiskFiles(f, wf)
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

// OpenFileDiskFiles is OpenFileDisk over caller-supplied Files.
func OpenFileDiskFiles(main, walFile File) (*FileDisk, error) {
	// Phase 1: crash recovery. The WAL header is authoritative for the
	// geometry during replay, because the main header itself may be a
	// torn write that the committed batch repairs.
	walSize, err := walFile.Size()
	if err != nil {
		return nil, err
	}
	var wal *WAL
	recovered := 0
	if walSize >= walHeaderSize {
		wal, err = OpenWAL(walFile, 0)
		if err != nil {
			return nil, err
		}
		slot := int64(wal.PageSize() + pageTrailerSize)
		batches, err := wal.Recover(func(fr Frame) error {
			buf := encodeSlot(fr.Data, fr.Kind)
			_, werr := main.WriteAt(buf, int64(fr.ID)*slot)
			return werr
		})
		if err != nil {
			return nil, fmt.Errorf("pagestore: WAL replay: %w", err)
		}
		recovered = batches
		if batches > 0 {
			if err := main.Sync(); err != nil {
				return nil, err
			}
		}
		if err := wal.Reset(); err != nil {
			return nil, err
		}
	} else if walSize != 0 {
		// Shorter than a header: a crash during WAL creation; the main
		// file cannot contain anything durable that depends on it.
		if err := walFile.Truncate(0); err != nil {
			return nil, err
		}
	}

	// Phase 2: meta page. Geometry is unknown until the header is read,
	// and the header lives inside the checksummed slot 0 — so read the
	// fixed-size prefix first, derive the slot size, then verify.
	hdr := make([]byte, fileHeaderSize)
	if _, err := main.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("pagestore: file too small for a pagestore header: %w", ErrCorrupt)
	}
	if binary.BigEndian.Uint64(hdr[0:8]) != fileMagic {
		return nil, fmt.Errorf("pagestore: not a pagestore file (bad magic): %w", ErrCorrupt)
	}
	if v := binary.BigEndian.Uint32(hdr[8:12]); v != fileVersion {
		return nil, fmt.Errorf("pagestore: unsupported format version %d (want %d): %w", v, fileVersion, ErrCorrupt)
	}
	pageSize := int(binary.BigEndian.Uint32(hdr[12:16]))
	if pageSize < fileHeaderSize+16 || pageSize > 1<<26 {
		return nil, fmt.Errorf("pagestore: implausible page size %d: %w", pageSize, ErrCorrupt)
	}
	d := &FileDisk{
		f:         main,
		pageSize:  pageSize,
		pageCount: binary.BigEndian.Uint32(hdr[16:20]),
		freeHead:  PageID(binary.BigEndian.Uint32(hdr[20:24])),
		dirty:     make(map[PageID][]byte),
		recovered: recovered,
		commitSeq: uint64(binary.BigEndian.Uint32(hdr[28:32])),
	}
	metaPage, err := d.readSlot(0, KindMeta)
	if err != nil {
		return nil, err
	}
	metaLen := int(binary.BigEndian.Uint32(hdr[24:28]))
	if metaLen > pageSize-fileHeaderSize {
		return nil, fmt.Errorf("pagestore: meta record length %d exceeds page: %w", metaLen, ErrCorrupt)
	}
	d.meta = append([]byte(nil), metaPage[fileHeaderSize:fileHeaderSize+metaLen]...)
	if d.pageCount < 1 {
		return nil, fmt.Errorf("pagestore: page count 0: %w", ErrCorrupt)
	}
	if size, err := main.Size(); err != nil {
		return nil, err
	} else if size < int64(d.pageCount)*d.slotSize() {
		return nil, fmt.Errorf("pagestore: file holds %d bytes, header claims %d pages: %w", size, d.pageCount, ErrCorrupt)
	}
	if wal == nil {
		if wal, err = CreateWAL(walFile, pageSize); err != nil {
			return nil, err
		}
	} else if wal.PageSize() != pageSize {
		return nil, fmt.Errorf("pagestore: WAL page size %d, store page size %d: %w", wal.PageSize(), pageSize, ErrCorrupt)
	}
	d.wal = wal

	// Phase 3: rebuild the kind table from the slot trailers.
	d.kinds = make([]Kind, d.pageCount)
	d.kinds[0] = KindMeta
	tr := make([]byte, pageTrailerSize)
	for id := PageID(1); uint32(id) < d.pageCount; id++ {
		if _, err := main.ReadAt(tr, int64(id)*d.slotSize()+int64(d.pageSize)); err != nil {
			return nil, fmt.Errorf("pagestore: reading trailer of page %d: %w", id, ErrCorrupt)
		}
		k := Kind(tr[4])
		if k > KindDirectory {
			return nil, fmt.Errorf("pagestore: page %d has invalid kind %d: %w", id, tr[4], ErrCorrupt)
		}
		d.kinds[id] = k
	}

	// Phase 4: walk the free list, bounded by pageCount with cycle
	// detection, verifying each free page's checksum as it is read. A
	// damaged file can therefore never hang the walk or index out of
	// bounds — it reports ErrCorrupt.
	seen := make(map[PageID]bool, 8)
	for id := d.freeHead; id != NilPage; {
		if uint32(id) >= d.pageCount {
			return nil, fmt.Errorf("pagestore: free list points at page %d of %d: %w", id, d.pageCount, ErrCorrupt)
		}
		if seen[id] {
			return nil, fmt.Errorf("pagestore: free list cycle at page %d: %w", id, ErrCorrupt)
		}
		if len(seen) >= int(d.pageCount) {
			return nil, fmt.Errorf("pagestore: free list longer than the file: %w", ErrCorrupt)
		}
		if d.kinds[id] != KindFree {
			return nil, fmt.Errorf("pagestore: free list includes %v page %d: %w", d.kinds[id], id, ErrCorrupt)
		}
		seen[id] = true
		page, err := d.readSlot(id, KindFree)
		if err != nil {
			return nil, err
		}
		id = PageID(binary.BigEndian.Uint32(page[:4]))
	}
	d.attachView(main)
	return d, nil
}

// attachView gives the store main's read view, if main offers one, and
// maps every committed slot into it. Creation and open-time recovery and
// validation have already run through pread, so the verified bitmap starts
// empty and each slot is CRC-checked on its first read through the view.
// Runs before the store is shared.
func (d *FileDisk) attachView(main File) {
	if v := viewOf(main); v != nil {
		d.view = v
		d.verified = make([]uint64, (int(d.pageCount)+63)/64)
		v.Map(int64(d.pageCount) * d.slotSize())
	}
}

func (d *FileDisk) slotSize() int64 { return int64(d.pageSize + pageTrailerSize) }

// slotChecksum covers the page image and the trailer's kind + reserved
// bytes — everything in the slot except the checksum field itself, so any
// flipped bit in a slot is detectable.
func slotChecksum(data, tail []byte) uint32 {
	c := crc32.Update(0, crcTable, data)
	return crc32.Update(c, crcTable, tail)
}

// encodeSlot lays out a page image plus its checksum trailer.
func encodeSlot(data []byte, kind Kind) []byte {
	buf := make([]byte, len(data)+pageTrailerSize)
	copy(buf, data)
	buf[len(data)+4] = byte(kind)
	binary.BigEndian.PutUint32(buf[len(data):], slotChecksum(data, buf[len(data)+4:]))
	return buf
}

// verifySlot checks a slot image (page + trailer) against its CRC-32C
// trailer and expected kind.
func verifySlot(buf []byte, pageSize int, id PageID, want Kind) error {
	crc := binary.BigEndian.Uint32(buf[pageSize:])
	k := Kind(buf[pageSize+4])
	if slotChecksum(buf[:pageSize], buf[pageSize+4:]) != crc {
		return fmt.Errorf("pagestore: page %d checksum mismatch: %w", id, ErrCorrupt)
	}
	if k != want {
		return fmt.Errorf("pagestore: page %d is %v, expected %v: %w", id, k, want, ErrCorrupt)
	}
	return nil
}

// readSlot reads and verifies one slot, returning the page image — a
// window onto the mapping when the slot lies inside the view (callers
// must not retain it past their lock scope), a fresh buffer otherwise. It
// does not count toward Stats (open-time and internal reads are free, like
// the paper's pinned root). Safe without mu: the view field is immutable
// once the store is shared and the verified bitmap is not consulted here.
func (d *FileDisk) readSlot(id PageID, want Kind) ([]byte, error) {
	if v := d.view; v != nil {
		if sl, ok := v.Slice(int64(id)*d.slotSize(), int(d.slotSize())); ok {
			if err := verifySlot(sl, d.pageSize, id, want); err != nil {
				return nil, err
			}
			return sl[:d.pageSize:d.pageSize], nil
		}
	}
	buf := make([]byte, d.slotSize())
	if err := d.preadSlot(buf, id, want); err != nil {
		return nil, err
	}
	return buf[:d.pageSize], nil
}

// preadSlot reads one slot into buf (slotSize bytes) and verifies it.
func (d *FileDisk) preadSlot(buf []byte, id PageID, want Kind) error {
	if _, err := d.f.ReadAt(buf, int64(id)*d.slotSize()); err != nil {
		return fmt.Errorf("pagestore: page %d unreadable: %w", id, ErrCorrupt)
	}
	return verifySlot(buf, d.pageSize, id, want)
}

// isVerified/markVerified/clearVerified maintain the verify-once bitmap.
// All require mu.
func (d *FileDisk) isVerified(id PageID) bool {
	w := int(id >> 6)
	return w < len(d.verified) && d.verified[w]&(1<<(id&63)) != 0
}

func (d *FileDisk) markVerified(id PageID) {
	w := int(id >> 6)
	for w >= len(d.verified) {
		d.verified = append(d.verified, 0)
	}
	d.verified[w] |= 1 << (id & 63)
}

func (d *FileDisk) clearVerified(id PageID) {
	w := int(id >> 6)
	if w < len(d.verified) {
		d.verified[w] &^= 1 << (id & 63)
	}
}

// mappedLocked is the hot-path variant of readSlot: it returns the slot's
// page as a window onto the view, skipping CRC re-verification of slots
// whose bytes have not changed since they last passed (the bitmap is
// invalidated per slot at commit). It returns nil, nil when the slot lies
// outside the view or there is none; the caller then preads. Caller holds
// mu; the window must not be retained past the caller's read-lock scope.
func (d *FileDisk) mappedLocked(id PageID) ([]byte, error) {
	if d.view == nil {
		return nil, nil
	}
	sl, ok := d.view.Slice(int64(id)*d.slotSize(), int(d.slotSize()))
	if !ok {
		return nil, nil
	}
	if !d.isVerified(id) {
		if err := verifySlot(sl, d.pageSize, id, d.kinds[id]); err != nil {
			return nil, err
		}
		d.markVerified(id)
	}
	return sl[:d.pageSize:d.pageSize], nil
}

// composeMetaPage builds the meta page image: store header, then the
// client meta record, zero-padded to pageSize. seq is the commit sequence
// number the page will belong to.
func (d *FileDisk) composeMetaPage(seq uint64) []byte {
	page := make([]byte, d.pageSize)
	binary.BigEndian.PutUint64(page[0:8], fileMagic)
	binary.BigEndian.PutUint32(page[8:12], fileVersion)
	binary.BigEndian.PutUint32(page[12:16], uint32(d.pageSize))
	binary.BigEndian.PutUint32(page[16:20], d.pageCount)
	binary.BigEndian.PutUint32(page[20:24], uint32(d.freeHead))
	binary.BigEndian.PutUint32(page[24:28], uint32(len(d.meta)))
	binary.BigEndian.PutUint32(page[28:32], uint32(seq))
	copy(page[fileHeaderSize:], d.meta)
	return page
}

// PageSize implements Store.
func (d *FileDisk) PageSize() int { return d.pageSize }

// PageCount returns the number of page slots in the file, meta page
// included (diagnostic tooling).
func (d *FileDisk) PageCount() uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pageCount
}

// stagedOrDisk returns the current image of an allocated page. Caller
// holds mu; the result may be a window onto the mapping (verify-once), so
// it must not be retained past the mu scope.
func (d *FileDisk) stagedOrDisk(id PageID) ([]byte, error) {
	if p, ok := d.dirty[id]; ok {
		return p, nil
	}
	if p, err := d.mappedLocked(id); p != nil || err != nil {
		return p, err
	}
	return d.readSlot(id, d.kinds[id])
}

// Alloc implements Store. allocMu pins the free-list head for the whole
// pop, so the next-pointer read — a disk read when the free page is not
// staged — runs without the main lock: Free cannot move the head
// underneath us (it takes allocMu too), the slot's image cannot change (a
// KindFree page rejects Write and re-Free), and Sync cannot be rewriting
// the slot (a staged image is read from memory instead, and syncLocked
// clears the staging map only under mu).
func (d *FileDisk) Alloc(kind Kind) (PageID, error) {
	if kind == KindFree || kind == KindMeta {
		return NilPage, fmt.Errorf("pagestore: cannot allocate page of kind %v", kind)
	}
	d.allocMu.Lock()
	defer d.allocMu.Unlock()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return NilPage, ErrClosed
	}
	d.stats.Allocs++
	id := d.freeHead
	var staged []byte
	if id != NilPage {
		staged = d.dirty[id]
	}
	d.mu.Unlock()
	var next PageID
	if id != NilPage {
		page := staged
		if page == nil {
			var err error
			page, err = d.readSlot(id, KindFree)
			if err != nil {
				return NilPage, err
			}
		}
		next = PageID(binary.BigEndian.Uint32(page[:4]))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return NilPage, ErrClosed
	}
	if id != NilPage {
		d.freeHead = next
	} else {
		id = PageID(d.pageCount)
		d.pageCount++
		d.kinds = append(d.kinds, KindFree)
	}
	d.kinds[id] = kind
	d.dirty[id] = make([]byte, d.pageSize)
	d.metaDirty = true
	return id, nil
}

// Free implements Store. It takes allocMu first, like Alloc, so the
// free-list head moves under one consistent lock.
func (d *FileDisk) Free(id PageID) error {
	d.allocMu.Lock()
	defer d.allocMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if err := d.checkLocked(id); err != nil {
		return err
	}
	page := make([]byte, d.pageSize)
	binary.BigEndian.PutUint32(page[:4], uint32(d.freeHead))
	d.dirty[id] = page
	d.freeHead = id
	d.kinds[id] = KindFree
	d.metaDirty = true
	d.stats.Frees++
	return nil
}

// Read implements Store. A checksum mismatch on the on-disk page returns
// an error wrapping ErrCorrupt and leaves buf untouched. A page inside the
// read view is copied out of the mapping under mu, so a concurrent commit
// can never hand Read a torn image. Any other committed page is read
// through pread, which allocates nothing and holds mu only around its
// bookkeeping: the slot lands in a pooled buffer outside the lock, is
// verified there, and only then copied out, so concurrent readers never
// wait on one another's syscalls.
func (d *FileDisk) Read(id PageID, buf []byte) error {
	_, err := d.read(id, buf, true)
	return err
}

// ReadSlice implements SliceReader. Staged (written-but-uncommitted) pages
// are served from the staging buffer — those buffers are replaced, never
// mutated, so they are stable too. Committed pages inside the read view
// come straight from the mapping, CRC-verified once per committed version;
// any other page is read into buf exactly as Read does.
func (d *FileDisk) ReadSlice(id PageID, buf []byte) ([]byte, error) {
	return d.read(id, buf, false)
}

// read serves Read (copyOut) and ReadSlice.
func (d *FileDisk) read(id PageID, buf []byte, copyOut bool) ([]byte, error) {
	d.mu.Lock()
	page, err := d.inMemoryLocked(id, buf, copyOut)
	if err == nil {
		d.stats.Reads++
	}
	if err != nil || page != nil {
		d.mu.Unlock()
		return page, err
	}
	kind, gen := d.kinds[id], d.homeGen.Load()
	d.mu.Unlock()
	slot := d.slotBuf()
	defer d.slots.Put(slot)
	err = d.preadSlot(*slot, id, kind)
	if d.homeGen.Load() != gen {
		// A commit rewrote home slots, or Close released the file, while
		// the pread ran, so the bytes may be torn. Read again holding mu,
		// which both of those hold.
		d.mu.Lock()
		defer d.mu.Unlock()
		if page, err = d.inMemoryLocked(id, buf, copyOut); err != nil || page != nil {
			return page, err
		}
		err = d.preadSlot(*slot, id, d.kinds[id])
	}
	if err != nil {
		return nil, err
	}
	return buf[:copy(buf[:d.pageSize], *slot)], nil
}

// inMemoryLocked checks a read and serves it when the page is held in
// memory — staged, or inside the read view — returning the image itself,
// or buf holding a copy of it with copyOut. It returns nil, nil when the
// page must be read from its home slot instead. Caller holds mu.
func (d *FileDisk) inMemoryLocked(id PageID, buf []byte, copyOut bool) ([]byte, error) {
	if d.closed {
		return nil, ErrClosed
	}
	if err := d.checkLocked(id); err != nil {
		return nil, err
	}
	if len(buf) < d.pageSize {
		return nil, fmt.Errorf("pagestore: read buffer %d bytes < page size %d: %w", len(buf), d.pageSize, ErrShortBuffer)
	}
	page, staged := d.dirty[id]
	if !staged {
		var err error
		if page, err = d.mappedLocked(id); page == nil || err != nil {
			return nil, err
		}
	}
	if copyOut {
		return buf[:copy(buf[:d.pageSize], page)], nil
	}
	return page[:d.pageSize:d.pageSize], nil
}

// slotBuf returns a slot-sized buffer from d.slots; Put it back after use.
func (d *FileDisk) slotBuf() *[]byte {
	if b, ok := d.slots.Get().(*[]byte); ok {
		return b
	}
	b := make([]byte, d.slotSize())
	return &b
}

// Write implements Store. The page image is staged in memory; it reaches
// the file — through the write-ahead log — at the next Sync.
func (d *FileDisk) Write(id PageID, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if err := d.checkLocked(id); err != nil {
		return err
	}
	if len(data) > d.pageSize {
		return ErrPageSize
	}
	page := make([]byte, d.pageSize)
	copy(page, data)
	d.dirty[id] = page
	d.stats.Writes++
	return nil
}

// ReadMeta copies the client meta record (everything after the store
// header on the meta page) into buf and returns the number of bytes
// copied, at most the record's stored length. Not counted as a disk read
// (the superblock is assumed resident, like the paper's pinned root).
func (d *FileDisk) ReadMeta(buf []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	return copy(buf, d.meta), nil
}

// WriteMeta stages client metadata for the meta page; it is committed,
// checksummed with the header, at the next Sync. Writing bytes identical
// to the current record is a no-op: it stages nothing, so a redundant
// meta write never forces a commit. Replicas depend on this — their
// shutdown path writes back the meta they already hold, and a staged
// commit there would advance the replica's sequence past the primary's.
func (d *FileDisk) WriteMeta(data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if len(data) > d.pageSize-fileHeaderSize {
		return ErrPageSize
	}
	if bytes.Equal(d.meta, data) {
		return nil
	}
	d.meta = append(d.meta[:0], data...)
	d.metaDirty = true
	return nil
}

// KindOf implements Store.
func (d *FileDisk) KindOf(id PageID) (Kind, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.kinds) {
		return KindFree, ErrOutOfRange
	}
	return d.kinds[id], nil
}

// Stats implements Store.
func (d *FileDisk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats implements Store.
func (d *FileDisk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}

// Allocated implements Store.
func (d *FileDisk) Allocated() map[Kind]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[Kind]int)
	for _, k := range d.kinds[1:] {
		if k != KindFree {
			out[k]++
		}
	}
	return out
}

// CheckPages re-reads every slot in the file — the meta page, allocated
// pages, and free pages alike — and verifies each checksum trailer. It
// returns the number of slots scanned, how many of them are free, and one
// error per damaged slot (each wrapping ErrCorrupt). Staged writes are not
// consulted: the scan judges what is durable on disk, so run it on a
// freshly opened or synced store.
func (d *FileDisk) CheckPages() (pages, free int, problems []error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, 0, []error{ErrClosed}
	}
	for id := PageID(0); uint32(id) < d.pageCount; id++ {
		if _, err := d.readSlot(id, d.kinds[id]); err != nil {
			problems = append(problems, err)
		}
		pages++
		if d.kinds[id] == KindFree {
			free++
		}
	}
	return pages, free, problems
}

// RecoveredCommits reports how many committed write-ahead-log batches
// open-time recovery replayed into the file. Zero means the previous
// process committed and reset its log before exiting — a clean shutdown;
// a positive count means the store came back from a crash that left a
// durable-but-unapplied commit in the log.
func (d *FileDisk) RecoveredCommits() int { return d.recovered }

// Dirty returns the number of staged pages awaiting Sync (observability
// aid; large batches cost memory until committed).
func (d *FileDisk) Dirty() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.dirty)
}

// Sync atomically commits all staged writes: it journals every dirty page
// and the meta page to the WAL, fsyncs, applies them to their home slots,
// fsyncs the main file, and resets the WAL. After Sync returns, the commit
// survives any crash; if Sync fails, the previous commit survives instead.
// Callers that want concurrent Syncs to share one commit wrap the commit
// sequence in a GroupCommitter, as bmeh.Index does.
func (d *FileDisk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.syncLocked()
}

func (d *FileDisk) syncLocked() error {
	if len(d.dirty) == 0 && !d.metaDirty {
		return d.f.Sync()
	}
	// The sequence number is assigned only when the commit succeeds, so a
	// failed Sync retried later does not skip a number.
	return d.commitLocked(d.commitSeq + 1)
}

// commitLocked runs one atomic commit of the staged writes as batch seq:
// WAL journal, fsync, home-slot writes, fsync, WAL reset. On success the
// store's commit sequence becomes seq and the commit hook (if any)
// observes the batch.
func (d *FileDisk) commitLocked(seq uint64) error {
	ids := make([]PageID, 0, len(d.dirty))
	for id := range d.dirty {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	frames := make([]Frame, 0, len(ids)+1)
	for _, id := range ids {
		frames = append(frames, Frame{ID: id, Kind: d.kinds[id], Data: d.dirty[id]})
	}
	// The meta page rides in every batch: pageCount, freeHead and the
	// commit sequence must commit atomically with the pages that made
	// them change.
	frames = append(frames, Frame{ID: 0, Kind: KindMeta, Data: d.composeMetaPage(seq)})
	if err := d.wal.Commit(frames); err != nil {
		return err
	}
	d.homeGen.Add(1)
	for _, fr := range frames {
		if _, err := d.f.WriteAt(encodeSlot(fr.Data, fr.Kind), int64(fr.ID)*d.slotSize()); err != nil {
			return err
		}
		if d.view != nil {
			// The slot's durable bytes just changed; the next zero-copy
			// read must re-verify it against the fresh trailer.
			d.clearVerified(fr.ID)
		}
	}
	if d.view != nil {
		// Every slot below pageCount now exists in the file (each page
		// allocated since the last commit was staged, so this batch wrote
		// it): the view may cover them all.
		d.view.Map(int64(d.pageCount) * d.slotSize())
	}
	if err := d.f.Sync(); err != nil {
		return err
	}
	if err := d.wal.Reset(); err != nil {
		return err
	}
	d.dirty = make(map[PageID][]byte)
	d.metaDirty = false
	d.commitSeq = seq
	// The hook fires after the WAL reset, i.e. after the checkpoint
	// barrier: by the time a subscriber sees the batch it is already home
	// in the main file, so nothing the subscriber does can race the
	// truncation. The frames are fresh allocations (the dirty map was
	// just replaced), so the hook may keep them.
	if d.hook != nil {
		d.hook(seq, frames)
	}
	return nil
}

// Close commits staged writes and releases both files.
func (d *FileDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	err := d.syncLocked()
	d.homeGen.Add(1)
	if werr := d.wal.Close(); err == nil {
		err = werr
	}
	if ferr := d.f.Close(); err == nil {
		err = ferr
	}
	return err
}

func (d *FileDisk) checkLocked(id PageID) error {
	switch {
	case id == NilPage:
		return ErrNilPage
	case uint32(id) >= d.pageCount:
		return ErrOutOfRange
	case d.kinds[id] == KindFree:
		return ErrFreedPage
	}
	return nil
}
