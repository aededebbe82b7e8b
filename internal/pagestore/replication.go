package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file is the storage half of WAL shipping. A primary publishes every
// committed batch — the exact frames its own WAL just journaled, tagged
// with a monotonically increasing commit sequence number — through a hook
// installed with SetCommitHook. A replica feeds those batches to
// ApplyReplicated, which journals them in the replica's own WAL before
// writing them home, so a replica is crash-consistent by the same argument
// as a primary, and checkpoints after every batch (a replica acknowledges
// no client, so its log stays empty between batches). The log and
// checkpoint fsyncs run outside the store's main lock and outside the
// caller's, so replica reads wait only for the home writes. A replica that
// is too far behind for the primary's in-memory segment history is
// reseeded with a full snapshot (SnapshotPages on the primary,
// ApplySnapshot on the replica).
//
// Because both sides write identical page images at identical offsets,
// re-encode the meta page from identical fields, and checkpoint their WALs
// to a bare header on clean close, a caught-up replica's file is
// byte-for-byte equal to the primary's.

// ErrReplicaGap reports a replicated batch whose sequence number does not
// directly follow the store's commit sequence: one or more batches are
// missing and the subscriber must resynchronize (replay from the primary's
// segment history, or take a snapshot).
var ErrReplicaGap = errors.New("pagestore: replication gap")

// SetCommitHook installs fn as the store's commit observer. After every
// successful commit, fn runs — under the store's lock, so strictly in
// commit order, after the batch's WAL fsync and its home-slot writes, and
// before any checkpoint that commit triggers — with the batch's sequence
// number and frames (home pages first, meta page last). The batch is
// durable when fn sees it. The frames are not reused by the store
// afterwards; fn may retain them, but must not call back into the store.
// A nil fn uninstalls the hook.
func (d *FileDisk) SetCommitHook(fn func(seq uint64, frames []Frame)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.hook = fn
}

// CommitSeq returns the sequence number of the last committed batch.
// Staged-but-unsynced writes are not reflected. On a replica a batch
// counts once ApplyReplicated has applied and checkpointed it, so the log
// is empty whenever CommitSeq has caught up with the primary.
func (d *FileDisk) CommitSeq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.replSeq != 0 {
		return d.replSeq - 1
	}
	return d.commitSeq
}

// SnapshotPages streams a consistent image of the whole store — every
// slot, free and allocated, the meta page included — to fn in page-id
// order, and returns the commit sequence and page count the image belongs
// to. Staged writes are committed first so the image is self-consistent;
// callers that layer caches above the store must flush them before
// calling. The page data passed to fn is only valid during the call.
func (d *FileDisk) SnapshotPages(fn func(id PageID, kind Kind, data []byte) error) (seq uint64, pageCount uint32, err error) {
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, 0, ErrClosed
	}
	if len(d.dirty) > 0 || len(d.freed) > 0 || d.metaDirty {
		if err := d.commitLocked(d.commitSeq + 1); err != nil {
			return 0, 0, err
		}
	}
	for id := PageID(0); uint32(id) < d.pageCount; id++ {
		page, err := d.readSlot(id, d.kinds[id])
		if err != nil {
			return 0, 0, err
		}
		if err := fn(id, d.kinds[id], page); err != nil {
			return 0, 0, err
		}
	}
	return d.commitSeq, d.pageCount, nil
}

// parseReplicatedMeta validates a replicated meta-page image against the
// store's geometry and returns the header fields it carries.
func (d *FileDisk) parseReplicatedMeta(meta []byte, wantSeq uint64) (pageCount uint32, freeHead PageID, record []byte, err error) {
	if binary.BigEndian.Uint64(meta[0:8]) != fileMagic {
		return 0, 0, nil, fmt.Errorf("pagestore: replicated meta page has bad magic: %w", ErrCorrupt)
	}
	if v := binary.BigEndian.Uint32(meta[8:12]); v != fileVersion {
		return 0, 0, nil, fmt.Errorf("pagestore: replicated meta page has format version %d (want %d): %w", v, fileVersion, ErrCorrupt)
	}
	if ps := int(binary.BigEndian.Uint32(meta[12:16])); ps != d.pageSize {
		return 0, 0, nil, fmt.Errorf("pagestore: replicated page size %d, store page size %d: %w", ps, d.pageSize, ErrCorrupt)
	}
	if got := uint64(binary.BigEndian.Uint32(meta[28:32])); got != wantSeq&0xffffffff {
		return 0, 0, nil, fmt.Errorf("pagestore: replicated meta page carries seq %d, batch claims %d: %w", got, wantSeq, ErrCorrupt)
	}
	pageCount = binary.BigEndian.Uint32(meta[16:20])
	if pageCount < 1 {
		return 0, 0, nil, fmt.Errorf("pagestore: replicated page count 0: %w", ErrCorrupt)
	}
	metaLen := int(binary.BigEndian.Uint32(meta[24:28]))
	if metaLen > d.pageSize-fileHeaderSize {
		return 0, 0, nil, fmt.Errorf("pagestore: replicated meta record length %d exceeds page: %w", metaLen, ErrCorrupt)
	}
	freeHead = PageID(binary.BigEndian.Uint32(meta[20:24]))
	return pageCount, freeHead, meta[fileHeaderSize : fileHeaderSize+metaLen], nil
}

// adoptKindsLocked records the kind of every page a replicated batch or
// snapshot carries, growing the kind table as needed, and returns the
// meta-page image. Caller holds mu.
func (d *FileDisk) adoptKindsLocked(frames []Frame) (meta []byte) {
	for _, fr := range frames {
		if fr.ID == 0 {
			meta = fr.Data
			continue
		}
		for uint32(fr.ID) >= uint32(len(d.kinds)) {
			d.kinds = append(d.kinds, KindFree)
		}
		d.kinds[fr.ID] = fr.Kind
	}
	return meta
}

// checkReplicatedLocked validates a replicated batch without changing
// the store: every frame is one page, the meta page is present and
// parses, and its page count covers every frame but reaches no further
// than the frames and the pages the store already has. Caller holds mu.
func (d *FileDisk) checkReplicatedLocked(seq uint64, frames []Frame) error {
	var meta []byte
	var top uint32 // one past the highest page the batch writes
	for _, fr := range frames {
		if len(fr.Data) != d.pageSize {
			return fmt.Errorf("pagestore: replicated frame for page %d has %d bytes, want %d", fr.ID, len(fr.Data), d.pageSize)
		}
		if fr.ID == 0 {
			if fr.Kind != KindMeta {
				return fmt.Errorf("pagestore: replicated page 0 has kind %v: %w", fr.Kind, ErrCorrupt)
			}
			meta = fr.Data
		}
		top = max(top, uint32(fr.ID)+1)
	}
	if meta == nil {
		return fmt.Errorf("pagestore: replicated batch carries no meta page: %w", ErrCorrupt)
	}
	pageCount, _, _, err := d.parseReplicatedMeta(meta, seq)
	if err != nil {
		return err
	}
	if reach := max(top, uint32(len(d.kinds))); pageCount < top || pageCount > reach {
		// Every page a batch allocates travels in that batch, so growth
		// beyond the frames means a batch was lost upstream.
		return fmt.Errorf("pagestore: replicated meta claims %d pages, batch reaches %d: %w", pageCount, reach, ErrCorrupt)
	}
	return nil
}

// ApplyReplicated applies one replicated commit batch to the store. The
// batch must directly follow the store's commit sequence; a batch at or
// below the current sequence is skipped (duplicate delivery is harmless)
// and a batch further ahead fails with an error wrapping ErrReplicaGap.
// It reports whether the batch was applied (false for a duplicate).
//
// The apply runs in three steps, each under the narrowest lock it needs:
//
//  1. Log: the batch is checked under mu, then appended to the store's own
//     WAL and fsynced holding commitMu but not mu. Nothing a reader sees
//     changes.
//  2. Apply: swap(home) runs. home takes mu, makes the batch the store's
//     state and writes its pages to their home slots, without logging it
//     again. swap must call home once and may hold a lock of its own
//     around it: the index holds its exclusive lock, so no reader decodes
//     a home slot while it is rewritten, and swaps its tree in the same
//     critical section. A nil swap calls home alone.
//  3. Checkpoint: the main file is fsynced, then the log truncated and
//     fsynced, holding commitMu but not mu. Only now does CommitSeq
//     report the batch.
//
// A crash at any point recovers exactly like a local commit, to the
// batch before or to this one, and a clean return leaves the log empty.
// A failure after the log step, swap's included, poisons the store: a
// resent batch would otherwise sit in the log twice. The next open
// replays the log.
//
// The store must be a replica: it must carry no local writes. Staged
// writes found when the batch is applied are discarded, and a local
// commit is refused while a logged batch is not yet home.
func (d *FileDisk) ApplyReplicated(seq uint64, frames []Frame, swap func(home func() error) error) (bool, error) {
	d.applyMu.Lock()
	defer d.applyMu.Unlock()
	if logged, err := d.logReplicated(seq, frames); !logged || err != nil {
		return false, err
	}
	home := func() error { return d.homeReplicated(seq, frames) }
	var err error
	if swap == nil {
		err = home()
	} else {
		err = swap(home)
	}
	if err != nil {
		d.mu.Lock()
		defer d.mu.Unlock()
		return false, d.poison(err)
	}
	return true, d.checkpointReplicated(seq)
}

// logReplicated is ApplyReplicated's log step. It reports false for a
// duplicate batch.
func (d *FileDisk) logReplicated(seq uint64, frames []Frame) (bool, error) {
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	d.mu.Lock()
	err := d.usable()
	switch {
	case err != nil:
	case seq <= d.commitSeq:
		d.mu.Unlock()
		return false, nil
	case seq != d.commitSeq+1:
		err = fmt.Errorf("%w: store at seq %d, batch is %d", ErrReplicaGap, d.commitSeq, seq)
	default:
		err = d.checkReplicatedLocked(seq, frames)
	}
	d.mu.Unlock()
	if err != nil {
		return false, err
	}
	err = d.wal.Commit(frames)
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil {
		return false, d.poison(err)
	}
	d.replSeq = seq
	return true, nil
}

// homeReplicated is ApplyReplicated's apply step: the logged batch
// becomes the store's state — kinds, page count, free-list head and meta
// record — and its pages are written home.
func (d *FileDisk) homeReplicated(seq uint64, frames []Frame) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usable(); err != nil {
		return err
	}
	if d.replSeq != seq {
		return fmt.Errorf("pagestore: replicated batch %d was replaced by a snapshot before it was applied", seq)
	}
	clear(d.dirty)
	clear(d.freed)
	d.metaDirty = false
	// The log step checked the meta page, so it parses.
	pageCount, freeHead, record, _ := d.parseReplicatedMeta(d.adoptKindsLocked(frames), seq)
	d.pageCount, d.freeHead = pageCount, freeHead
	d.meta = append(d.meta[:0], record...)
	if err := d.writeHomeLocked(frames); err != nil {
		return err
	}
	d.commitSeq = seq
	if d.hook != nil {
		d.hook(seq, frames)
	}
	return nil
}

// checkpointReplicated is ApplyReplicated's checkpoint step. A Sync or
// Close that ran since the apply step may have checkpointed already.
func (d *FileDisk) checkpointReplicated(seq uint64) error {
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	d.mu.Lock()
	err := d.usable()
	d.mu.Unlock()
	if err != nil {
		return err
	}
	if d.wal.Size() != walHeaderSize {
		err = d.checkpointFiles()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil {
		return d.poison(err)
	}
	if d.replSeq == seq {
		d.replSeq = 0
	}
	return nil
}

// ApplySnapshot replaces the store's entire contents with a snapshot
// taken by SnapshotPages on another store of the same page size: frames
// must hold every page of the source, the meta page included, and seq is
// the commit sequence the snapshot belongs to. The replacement commits
// through the store's own WAL and is checkpointed; afterwards the file is
// truncated to exactly the snapshot's length, so a caught-up replica
// matches the primary byte for byte.
func (d *FileDisk) ApplySnapshot(seq uint64, frames []Frame) error {
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if err := d.checkReplicatedLocked(seq, frames); err != nil {
		return err
	}
	// A replicated batch logged but not yet applied is superseded: its
	// apply step fails, and this commit lands after it in the log.
	d.replSeq = 0
	clear(d.dirty)
	clear(d.freed)
	d.metaDirty = false
	d.kinds = d.kinds[:1]
	pageCount, freeHead, record, _ := d.parseReplicatedMeta(d.adoptKindsLocked(frames), seq)
	for _, fr := range frames {
		if fr.ID != 0 {
			d.dirty[fr.ID] = append([]byte(nil), fr.Data...)
		}
	}
	if int(pageCount) != len(d.kinds) || len(d.dirty) != int(pageCount)-1 {
		return fmt.Errorf("pagestore: snapshot claims %d pages, carries %d: %w", pageCount, len(d.dirty)+1, ErrCorrupt)
	}
	d.pageCount = pageCount
	d.freeHead = freeHead
	d.meta = append(d.meta[:0], record...)
	if err := d.commitLocked(seq); err != nil {
		return err
	}
	if err := d.checkpointLocked(); err != nil {
		return err
	}
	// Shrink away any slots beyond the snapshot (the store may have been
	// larger before the reseed). A crash between the commit and the
	// truncate leaves harmless bytes past the last page, which the next
	// snapshot or open ignores.
	want := int64(d.pageCount) * d.slotSize()
	if size, err := d.f.Size(); err != nil {
		return err
	} else if size > want {
		if err := d.f.Truncate(want); err != nil {
			return err
		}
		if err := d.f.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// RawPage reads and checksum-verifies one slot — any slot, the meta page
// and free pages included — returning the page image and its recorded
// kind. Staged writes are not consulted: the read judges durable state.
// Offline inspection (fsck's WAL-chain check) uses it; it does not count
// toward Stats.
func (d *FileDisk) RawPage(id PageID) ([]byte, Kind, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, KindFree, ErrClosed
	}
	if uint32(id) >= d.pageCount {
		return nil, KindFree, ErrOutOfRange
	}
	page, err := d.readSlot(id, d.kinds[id])
	if err != nil {
		return nil, KindFree, err
	}
	if d.view != nil {
		// On a mapped store readSlot returns a window onto the mapping;
		// RawPage's callers may retain the image past the lock, so hand
		// out a copy instead.
		page = append([]byte(nil), page...)
	}
	return page, d.kinds[id], nil
}

// ScanWALBytes parses a raw write-ahead-log image (the bytes of a ".wal"
// file) without touching the store it belongs to. It returns the number
// of fully committed batches, every frame of those batches in order, and
// how many trailing bytes fall after the last committed batch (a torn
// commit's residue; 0 for a cleanly reset log). Fsck uses it to check the
// log's CRC chain against the applied page state before recovery resets
// the log.
func ScanWALBytes(b []byte) (batches int, frames []Frame, tailBytes int, err error) {
	if len(b) == 0 {
		return 0, nil, 0, nil
	}
	if len(b) < walHeaderSize {
		// A crash during WAL creation: nothing durable can depend on it.
		return 0, nil, len(b), nil
	}
	mf := NewMemFile()
	if _, err := mf.WriteAt(b, 0); err != nil {
		return 0, nil, 0, err
	}
	w, err := OpenWAL(mf, 0)
	if err != nil {
		return 0, nil, 0, err
	}
	batches, err = w.Recover(func(fr Frame) error {
		frames = append(frames, fr)
		return nil
	})
	if err != nil {
		return batches, frames, 0, err
	}
	return batches, frames, len(b) - int(w.tail), nil
}
