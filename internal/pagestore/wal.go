package pagestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// This file implements the physical write-ahead log that makes FileDisk's
// Sync an atomic commit. The log journals full page images: a commit
// appends one frame record per dirty page followed by a commit record, and
// fsyncs before any page is written to its home offset. The log is
// append-only across commits: it holds every batch since the last
// checkpoint, which fsyncs the main file and only then truncates the log
// (Reset) and fsyncs the truncate. Recovery replays every fully committed
// batch, in order — replaying one already home is harmless — and
// discards an incomplete tail, so a crash at any point leaves the store
// at the last acknowledged commit or the one in flight, never in between.
//
// One Sync is one commit. Batching many writers into one commit happens
// above the store: bmeh.Index.InsertBatch applies a whole batch before its
// single Sync, and the network server's write queue gathers every
// client's PUT, BATCH and SYNC into such a batch.
//
// Layout (all integers big-endian):
//
//	header:  magic(8) version(4) pageSize(4)
//	frame:   type=1(1) kind(1) reserved(2) pageID(4) data(pageSize) crc(4)
//	commit:  type=2(1) reserved(3) frameCount(4) crc(4)
//
// A frame's crc covers its first 8 bytes and the page image. A commit
// record's crc covers its count and the crc of every frame in the batch,
// so a batch is applied only if each frame is intact, the count matches,
// and the commit record itself is intact.
const (
	walMagic      uint64 = 0x424d45485f57414c // "BMEH_WAL"
	walVersion           = 1
	walHeaderSize        = 16

	walRecFrame  = 1
	walRecCommit = 2

	walFrameOverhead = 12 // type+kind+reserved+pageID before data, crc after
	walCommitSize    = 12
)

// Frame is one journaled page image.
type Frame struct {
	ID   PageID
	Kind Kind
	Data []byte // exactly pageSize bytes
}

// WAL is a physical redo log over a File. It is not safe for concurrent
// use; FileDisk serializes access under its commitMu.
type WAL struct {
	f        File
	pageSize int
	tail     int64 // end of the last durable committed batch
}

// CreateWAL initializes an empty log on f (truncating it).
func CreateWAL(f File, pageSize int) (*WAL, error) {
	if err := f.Truncate(0); err != nil {
		return nil, err
	}
	hdr := make([]byte, walHeaderSize)
	binary.BigEndian.PutUint64(hdr[0:8], walMagic)
	binary.BigEndian.PutUint32(hdr[8:12], walVersion)
	binary.BigEndian.PutUint32(hdr[12:16], uint32(pageSize))
	if _, err := f.WriteAt(hdr, 0); err != nil {
		return nil, err
	}
	if err := f.Sync(); err != nil {
		return nil, err
	}
	return &WAL{f: f, pageSize: pageSize, tail: walHeaderSize}, nil
}

// OpenWAL opens an existing log and validates its header. pageSize 0
// accepts whatever page size the header records; a nonzero value must
// match. The caller must run Recover before committing new batches.
func OpenWAL(f File, pageSize int) (*WAL, error) {
	hdr := make([]byte, walHeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("pagestore: reading WAL header: %w", ErrCorrupt)
	}
	if binary.BigEndian.Uint64(hdr[0:8]) != walMagic {
		return nil, fmt.Errorf("pagestore: bad WAL magic: %w", ErrCorrupt)
	}
	if v := binary.BigEndian.Uint32(hdr[8:12]); v != walVersion {
		return nil, fmt.Errorf("pagestore: unsupported WAL version %d: %w", v, ErrCorrupt)
	}
	ps := int(binary.BigEndian.Uint32(hdr[12:16]))
	if ps <= 0 || (pageSize != 0 && ps != pageSize) {
		return nil, fmt.Errorf("pagestore: WAL page size %d does not match store: %w", ps, ErrCorrupt)
	}
	return &WAL{f: f, pageSize: ps, tail: walHeaderSize}, nil
}

// PageSize returns the page size recorded in the log header.
func (w *WAL) PageSize() int { return w.pageSize }

// Size returns the log's length through its last committed batch: the
// header alone when the log holds none.
func (w *WAL) Size() int64 { return w.tail }

// frameSize returns the on-log size of one frame record.
func (w *WAL) frameSize() int64 { return int64(walFrameOverhead + w.pageSize) }

// Commit appends the batch and a commit record at the durable tail and
// fsyncs. Only after Commit returns may the pages be written to their home
// offsets. A failed Commit leaves the durable tail unchanged, so a retry
// (or recovery) overwrites any partial garbage.
func (w *WAL) Commit(frames []Frame) error {
	if len(frames) == 0 {
		return nil
	}
	// Frames are encoded straight into the one buffer the batch is
	// written from; chain is the commit record's crc, accumulated over
	// each frame's crc bytes and then the count.
	buf := make([]byte, int64(len(frames))*w.frameSize()+walCommitSize)
	rec, chain := buf, uint32(0)
	for _, fr := range frames {
		if len(fr.Data) != w.pageSize {
			return fmt.Errorf("pagestore: WAL frame for page %d has %d bytes, want %d", fr.ID, len(fr.Data), w.pageSize)
		}
		rec[0] = walRecFrame
		rec[1] = byte(fr.Kind)
		binary.BigEndian.PutUint32(rec[4:8], uint32(fr.ID))
		copy(rec[8:], fr.Data)
		crc := rec[8+w.pageSize : walFrameOverhead+w.pageSize]
		binary.BigEndian.PutUint32(crc, checksum(rec[:8+w.pageSize]))
		chain = crc32.Update(chain, crcTable, crc)
		rec = rec[walFrameOverhead+w.pageSize:]
	}
	rec[0] = walRecCommit
	binary.BigEndian.PutUint32(rec[4:8], uint32(len(frames)))
	binary.BigEndian.PutUint32(rec[8:12], crc32.Update(chain, crcTable, rec[4:8]))
	if _, err := w.f.WriteAt(buf, w.tail); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.tail += int64(len(buf))
	return nil
}

// Recover scans the log and invokes apply for every frame of every fully
// committed batch, in order. It stops — without error — at the first
// incomplete or damaged record, which a crash mid-Commit legitimately
// leaves behind; that tail is simply not part of the durable state. It
// returns the number of batches applied. The caller should Reset the log
// (after making the applied pages durable) to discard the tail.
func (w *WAL) Recover(apply func(Frame) error) (int, error) {
	size, err := w.f.Size()
	if err != nil {
		return 0, err
	}
	pos := int64(walHeaderSize)
	batches := 0
	var pending []Frame
	var pendingCRCs []byte
	w.tail = pos
	for {
		if size-pos < 1 {
			return batches, nil
		}
		kind := make([]byte, 1)
		if _, err := w.f.ReadAt(kind, pos); err != nil {
			return batches, nil
		}
		switch kind[0] {
		case walRecFrame:
			if size-pos < w.frameSize() {
				return batches, nil
			}
			rec := make([]byte, w.frameSize())
			if _, err := w.f.ReadAt(rec, pos); err != nil {
				return batches, nil
			}
			crc := binary.BigEndian.Uint32(rec[8+w.pageSize:])
			if checksum(rec[:8+w.pageSize]) != crc {
				return batches, nil
			}
			pending = append(pending, Frame{
				ID:   PageID(binary.BigEndian.Uint32(rec[4:8])),
				Kind: Kind(rec[1]),
				Data: append([]byte(nil), rec[8:8+w.pageSize]...),
			})
			var c [4]byte
			binary.BigEndian.PutUint32(c[:], crc)
			pendingCRCs = append(pendingCRCs, c[:]...)
			pos += w.frameSize()
		case walRecCommit:
			if size-pos < walCommitSize {
				return batches, nil
			}
			rec := make([]byte, walCommitSize)
			if _, err := w.f.ReadAt(rec, pos); err != nil {
				return batches, nil
			}
			count := binary.BigEndian.Uint32(rec[4:8])
			var cnt [4]byte
			binary.BigEndian.PutUint32(cnt[:], count)
			if int(count) != len(pending) ||
				checksum(append(append([]byte(nil), pendingCRCs...), cnt[:]...)) != binary.BigEndian.Uint32(rec[8:12]) {
				return batches, nil
			}
			for _, fr := range pending {
				if err := apply(fr); err != nil {
					return batches, err
				}
			}
			batches++
			pending, pendingCRCs = nil, nil
			pos += walCommitSize
			w.tail = pos
		default:
			return batches, nil
		}
	}
}

// Reset discards the log's contents, truncating it back to its header,
// and fsyncs the truncate. Called once every batch in the log has been
// applied and fsynced to the main file; a crash before Reset merely
// replays them again (idempotent). The fsync keeps the next append from
// reaching the disk ahead of the truncate: a crash then could leave the
// new batch followed by older ones, which recovery would replay over it.
func (w *WAL) Reset() error {
	if err := w.f.Truncate(walHeaderSize); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.tail = walHeaderSize
	return nil
}

// Close closes the underlying file.
func (w *WAL) Close() error { return w.f.Close() }
