package pagestore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// SnapshotReachable streams a complete, self-contained pagestore image to w
// containing exactly the listed pages plus a meta page carrying metaRec.
// The result is a valid version-2 store file — OpenFileDisk accepts it with
// no recovery — in which every listed page keeps its PageID (so a meta
// record referencing those ids stays valid) and every unlisted slot below
// the highest listed id is threaded onto the free list. The image starts a
// fresh commit lineage (sequence 1): a backup is a new store, not a
// replica of this one.
//
// The caller is responsible for the listed pages being stable for the
// duration of the stream — under the COW write mode a pinned snapshot
// provides exactly that guarantee (committed pages are never rewritten in
// place and reclamation spares anything a pin can reach). The store's lock
// is taken per page, not across the whole stream, so writers keep running
// while a backup drains.
//
// Returns the number of bytes written to w.
func (d *FileDisk) SnapshotReachable(ids []PageID, metaRec []byte, w io.Writer) (int64, error) {
	if len(metaRec) > d.pageSize-fileHeaderSize {
		return 0, ErrPageSize
	}
	reach := make(map[PageID]bool, len(ids))
	maxID := PageID(0)
	d.mu.Lock()
	for _, id := range ids {
		if id == NilPage {
			d.mu.Unlock()
			return 0, ErrNilPage
		}
		if uint32(id) >= d.pageCount {
			d.mu.Unlock()
			return 0, fmt.Errorf("pagestore: snapshot lists page %d of %d: %w", id, d.pageCount, ErrOutOfRange)
		}
		if d.kinds[id] == KindFree {
			d.mu.Unlock()
			return 0, fmt.Errorf("pagestore: snapshot lists free page %d: %w", id, ErrFreedPage)
		}
		reach[id] = true
		if id > maxID {
			maxID = id
		}
	}
	d.mu.Unlock()
	newCount := uint32(maxID) + 1

	// Unlisted slots become the free list, threaded in ascending order so
	// the head is the lowest free id and the rebuilt store reuses low slots
	// first (matching the allocator's compaction bias).
	var freeIDs []PageID
	for id := PageID(1); uint32(id) < newCount; id++ {
		if !reach[id] {
			freeIDs = append(freeIDs, id)
		}
	}
	freeHead := NilPage
	nextFree := make(map[PageID]PageID, len(freeIDs))
	if len(freeIDs) > 0 {
		freeHead = freeIDs[0]
		for i, id := range freeIDs {
			if i+1 < len(freeIDs) {
				nextFree[id] = freeIDs[i+1]
			} else {
				nextFree[id] = NilPage
			}
		}
	}

	bw := bufio.NewWriterSize(w, 1<<16)
	var written int64

	// Slot 0: a meta page for the new image. Fresh lineage, sequence 1.
	meta := make([]byte, d.pageSize)
	binary.BigEndian.PutUint64(meta[0:8], fileMagic)
	binary.BigEndian.PutUint32(meta[8:12], fileVersion)
	binary.BigEndian.PutUint32(meta[12:16], uint32(d.pageSize))
	binary.BigEndian.PutUint32(meta[16:20], newCount)
	binary.BigEndian.PutUint32(meta[20:24], uint32(freeHead))
	binary.BigEndian.PutUint32(meta[24:28], uint32(len(metaRec)))
	binary.BigEndian.PutUint32(meta[28:32], 1)
	copy(meta[fileHeaderSize:], metaRec)
	n, err := bw.Write(encodeSlot(meta, KindMeta))
	written += int64(n)
	if err != nil {
		return written, err
	}

	page := make([]byte, d.pageSize)
	for id := PageID(1); uint32(id) < newCount; id++ {
		var kind Kind
		if reach[id] {
			// Lock per page: the pin keeps these bytes immutable, so a
			// copy under a briefly-held lock is a consistent read even
			// with writers committing around the stream.
			d.mu.Lock()
			if d.closed {
				d.mu.Unlock()
				return written, ErrClosed
			}
			img, err := d.stagedOrDisk(id)
			if err != nil {
				d.mu.Unlock()
				return written, err
			}
			copy(page, img)
			kind = d.kinds[id]
			d.mu.Unlock()
			if kind == KindFree {
				return written, fmt.Errorf("pagestore: page %d freed mid-snapshot: %w", id, ErrFreedPage)
			}
		} else {
			for i := range page {
				page[i] = 0
			}
			binary.BigEndian.PutUint32(page[:4], uint32(nextFree[id]))
			kind = KindFree
		}
		n, err := bw.Write(encodeSlot(page, kind))
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, bw.Flush()
}

// FreePageIDs walks the durable free list and returns every page on it,
// sorted. The walk is bounded and cycle-checked like the open-time scan, so
// a corrupted list reports ErrCorrupt instead of hanging. Diagnostic aid
// for Fsck's free-vs-reachable cross-check.
func (d *FileDisk) FreePageIDs() ([]PageID, error) {
	d.allocMu.Lock()
	defer d.allocMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	var out []PageID
	seen := make(map[PageID]bool, 8)
	for id := d.freeHead; id != NilPage; {
		if uint32(id) >= d.pageCount {
			return nil, fmt.Errorf("pagestore: free list points at page %d of %d: %w", id, d.pageCount, ErrCorrupt)
		}
		if seen[id] {
			return nil, fmt.Errorf("pagestore: free list cycle at page %d: %w", id, ErrCorrupt)
		}
		if d.kinds[id] != KindFree {
			return nil, fmt.Errorf("pagestore: free list includes %v page %d: %w", d.kinds[id], id, ErrCorrupt)
		}
		seen[id] = true
		out = append(out, id)
		if next, ok := d.freed[id]; ok {
			id = next
			continue
		}
		page, err := d.stagedOrDisk(id)
		if err != nil {
			return nil, err
		}
		id = PageID(binary.BigEndian.Uint32(page[:4]))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
