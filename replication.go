package bmeh

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"

	"bmeh/internal/core"
	"bmeh/internal/pagestore"
)

// This file is the index-level replication surface. A primary exposes its
// commit stream (SetReplPublisher, ReplSnapshot); a replica applies it
// (ApplyReplSegment, ApplyReplSnapshot), rebuilding its in-memory view
// from the replicated header after every batch so reads always observe a
// committed state. ReplicaTarget wraps the bootstrap dance: a replica
// whose local file does not exist yet is created from the first snapshot.

// ErrNotReplicable reports a replication call against an in-memory index.
var ErrNotReplicable = errors.New("bmeh: in-memory index cannot replicate")

// ReplCommitSeq returns the sequence number of the store's last durable
// commit (0 for an in-memory index).
func (ix *Index) ReplCommitSeq() uint64 {
	if ix.file == nil {
		return 0
	}
	return ix.file.CommitSeq()
}

// ReplPageSize returns the store's page size.
func (ix *Index) ReplPageSize() int { return ix.store.PageSize() }

// SetReplPublisher installs fn as the store's commit observer: after
// every durable commit fn receives the batch's sequence number and
// frames, in commit order, after the WAL checkpoint barrier. Install a
// repl.Hub's Publish here. fn runs under the store lock and must not
// block or call back into the index. A nil fn uninstalls the publisher.
func (ix *Index) SetReplPublisher(fn func(seq uint64, frames []pagestore.Frame)) error {
	if ix.file == nil {
		return ErrNotReplicable
	}
	ix.file.SetCommitHook(fn)
	return nil
}

// ReplSnapshot streams a consistent full-store image to fn and returns
// the commit sequence and page count it belongs to. The index is synced
// first — deferred page images and the header both reach the store — so
// the image is exactly what a fresh Open of the file would see. The
// index is locked exclusively for the duration: the snapshot is a
// consistent cut of the commit stream.
func (ix *Index) ReplSnapshot(fn func(id pagestore.PageID, kind pagestore.Kind, data []byte) error) (seq uint64, pageCount uint32, err error) {
	ix.mu.Lock()
	if ix.closed {
		ix.mu.Unlock()
		return 0, 0, pagestore.ErrClosed
	}
	if ix.file == nil {
		ix.mu.Unlock()
		return 0, 0, ErrNotReplicable
	}
	// Under WriteModeCOW the exclusive hold shrinks to the flush + meta
	// staging: a pinned tree snapshot keeps every page the staged header
	// references alive until the store-level stream (itself atomic under
	// the store lock) has committed and copied them, so the page loop runs
	// without ix.mu held exclusively and index reads proceed throughout.
	// Writers committing between the pin and the stream only ADD pages:
	// those are unreachable from the staged root and will be repaired on
	// the subscriber by the very segments the hub queued during the
	// snapshot, exactly as the latched path's post-snapshot commits are.
	if tr, ok := ix.idx.(*core.Tree); ok && tr.COWEnabled() {
		snap, err := tr.Snapshot()
		if err == nil {
			err = tr.FlushDirtyPages()
		}
		if err == nil {
			var rec []byte
			if rec, err = snap.MarshalMeta(); err == nil {
				err = ix.file.WriteMeta(rec)
			}
		}
		ix.mu.Unlock()
		if err != nil {
			if snap != nil {
				snap.Close()
			}
			return 0, 0, err
		}
		seq, pageCount, err = ix.file.SnapshotPages(fn)
		if cerr := snap.Close(); err == nil && cerr != nil {
			err = cerr
		}
		return seq, pageCount, err
	}
	defer ix.mu.Unlock()
	if err := ix.syncLocked(); err != nil {
		return 0, 0, err
	}
	return ix.file.SnapshotPages(fn)
}

// ApplyReplSegment applies one replicated commit batch to a replica
// index: the batch commits through the local WAL and the in-memory view
// is rebuilt from the replicated header, keeping the decoded nodes and
// pages the batch did not rewrite. Duplicate batches are skipped; a gap
// fails with pagestore.ErrReplicaGap and the caller must resynchronize.
func (ix *Index) ApplyReplSegment(seq uint64, frames []pagestore.Frame) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed {
		return pagestore.ErrClosed
	}
	if ix.file == nil {
		return ErrNotReplicable
	}
	applied, err := ix.file.ApplyReplicated(seq, frames)
	if err != nil || !applied {
		return err
	}
	prev := ix.idx
	if err := ix.reloadLocked(); err != nil {
		return err
	}
	if p, ok := prev.(*core.Tree); ok {
		if t, ok := ix.idx.(*core.Tree); ok {
			t.AdoptDecodedCaches(p, frames)
		}
	}
	return nil
}

// ApplyReplSnapshot replaces a replica index's contents with a full
// snapshot (same page size required) and rebuilds the in-memory view.
func (ix *Index) ApplyReplSnapshot(seq uint64, pageSize int, pageCount uint32, frames []pagestore.Frame) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed {
		return pagestore.ErrClosed
	}
	if ix.file == nil {
		return ErrNotReplicable
	}
	if pageSize != ix.file.PageSize() {
		return fmt.Errorf("bmeh: snapshot page size %d, replica page size %d", pageSize, ix.file.PageSize())
	}
	if err := ix.file.ApplySnapshot(seq, frames); err != nil {
		return err
	}
	return ix.reloadLocked()
}

// reloadLocked rebuilds the in-memory scheme implementation from the
// store's meta record, exactly as Open would. Loading is cheap — it
// validates the header and pins the root — so a replica pays it per
// applied batch.
//
// Only ix.idx is replaced: readers access it under ix.mu.RLock, which
// the caller's write lock excludes. ix.scheme and ix.prm are read
// lock-free on hot paths (they are immutable after open), so instead of
// rewriting them with equal values — a data race — a reload verifies the
// replicated meta still agrees with them.
func (ix *Index) reloadLocked() error {
	meta := make([]byte, ix.file.PageSize())
	n, err := ix.file.ReadMeta(meta)
	if err != nil {
		return err
	}
	idx, scheme, prm, err := loadImpl(ix.store, meta[:n])
	if err != nil {
		return fmt.Errorf("bmeh: reloading replicated index: %w", err)
	}
	if scheme != ix.scheme || prm.Dims != ix.prm.Dims ||
		prm.Width != ix.prm.Width || prm.Capacity != ix.prm.Capacity {
		return fmt.Errorf("bmeh: replicated meta changed scheme or geometry (scheme %d→%d, d %d→%d, w %d→%d, b %d→%d)",
			ix.scheme, scheme, ix.prm.Dims, prm.Dims, ix.prm.Width, prm.Width, ix.prm.Capacity, prm.Capacity)
	}
	ix.idx = idx
	return nil
}

// ReplicaTarget adapts a local index file to the repl.Target interface,
// handling bootstrap: when the file does not exist yet, the target stays
// empty (ReplCommitSeq 0, which forces the primary to send a snapshot)
// and the file is created from that first snapshot. Ready is closed once
// an index is available to serve reads.
type ReplicaTarget struct {
	path string

	mu    sync.Mutex
	ix    *Index
	ready chan struct{}
}

// NewReplicaTarget opens (or defers creation of) the replica's local
// index at path. An existing file is opened through normal crash
// recovery, so a replica killed mid-apply resumes from its last durable
// batch.
func NewReplicaTarget(path string) (*ReplicaTarget, error) {
	t := &ReplicaTarget{path: path, ready: make(chan struct{})}
	if _, err := os.Stat(path); err == nil {
		ix, err := OpenWithOptions(path, Options{})
		if err != nil {
			return nil, fmt.Errorf("bmeh: opening replica store (delete it to reseed): %w", err)
		}
		t.ix = ix
		close(t.ready)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	return t, nil
}

// Ready is closed once the target holds an index (immediately for an
// existing file, after the first snapshot otherwise).
func (t *ReplicaTarget) Ready() <-chan struct{} { return t.ready }

// Index returns the underlying index, or nil before the first snapshot.
func (t *ReplicaTarget) Index() *Index {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ix
}

// ReplCommitSeq implements repl.Target.
func (t *ReplicaTarget) ReplCommitSeq() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ix == nil {
		return 0
	}
	return t.ix.ReplCommitSeq()
}

// ApplyReplSegment implements repl.Target.
func (t *ReplicaTarget) ApplyReplSegment(seq uint64, frames []pagestore.Frame) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ix == nil {
		return errors.New("bmeh: replica has no store yet (snapshot required)")
	}
	return t.ix.ApplyReplSegment(seq, frames)
}

// ApplyReplSnapshot implements repl.Target, creating the local file from
// the snapshot when it does not exist yet.
func (t *ReplicaTarget) ApplyReplSnapshot(seq uint64, pageSize int, pageCount uint32, frames []pagestore.Frame) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ix != nil {
		return t.ix.ApplyReplSnapshot(seq, pageSize, pageCount, frames)
	}
	fd, err := pagestore.CreateFileDisk(t.path, pageSize)
	if err != nil {
		return err
	}
	if err := fd.ApplySnapshot(seq, frames); err != nil {
		fd.Close()
		os.Remove(t.path)
		os.Remove(t.path + ".wal")
		return err
	}
	if err := fd.Close(); err != nil {
		return err
	}
	ix, err := OpenWithOptions(t.path, Options{})
	if err != nil {
		return fmt.Errorf("bmeh: opening freshly seeded replica store: %w", err)
	}
	t.ix = ix
	close(t.ready)
	return nil
}

// Close releases the underlying index, if any.
func (t *ReplicaTarget) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ix == nil {
		return nil
	}
	return t.ix.Close()
}
