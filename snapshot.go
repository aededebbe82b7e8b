package bmeh

import (
	"errors"
	"fmt"
	"io"

	"bmeh/internal/bitkey"
	"bmeh/internal/core"
	"bmeh/internal/pagestore"
)

// ErrSnapshots reports a Snapshot call against an index that cannot take
// one: snapshots require SchemeBMEH running under WriteModeCOW.
var ErrSnapshots = errors.New("bmeh: snapshots require SchemeBMEH with WriteModeCOW")

// ErrSnapshotReleased reports a read on a snapshot whose pin was
// force-released because it exceeded Options.SnapshotMaxPinAge. The
// snapshot is dead; Close it and take a new one.
var ErrSnapshotReleased = core.ErrSnapshotReleased

// Snapshot is a consistent, immutable view of the index at one commit
// epoch. It is created by Index.Snapshot under WriteModeCOW, reads
// latch-free (Get and Range never block writers and are never blocked by
// them), and holds its pages against reclamation until Close. A snapshot
// left open pins every page version retired since it was taken — close
// promptly on long-running indexes.
type Snapshot struct {
	ix *Index
	ts *core.TreeSnapshot
}

// Snapshot pins the current committed state of the index. It fails with
// ErrSnapshots unless the index is a BMEH tree in WriteModeCOW.
func (ix *Index) Snapshot() (*Snapshot, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.closed {
		return nil, pagestore.ErrClosed
	}
	tr, ok := ix.idx.(*core.Tree)
	if !ok || !tr.COWEnabled() {
		return nil, ErrSnapshots
	}
	ts, err := tr.Snapshot()
	if err != nil {
		if errors.Is(err, core.ErrSnapshotMode) {
			return nil, ErrSnapshots
		}
		return nil, err
	}
	return &Snapshot{ix: ix, ts: ts}, nil
}

// Epoch returns the commit epoch the snapshot pins. Epochs increase by
// one per committed mutation, so two snapshots with equal epochs are
// views of the identical tree.
func (s *Snapshot) Epoch() uint64 { return s.ts.Epoch() }

// Len returns the number of records in the snapshot.
func (s *Snapshot) Len() int { return s.ts.Len() }

// Close releases the snapshot's pin, allowing the pages it held to be
// reclaimed. Idempotent; the snapshot must not be used afterwards.
func (s *Snapshot) Close() error { return s.ts.Close() }

// Get returns the value stored under key in the snapshot's frozen state.
func (s *Snapshot) Get(k Key) (uint64, bool, error) {
	v, err := s.ix.key(k)
	if err != nil {
		return 0, false, err
	}
	return s.ts.Get(v)
}

// Range calls fn for every record of the snapshot whose key lies in the
// axis-aligned box [lo_j, hi_j], stopping early if fn returns false. The
// scan is consistent: it observes exactly the records of the pinned
// epoch, whatever writers commit meanwhile.
func (s *Snapshot) Range(lo, hi Key, fn func(k Key, value uint64) bool) error {
	vlo, err := s.ix.key(lo)
	if err != nil {
		return err
	}
	vhi, err := s.ix.key(hi)
	if err != nil {
		return err
	}
	return s.ts.Range(vlo, vhi, func(k bitkey.Vector, v uint64) bool {
		pk := make(Key, len(k))
		for j, c := range k {
			pk[j] = uint64(c)
		}
		return fn(pk, v)
	})
}

// WriteTo streams a complete, self-contained index file holding exactly
// the snapshot's state to w — an online backup. Only the pages reachable
// from the pinned root are copied (plus a fresh header), so the backup's
// size tracks the live data, not the store's high-water mark, and the
// stream never blocks readers or writers beyond brief per-page store
// locks. The result opens with Open like any index file. File-backed
// indexes only.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	ix := s.ix
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.closed {
		return 0, pagestore.ErrClosed
	}
	if ix.file == nil {
		return 0, fmt.Errorf("bmeh: snapshot backup requires a file-backed index")
	}
	ids, err := s.ts.ReachableIDs()
	if err != nil {
		return 0, err
	}
	rec, err := s.ts.MarshalMeta()
	if err != nil {
		return 0, err
	}
	return ix.file.SnapshotReachable(ids, rec, w)
}

// SnapshotStats describes the MVCC state of an index.
type SnapshotStats struct {
	// COW reports whether the index runs under WriteModeCOW.
	COW bool
	// Epoch is the current commit epoch (0 until the first COW commit).
	Epoch uint64
	// PinnedEpochs is the number of distinct epochs open snapshots pin.
	PinnedEpochs int
	// ReclaimablePages counts pages retired by commits but not yet
	// recycled — they are held for open snapshots (or for the next
	// reclamation pass). Persistent growth here means a snapshot is being
	// held open across heavy write traffic.
	ReclaimablePages int
	// ForcedReleases counts snapshot pins force-released by the
	// max-pin-age sweep (Options.SnapshotMaxPinAge) over the index's
	// lifetime. Non-zero means some caller leaked a snapshot.
	ForcedReleases uint64
}

// SnapshotStats reports the index's MVCC counters. All zero for schemes
// and modes without snapshot support.
func (ix *Index) SnapshotStats() SnapshotStats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	tr, ok := ix.idx.(*core.Tree)
	if !ok || ix.closed {
		return SnapshotStats{}
	}
	return SnapshotStats{
		COW:              tr.COWEnabled(),
		Epoch:            tr.Epoch(),
		PinnedEpochs:     tr.PinnedEpochs(),
		ReclaimablePages: tr.ReclaimablePages(),
		ForcedReleases:   tr.ForcedReleases(),
	}
}
