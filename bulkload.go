package bmeh

import (
	"fmt"

	"bmeh/internal/bitkey"
	"bmeh/internal/core"
	"bmeh/internal/pagestore"
)

// BulkOptions tunes Index.BulkLoad.
type BulkOptions struct {
	// MemoryBudget bounds the sort buffer in bytes; larger sets spill
	// sorted runs to temp files and merge externally. Zero means 256 MiB.
	MemoryBudget int64
	// SpillDir is where spill files go (default: the OS temp dir).
	SpillDir string
}

// BulkStats reports what a BulkLoad did.
type BulkStats struct {
	// Loaded counts incoming records stored (duplicates excluded).
	Loaded int64
	// Duplicates counts incoming records dropped because their key was
	// already present — in the stream or in the index. As with Insert,
	// the first-stored value wins.
	Duplicates int64
	// SpillRuns is how many sorted runs were merged externally (0 when
	// the set fit in the memory budget).
	SpillRuns int
	// Levels is the height of the built directory.
	Levels int
	// DataPages and DirNodes count the pages of the new structure.
	DataPages int64
	DirNodes  int64
}

// bulkCheckpointPages is how many staged pages accumulate before a
// mid-build checkpoint flushes them. A checkpoint persists only
// not-yet-referenced fresh pages under the old root, so a crash after one
// costs orphaned space, never consistency.
const bulkCheckpointPages = 8192

// BulkLoad ingests every record the iterator yields by building the tree
// bottom-up from a sorted run instead of inserting top-down: records are
// sorted by pseudo-key (spilling to temp files past the memory budget),
// carved sequentially into the data pages insertion would make, and the
// directory grouped above them one level at a time — no splits. At
// symmetric NodeBits (the default) the directory is the one inserting
// the same records leaves, so the §4 access bound holds on it. Records
// already in the index are folded into the rebuild and keep their values
// when the stream duplicates their keys.
//
// next returns one record per call and ok=false at end of stream; the
// record is consumed before the next call. The iterator is drained
// without blocking concurrent readers or writers; writers stall only for
// the sort-and-build phase. The new root becomes durable in one commit —
// BulkLoad's final Sync — so a crash at any point recovers either the
// pre-load index or the fully loaded one, never a partial state.
// BulkLoad requires the BMEH scheme and must not race with Close.
func (ix *Index) BulkLoad(next func() (KV, bool, error), opts BulkOptions) (BulkStats, error) {
	ix.mu.RLock()
	if ix.closed {
		ix.mu.RUnlock()
		return BulkStats{}, pagestore.ErrClosed
	}
	tr, ok := ix.idx.(*core.Tree)
	scheme := ix.scheme
	ix.mu.RUnlock()
	if !ok {
		return BulkStats{}, fmt.Errorf("bmeh: BulkLoad requires the BMEH scheme (index uses %v)", scheme)
	}

	scratch := make(bitkey.Vector, ix.prm.Dims)
	coreNext := func() (bitkey.Vector, uint64, bool, error) {
		kv, ok, err := next()
		if err != nil || !ok {
			return nil, 0, false, err
		}
		if err := ix.fillKey(scratch, kv.Key); err != nil {
			return nil, 0, false, err
		}
		return scratch, kv.Value, true, nil
	}
	copts := core.BulkOptions{
		MemoryBudget: opts.MemoryBudget,
		SpillDir:     opts.SpillDir,
	}
	if ix.file != nil {
		// Bound staged-page memory on long loads: flush through the WAL
		// whenever enough pages pile up. The root swap has not happened,
		// so each flush persists a consistent pre-load state.
		copts.Checkpoint = func() error {
			if ix.file.Dirty() < bulkCheckpointPages {
				return nil
			}
			return ix.Sync()
		}
	}
	st, err := tr.BulkLoad(coreNext, copts)
	stats := BulkStats{
		Loaded:     st.Loaded,
		Duplicates: st.Duplicates,
		SpillRuns:  st.SpillRuns,
		Levels:     st.Levels,
		DataPages:  st.DataPages,
		DirNodes:   st.DirNodes,
	}
	if err != nil {
		return stats, translateErr(err)
	}
	// The commit point: the new root rides to disk in one WAL commit.
	// Crash before this Sync → the pre-load index; after → the loaded one.
	if err := ix.Sync(); err != nil {
		return stats, err
	}
	return stats, nil
}
