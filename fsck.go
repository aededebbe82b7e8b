package bmeh

import (
	"bytes"
	"fmt"
	"os"

	"bmeh/internal/core"
	"bmeh/internal/mdeh"
	"bmeh/internal/mehtree"
	"bmeh/internal/pagestore"
)

// FsckReport is the result of an offline integrity check of a file-backed
// index. A report with no Problems means every on-disk page passed its
// checksum, the index header parsed, and the structure satisfied Validate.
type FsckReport struct {
	// Path is the index file that was checked.
	Path string
	// PageSize is the store's page size in bytes.
	PageSize int
	// Pages is the number of page slots in the file, meta page included.
	Pages int
	// FreePages is how many of those slots are on the free list.
	FreePages int
	// Scheme names the directory organization recorded in the file, when
	// the header was readable.
	Scheme string
	// Records is the record count recovered from the header, when the
	// index loaded.
	Records int
	// WALBatches is the number of fully committed write-ahead-log batches
	// found in the log before recovery: 0 after a clean shutdown, whose
	// final checkpoint empties the log, and after a crash every commit
	// since the last checkpoint, so often more than 1.
	WALBatches int
	// WALFrames is the number of page frames those batches carried.
	WALFrames int
	// WALTailBytes counts log bytes after the last committed batch — the
	// residue of a commit torn by a crash. Harmless (recovery discards
	// it), reported for visibility.
	WALTailBytes int
	// PendingPages is how many allocated pages the header records as
	// retired-awaiting-reclamation (WriteModeCOW's deferred free list).
	// They are recycled the next time the index is opened for use.
	PendingPages int
	// LeakedPages counts allocated pages that are neither reachable from
	// the directory root nor on the free list nor pending reclamation.
	// Leaks waste space but never corrupt reads; a crash between a COW
	// replication snapshot's commit and the next Sync can strand a few.
	// BMEH-scheme files only (0 otherwise).
	LeakedPages int
	// Problems lists every finding, one line each. Empty means clean.
	Problems []string
}

// OK reports whether the check found no problems.
func (r *FsckReport) OK() bool { return len(r.Problems) == 0 }

func (r *FsckReport) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Fsck runs an offline integrity check of the index file at path and
// returns a report; it returns a non-nil error only when no check could be
// attempted at all. Findings — an unopenable store, checksum-damaged
// pages, an unparseable header, structural invariant violations — land in
// the report's Problems, so callers branch on report.OK(), not on err.
//
// Opening the store runs crash recovery first: a committed write-ahead-log
// tail is replayed into the file (as any reopen would), so Fsck judges the
// recovered state. The index must not be open elsewhere during the check.
//
// The WAL-chain check reads the raw log before recovery resets it and
// verifies that the CRC chain of every committed, un-truncated batch
// matches the applied page state: each page's final journaled image must
// equal its home slot after replay. A mismatch means the file diverged
// from its own log — the signature of replica divergence or an errant
// writer — and is reported as a problem.
func Fsck(path string) (*FsckReport, error) {
	r := &FsckReport{Path: path}
	// Capture the log's bytes first: opening the store replays and resets
	// it.
	walBytes, walErr := os.ReadFile(path + ".wal")
	if walErr != nil && !os.IsNotExist(walErr) {
		r.problemf("reading WAL: %v", walErr)
	}
	fd, err := pagestore.OpenFileDisk(path)
	if err != nil {
		r.problemf("opening store: %v", err)
		return r, nil
	}
	defer fd.Close()
	r.PageSize = fd.PageSize()

	pages, free, damaged := fd.CheckPages()
	r.Pages, r.FreePages = pages, free
	for _, e := range damaged {
		r.problemf("page scan: %v", e)
	}

	r.checkWALChain(fd, walBytes)

	meta := make([]byte, fd.PageSize())
	n, err := fd.ReadMeta(meta)
	if err != nil {
		r.problemf("reading index header: %v", err)
		return r, nil
	}
	if n == 0 {
		r.problemf("store holds no index header")
		return r, nil
	}
	var idx interface {
		Len() int
		Validate() error
	}
	switch meta[0] {
	case 'B':
		r.Scheme = SchemeBMEH.String()
		idx, err = core.Load(fd, meta[:n])
	case 'M':
		r.Scheme = SchemeMEH.String()
		idx, err = mehtree.Load(fd, meta[:n])
	case 'D':
		r.Scheme = SchemeMDEH.String()
		idx, err = mdeh.Load(fd, meta[:n])
	default:
		r.problemf("unknown index kind %q in header", meta[0])
		return r, nil
	}
	if err != nil {
		r.problemf("loading index: %v", err)
		return r, nil
	}
	r.Records = idx.Len()
	if err := idx.Validate(); err != nil {
		r.problemf("structural check: %v", err)
	}
	if tr, ok := idx.(*core.Tree); ok {
		r.checkPageLifecycle(fd, tr)
	}
	return r, nil
}

// checkPageLifecycle cross-checks the three page populations a BMEH file
// partitions its slots into — tree-reachable, free-listed, and
// retired-pending (the COW deferred free list persisted in the header).
// The populations must be disjoint: a page both reachable and free (or
// reachable and pending) would be recycled while live data still routes
// through it, the most dangerous corruption a store can carry. Allocated
// pages in none of the three populations are leaks: wasted space, never
// wrong answers.
func (r *FsckReport) checkPageLifecycle(fd *pagestore.FileDisk, tr *core.Tree) {
	reachable := map[pagestore.PageID]bool{tr.RootPageID(): true}
	if err := tr.ForEachPageRef(func(id pagestore.PageID, isNode bool) {
		reachable[id] = true
	}); err != nil {
		r.problemf("page lifecycle: walking directory: %v", err)
		return
	}
	free, err := fd.FreePageIDs()
	if err != nil {
		r.problemf("page lifecycle: walking free list: %v", err)
		return
	}
	freeSet := make(map[pagestore.PageID]bool, len(free))
	for _, id := range free {
		freeSet[id] = true
		if reachable[id] {
			r.problemf("page lifecycle: page %d is both tree-reachable and on the free list", id)
		}
	}
	pending := tr.PendingRetired()
	r.PendingPages = len(pending)
	pendSet := make(map[pagestore.PageID]bool, len(pending))
	for _, p := range pending {
		pendSet[p.ID] = true
		if reachable[p.ID] {
			r.problemf("page lifecycle: page %d is tree-reachable but marked retired (epoch %d)", p.ID, p.Epoch)
		}
		if freeSet[p.ID] {
			r.problemf("page lifecycle: page %d is both free and marked retired (epoch %d)", p.ID, p.Epoch)
		}
	}
	// Everything allocated must be accounted for by exactly one
	// population; the remainder is leaked space.
	for id, count := uint32(1), fd.PageCount(); id < count; id++ {
		pid := pagestore.PageID(id)
		k, err := fd.KindOf(pid)
		if err != nil {
			r.problemf("page lifecycle: kind of page %d: %v", id, err)
			continue
		}
		if k == pagestore.KindFree || reachable[pid] || pendSet[pid] {
			continue
		}
		r.LeakedPages++
	}
}

// checkWALChain verifies the captured log against the recovered store:
// every committed batch's CRC chain must parse, and each page's final
// journaled image must match its home slot. fd has already replayed the
// log, so a clean store satisfies this by construction; a mismatch means
// the main file and its log disagree about the same commit.
func (r *FsckReport) checkWALChain(fd *pagestore.FileDisk, walBytes []byte) {
	if len(walBytes) == 0 {
		return
	}
	batches, frames, tail, err := pagestore.ScanWALBytes(walBytes)
	r.WALBatches, r.WALFrames, r.WALTailBytes = batches, len(frames), tail
	if err != nil {
		r.problemf("WAL chain: %v", err)
		return
	}
	// Later batches overwrite earlier ones: only each page's final image
	// must match the applied state.
	final := make(map[pagestore.PageID]pagestore.Frame, len(frames))
	for _, fr := range frames {
		final[fr.ID] = fr
	}
	for id, fr := range final {
		got, kind, err := fd.RawPage(id)
		if err != nil {
			r.problemf("WAL chain: page %d journaled but unreadable: %v", id, err)
			continue
		}
		if kind != fr.Kind {
			r.problemf("WAL chain: page %d journaled as %v, stored as %v", id, fr.Kind, kind)
		}
		if !bytes.Equal(got, fr.Data) {
			r.problemf("WAL chain: page %d diverges from its journaled image", id)
		}
	}
}
