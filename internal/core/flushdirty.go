package core

// Deferred write-back for the insert fast path. An in-place insert into a
// cached data page used to encode and store the whole page image before
// returning; at one insert per page per write that re-encodes b records to
// change one. Instead, the fast path now marks the cached page dirty (which
// pins it in the decoded cache — see objEntry) and queues its PageID here.
// The bytes catch up in batches: each page is encoded once per flush,
// however many inserts it absorbed in between, which is where the batching
// win comes from.
//
// Durability is unchanged: the store stages every page write in memory
// until Sync — the commit boundary — so page bytes were never durable
// before it. Every flush entry point below runs before the store commit
// on that path. Trees with read accounting (the experiment harness) keep the
// write-through path instead: the paper's access model counts one page
// write per insert, and deferred batching would fold those writes together.
//
// Flush protocol: take the page's shared latch (excluding the in-place
// mutators, who need it exclusive), re-check the entry is still dirty (a
// split or delete may have rewritten it through writePage, which clears
// the bit), encode, write, clear. The flusher holds no other latches, so
// taking a rank-0 page latch is always order-safe.

import "bmeh/internal/pagestore"

const (
	// dirtyHighWater is the queue length that makes writers start
	// draining. It trades memory (dirty pages are pinned decoded) and
	// post-crash rework against batching: the deeper the queue, the more
	// inserts each page absorbs per encode.
	dirtyHighWater = 8192
	// dirtyFlushBatch is how many pages one writer drains per trip over
	// the high-water mark, amortizing flush work across writers.
	dirtyFlushBatch = 16
)

// markPageDirty defers the write-back of a page just mutated in place
// under its exclusive latch. It reports false when the page is not cached
// (cache disabled, or evicted before the mark landed) — the caller must
// then write the page through itself.
func (t *Tree) markPageDirty(id pagestore.PageID) bool {
	newly, ok := t.pc.markDirty(id)
	if !ok {
		return false
	}
	if newly {
		t.dirtyMu.Lock()
		t.dirtyIDs = append(t.dirtyIDs, id)
		t.dirtyMu.Unlock()
		t.dirtyLen.Add(1)
	}
	return true
}

// maybeFlushDirty drains a batch of queued pages once the queue passes the
// high-water mark. Writers call it after releasing their descent latches;
// it must not be called with any latch held.
func (t *Tree) maybeFlushDirty() error {
	if t.dirtyLen.Load() <= dirtyHighWater {
		return nil
	}
	return t.flushDirtyN(dirtyFlushBatch)
}

// FlushDirtyPages writes back every queued dirty page. It is the commit
// half of the deferred write path: Sync-like operations call it before
// flushing the page pool, and it must also run before anything reads page
// bytes from the store expecting them current (reopen, byte-level checks).
func (t *Tree) FlushDirtyPages() error {
	for {
		n := t.dirtyLen.Load()
		if n == 0 {
			return nil
		}
		if err := t.flushDirtyN(int(n)); err != nil {
			return err
		}
	}
}

// flushDirtyN pops up to n queued ids and flushes each.
func (t *Tree) flushDirtyN(n int) error {
	t.dirtyMu.Lock()
	if n > len(t.dirtyIDs) {
		n = len(t.dirtyIDs)
	}
	batch := t.dirtyIDs[:n:n]
	t.dirtyIDs = t.dirtyIDs[n:]
	if len(t.dirtyIDs) == 0 {
		t.dirtyIDs = nil // let the drained backing array go
	}
	t.dirtyMu.Unlock()
	t.dirtyLen.Add(int64(-n))
	for i, id := range batch {
		if err := t.flushOneDirty(id); err != nil {
			// Re-queue the failed page and everything after it: their
			// entries are still dirty and must not be silently dropped.
			rest := batch[i:]
			t.dirtyMu.Lock()
			t.dirtyIDs = append(t.dirtyIDs, rest...)
			t.dirtyMu.Unlock()
			t.dirtyLen.Add(int64(len(rest)))
			return err
		}
	}
	return nil
}

// flushOneDirty writes one queued page's bytes if its entry is still
// dirty. A stale queue entry — the page was freed, or rewritten whole by a
// split or delete commit — flushes as a no-op.
func (t *Tree) flushOneDirty(id pagestore.PageID) error {
	l := t.latches.of(id)
	l.RLock(0)
	p, ok := t.pc.getIfDirty(id)
	if !ok {
		l.RUnlock()
		return nil
	}
	err := t.pages.Write(id, p)
	if err == nil {
		t.pc.clearDirty(id)
		t.pageEpoch.Add(1)
	}
	l.RUnlock()
	return err
}
