package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"bmeh/internal/bitkey"
	"bmeh/internal/datapage"
	"bmeh/internal/dirnode"
	"bmeh/internal/latch"
	"bmeh/internal/pagestore"
)

// This file implements the copy-on-write write mode (EnableCOW): every
// mutation runs inside a shadowCtx that redirects page writes to freshly
// allocated pages, and the whole operation commits with a single atomic
// root swap (rc.installAt). Committed pages are never written in place, so
//
//   - readers are latch-free by construction: between commits the tree's
//     pages are immutable, and a commit is one pointer store plus version
//     bumps, which the existing structVer validation already orders;
//   - Snapshot() pins a (root, epoch) pair and reads it consistently for
//     as long as it likes, with no locks and no retry loop;
//   - superseded pages go to an epoch-based deferred free list
//     (pagestore.EpochList) and recycle only once no snapshot pins an
//     epoch that can still reach them;
//   - the crash story collapses to the latched mode's strongest case: the
//     meta record's root pointer is the only commit point.
//
// The mode is exclusive-writer: Insert/Delete take wgate's write side, so
// the shadow state is single-threaded by construction. The in-place
// insert commit and the structVer-retry split dance are simply never
// taken. Delete runs the latched mode's descent unchanged (it is a single
// writer in both modes); the shadow only wraps it (see Delete).
//
// Namespace discipline: the restructuring algorithms (insert.go,
// delete.go) keep running on the ids stored in directory entries — the
// "old" namespace of the committed tree plus ids freshly allocated by this
// operation. Translation to shadow targets happens only at the storage
// boundary: readNodeSh/readPageSh/readNodeMut/readPageMut translate on
// read, writeNode/writePage redirect on write, freePage/freeNode/freeAll
// divert to shFree. Entries are rewritten to final ids once, at commit, by
// stitchShadow. The latch-free read path (readNode/readPage) NEVER
// consults the shadow: readers race those helpers, and in latched mode
// the shadow fields are never written, so the nil check is the only read
// that overlaps.
//
// Commit ordering (load-bearing): installAt → structVer/pageEpoch bumps →
// Retire → tryReclaim. Retiring before the install would let a concurrent
// Snapshot.Close reclaim pages still referenced by the published root
// while an optimistic reader validates against an un-bumped structVer and
// returns garbage as a valid result. With the install and bumps first,
// a reader that saw a pre-commit version and then reads a reclaimed page
// fails its validation and retries against the new root.

// shadowCtx is the write-side state of one in-flight COW operation.
type shadowCtx struct {
	// remap maps a committed page id to the fresh page holding its
	// operation-local replacement.
	remap map[pagestore.PageID]pagestore.PageID
	// fresh marks pages allocated by this operation (including remap
	// targets); they are invisible to readers until commit and freed
	// outright on abort or intra-operation free.
	fresh map[pagestore.PageID]bool
	// readNodes marks every directory node the operation descended
	// through (by its entry id); stitchShadow walks exactly these to find
	// entries that still name superseded ids.
	readNodes map[pagestore.PageID]bool
	// retired accumulates committed pages superseded by this operation;
	// they join the epoch free list at commit (or are forgotten on abort).
	retired []pagestore.PageID
	// root, when non-nil, is the operation's working root (already in the
	// fresh namespace); nil while the root is still the committed one.
	root *rootRef
	// n0/nNodes0 snapshot the counters at beginShadow for abort rollback.
	n0, nNodes0 int64
}

// target returns the shadow id to use in place of id: its remap if the
// page was rewritten this operation, else id itself.
func (sh *shadowCtx) target(id pagestore.PageID) pagestore.PageID {
	if nid, ok := sh.remap[id]; ok {
		return nid
	}
	return id
}

// EnableCOW switches the tree to the copy-on-write write mode. The switch
// is one-way and must happen before the tree is shared with concurrent
// users (like params, the write mode is a property set at open time).
func (t *Tree) EnableCOW() { t.cow = true }

// COWEnabled reports whether the tree is in the copy-on-write write mode.
func (t *Tree) COWEnabled() bool { return t.cow }

// Epoch returns the current commit epoch (0 until the first COW commit;
// latched-mode commits do not advance it).
func (t *Tree) Epoch() uint64 { return t.rc.load().epoch }

// PinnedEpochs returns how many distinct epochs open snapshots pin.
func (t *Tree) PinnedEpochs() int {
	t.snapMu.Lock()
	defer t.snapMu.Unlock()
	return len(t.pinned)
}

// SetSnapshotMaxPinAge bounds how long a snapshot may pin its epoch:
// pins older than d are force-released by the next reclamation pass, and
// the released snapshot's reads fail with ErrSnapshotReleased. Zero (the
// default) means pins never expire. The option exists for abandoned pins
// — a snapshot leaked without Close would otherwise hold every page
// retired since it was taken, forever. A snapshot actively reading when
// its pin expires loses the race: an in-flight scan may fail mid-way
// (or, worst case, observe recycled pages), so set the age well above
// any legitimate read's duration. Setup-time only: call before the tree
// is shared.
func (t *Tree) SetSnapshotMaxPinAge(d time.Duration) {
	t.snapMu.Lock()
	t.maxPinAge = d
	t.snapMu.Unlock()
}

// ForcedReleases returns how many snapshots the max-pin-age sweep has
// force-released over the tree's lifetime.
func (t *Tree) ForcedReleases() uint64 { return t.forcedReleases.Load() }

// ReclaimablePages returns how many superseded pages await epoch
// reclamation (they recycle as soon as the snapshots pinning them close).
func (t *Tree) ReclaimablePages() int {
	_, pages := t.retiredAt.Pending()
	return pages
}

// PendingRetired returns the retired-but-unreclaimed pages with their
// retiring epochs (diagnostics and Fsck cross-checks).
func (t *Tree) PendingRetired() []pagestore.RetiredPage {
	return t.retiredAt.PendingIDs()
}

// ReclaimPending reclaims every retired page no snapshot can reach. Open
// paths call it once after Load so pages left pending by a crash (or a
// shutdown with snapshots open) return to the free list; replication
// reload must NOT call it — replicas track the primary byte-for-byte and
// may not mutate the store on their own.
func (t *Tree) ReclaimPending() error {
	t.wgate.Lock()
	defer t.wgate.Unlock()
	return t.tryReclaim()
}

// writerRoot is the root as the exclusive writer sees it mid-operation:
// the shadow root once the operation has rewritten the root, else the
// committed one. The returned pointer is stable for the duration of a
// handshake (only the single writer replaces sh.root).
func (t *Tree) writerRoot() *rootRef {
	if sh := t.sh; sh != nil && sh.root != nil {
		return sh.root
	}
	return t.rc.load()
}

// shTarget translates id through the live shadow, if any (for cache
// bookkeeping on paths shared between the two modes).
func (t *Tree) shTarget(id pagestore.PageID) pagestore.PageID {
	if sh := t.sh; sh != nil {
		return sh.target(id)
	}
	return id
}

// readNodeSh is the write-path node read: under a shadow it records the
// node as descended-through (stitchShadow rewrites exactly those) and
// reads the shadow target. Mutating callers still use readNodeMut, which
// translates the same way.
func (t *Tree) readNodeSh(id pagestore.PageID) (*dirnode.Node, error) {
	if sh := t.sh; sh != nil {
		sh.readNodes[id] = true
		return t.readNode(sh.target(id))
	}
	return t.readNode(id)
}

// readPageSh is readNodeSh for data pages (no marking: stitch finds page
// entries through their owning nodes).
func (t *Tree) readPageSh(id pagestore.PageID) (*datapage.Page, error) {
	if sh := t.sh; sh != nil {
		return t.readPage(sh.target(id))
	}
	return t.readPage(id)
}

// allocNode/allocPage allocate a fresh page and, under a shadow, mark it
// operation-local so abort can free it and writes to it stay in place.
func (t *Tree) allocNode() (pagestore.PageID, error) {
	id, err := t.nodes.Alloc()
	if err == nil && t.sh != nil {
		t.sh.fresh[id] = true
	}
	return id, err
}

func (t *Tree) allocPage() (pagestore.PageID, error) {
	id, err := t.pages.Alloc()
	if err == nil && t.sh != nil {
		t.sh.fresh[id] = true
	}
	return id, err
}

// writeNodeShadow redirects a node commit into the shadow: the first
// write of a committed page allocates a fresh target and retires the
// original; subsequent writes (and writes of operation-local pages) land
// in place. No version is bumped — the operation publishes nothing until
// commitShadow.
func (t *Tree) writeNodeShadow(id pagestore.PageID, n *dirnode.Node) error {
	sh := t.sh
	tid := sh.target(id)
	if !sh.fresh[tid] {
		nid, err := t.nodes.Alloc()
		if err != nil {
			return err
		}
		sh.remap[id] = nid
		sh.retired = append(sh.retired, id)
		sh.fresh[nid] = true
		tid = nid
	}
	if err := t.nodes.Write(tid, n); err != nil {
		return err
	}
	t.nc.put(tid, n)
	wr := t.writerRoot()
	if id == wr.pageID || tid == wr.pageID {
		sh.root = &rootRef{pageID: tid, node: n}
	}
	return nil
}

// writePageShadow is writeNodeShadow for data pages.
func (t *Tree) writePageShadow(id pagestore.PageID, p *datapage.Page) error {
	sh := t.sh
	tid := sh.target(id)
	if !sh.fresh[tid] {
		nid, err := t.pages.Alloc()
		if err != nil {
			return err
		}
		sh.remap[id] = nid
		sh.retired = append(sh.retired, id)
		sh.fresh[nid] = true
		tid = nid
	}
	if err := t.pages.Write(tid, p); err != nil {
		return err
	}
	t.pc.put(tid, p)
	return nil
}

// shFree diverts a free into the shadow. Operation-local pages (and the
// local replacements of committed pages) free immediately — no reader can
// hold them. A committed page retires instead: its bytes must survive
// until every snapshot that can reach it closes, so its cache entries
// also stay valid until reclaim.
func (t *Tree) shFree(id pagestore.PageID) error {
	sh := t.sh
	if sh.fresh[id] {
		t.nc.invalidate(id)
		t.pc.invalidate(id)
		delete(sh.fresh, id)
		// Drop any remap whose target this was; its source stays retired
		// (the committed page is unreachable in the new tree either way).
		for old, nid := range sh.remap {
			if nid == id {
				delete(sh.remap, old)
			}
		}
		return t.st.Free(id)
	}
	if nid, ok := sh.remap[id]; ok {
		// The operation rewrote this page and now frees it: discard the
		// local replacement; id itself was retired at remap time.
		t.nc.invalidate(nid)
		t.pc.invalidate(nid)
		delete(sh.remap, id)
		delete(sh.fresh, nid)
		return t.st.Free(nid)
	}
	sh.retired = append(sh.retired, id)
	return nil
}

// beginShadow opens a shadow context for one operation (caller holds
// wgate exclusively). Contexts are recycled through shSpare.
func (t *Tree) beginShadow() {
	sh := t.shSpare
	if sh == nil {
		sh = &shadowCtx{
			remap:     make(map[pagestore.PageID]pagestore.PageID),
			fresh:     make(map[pagestore.PageID]bool),
			readNodes: make(map[pagestore.PageID]bool),
		}
	} else {
		t.shSpare = nil
	}
	sh.n0 = t.n.Load()
	sh.nNodes0 = t.nNodes.Load()
	t.sh = sh
}

// endShadow clears and stashes a detached shadow context for reuse.
func (t *Tree) endShadow(sh *shadowCtx) {
	clear(sh.remap)
	clear(sh.fresh)
	clear(sh.readNodes)
	sh.retired = sh.retired[:0]
	sh.root = nil
	t.shSpare = sh
}

// abortShadow discards the in-flight operation whole: fresh pages are
// freed, counters roll back, and the committed tree — which the shadow
// never touched — remains in force. This is what makes a COW mutation
// all-or-nothing even across multi-step restructurings.
func (t *Tree) abortShadow() {
	sh := t.sh
	t.sh = nil
	for id := range sh.fresh {
		t.nc.invalidate(id)
		t.pc.invalidate(id)
		_ = t.st.Free(id) // best-effort; a failure only leaks the page
	}
	t.n.Store(sh.n0)
	t.nNodes.Store(sh.nNodes0)
	t.endShadow(sh)
}

// commitShadow publishes the operation: stitch every surviving path onto
// final page ids, swap the root, bump the versions, retire the superseded
// pages at the new epoch, and reclaim whatever no snapshot pins. See the
// file comment for why this exact order is load-bearing.
func (t *Tree) commitShadow() error {
	sh := t.sh
	if len(sh.remap) == 0 && len(sh.fresh) == 0 && len(sh.retired) == 0 && sh.root == nil {
		t.sh = nil // read-only operation (e.g. delete of an absent key)
		t.endShadow(sh)
		return nil
	}
	finalID, finalNode, err := t.stitchShadow()
	if err != nil {
		t.abortShadow()
		return err
	}
	newEpoch := t.rc.load().epoch + 1
	t.sh = nil
	t.rc.installAt(finalID, finalNode, newEpoch, t.n.Load())
	t.structVer.Add(1)
	t.pageEpoch.Add(1)
	t.retiredAt.Retire(newEpoch, sh.retired)
	t.nc.invalidate(finalID) // the pinned root shadows any cached copy
	t.endShadow(sh)
	return t.tryReclaim()
}

// stitchShadow rewrites every directory path that still names a
// superseded id so the committed tree references only final pages, and
// returns the final root. The walk visits exactly the nodes the operation
// descended through, rewrote, or created (everything else is bytewise
// untouched and needs no fixing); a node whose entries change is
// committed through writeNode, which self-redirects into the shadow —
// so the fix-ups themselves are copy-on-write and the propagation reaches
// the root by construction.
func (t *Tree) stitchShadow() (pagestore.PageID, *dirnode.Node, error) {
	sh := t.sh
	memo := make(map[pagestore.PageID]pagestore.PageID)
	relevant := func(id pagestore.PageID) bool {
		if sh.readNodes[id] || sh.fresh[id] {
			return true
		}
		_, ok := sh.remap[id]
		return ok
	}
	// stitchIn rewrites the entries of one node (given as the object the
	// writer holds), cloning before the first change.
	var stitch func(id pagestore.PageID) (pagestore.PageID, error)
	stitchIn := func(id pagestore.PageID, n *dirnode.Node) (*dirnode.Node, bool, error) {
		cur, changed := n, false
		for i := range n.Entries {
			e := n.Entries[i]
			if e.Ptr == pagestore.NilPage {
				continue
			}
			var nid pagestore.PageID
			if e.IsNode {
				if !relevant(e.Ptr) {
					continue // nothing under this entry changed
				}
				var err error
				nid, err = stitch(e.Ptr)
				if err != nil {
					return nil, false, err
				}
			} else {
				var ok bool
				nid, ok = sh.remap[e.Ptr]
				if !ok {
					continue
				}
			}
			if nid == e.Ptr {
				continue
			}
			if !changed {
				cur = n.Clone()
				changed = true
			}
			cur.Entries[i].Ptr = nid
		}
		return cur, changed, nil
	}
	stitch = func(id pagestore.PageID) (pagestore.PageID, error) {
		if fid, ok := memo[id]; ok {
			return fid, nil
		}
		n, err := t.readNode(sh.target(id))
		if err != nil {
			return 0, err
		}
		cur, changed, err := stitchIn(id, n)
		if err != nil {
			return 0, err
		}
		if changed {
			if err := t.writeNode(id, cur); err != nil {
				return 0, err
			}
		}
		fid := sh.target(id)
		memo[id] = fid
		return fid, nil
	}
	wr := t.writerRoot()
	cur, changed, err := stitchIn(wr.pageID, wr.node)
	if err != nil {
		return 0, nil, err
	}
	if changed {
		// writeNode redirects into the shadow and updates sh.root.
		if err := t.writeNode(wr.pageID, cur); err != nil {
			return 0, nil, err
		}
	}
	fr := t.writerRoot()
	return fr.pageID, fr.node, nil
}

// tryReclaim frees every retired page whose retiring epoch no open
// snapshot predates. A page retired at epoch e is reachable only from
// roots of epochs < e, so with E = min(pinned epochs) everything retired
// at e ≤ E is unreachable from every pinned snapshot and from the current
// root alike. Safe to call from any goroutine: the store allocator and
// the caches synchronize themselves, and pages freed here are not
// reachable from any published root (an optimistic reader that wandered
// onto one from a stale root fails its structVer validation).
func (t *Tree) tryReclaim() error {
	// snapMu is held across the frees, not just the min computation: if it
	// were dropped in between, a Snapshot could pin the current root while
	// a concurrent commit retires that root's predecessors — and the stale
	// minOpen computed here would free pages the fresh pin still reaches.
	// Holding the lock makes "compute the floor" and "free up to it" atomic
	// against pinning; new pins always see the post-reclaim store.
	t.snapMu.Lock()
	defer t.snapMu.Unlock()
	if t.maxPinAge > 0 {
		// Force-release abandoned pins before computing the floor, so a
		// leaked snapshot stops holding retired pages the moment any
		// commit or Close triggers reclamation past its age.
		now := time.Now()
		for s, at := range t.snapPins {
			if now.Sub(at) > t.maxPinAge {
				s.released.Store(true)
				delete(t.snapPins, s)
				t.unpinLocked(s.ref.epoch)
				t.forcedReleases.Add(1)
			}
		}
	}
	minOpen := ^uint64(0)
	for e := range t.pinned {
		if e < minOpen {
			minOpen = e
		}
	}
	_, err := t.retiredAt.ReclaimUpTo(minOpen, func(id pagestore.PageID) error {
		t.nc.invalidate(id)
		t.pc.invalidate(id)
		return t.st.Free(id)
	})
	return err
}

// insertCOW is the copy-on-write Insert: exclusive writer, shadowed
// restructuring steps, one commit.
func (t *Tree) insertCOW(k bitkey.Vector, v uint64) error {
	t.wgate.Lock()
	defer t.wgate.Unlock()
	t.structMu.Lock()
	latch.BeginStructural()
	defer func() {
		latch.EndStructural()
		t.structMu.Unlock()
	}()
	t.beginShadow()
	structural := true // structMu is already held for the whole operation
	for step := 0; step < maxRestructures; step++ {
		done, err := t.tryInsert(k, v, &structural)
		if err != nil {
			t.abortShadow()
			return err
		}
		if done {
			return t.commitShadow()
		}
	}
	t.abortShadow()
	return fmt.Errorf("bmeh: insertion did not converge after %d restructurings", maxRestructures)
}

// ErrSnapshotMode is returned by Snapshot on a tree not in COW mode.
var ErrSnapshotMode = errors.New("bmeh: snapshots require the copy-on-write write mode")

// ErrSnapshotReleased is returned by reads on a snapshot whose pin was
// force-released by the max-pin-age sweep (SetSnapshotMaxPinAge).
var ErrSnapshotReleased = errors.New("bmeh: snapshot pin force-released (exceeded max pin age)")

// TreeSnapshot is an immutable, latch-free view of the tree as of one
// commit epoch. Reads cost no locks and no retries: the pages reachable
// from the pinned root are never rewritten in place (COW) and never
// recycled while the snapshot is open (epoch reclamation). Close releases
// the pin; a snapshot left open only delays page reuse, never correctness
// — unless the tree runs with a max pin age, in which case the pin is
// eventually force-released and further reads fail with
// ErrSnapshotReleased.
type TreeSnapshot struct {
	t      *Tree
	ref    *rootRef
	closed bool
	// released is set by the max-pin-age sweep (under snapMu) and read
	// by the lock-free read paths, hence atomic.
	released atomic.Bool
}

// Snapshot pins the current (root, epoch) pair. The pin and the reclaim
// scan serialize on snapMu: a pin that completes before a reclaim is seen
// by it; a pin that starts after one loads the root the reclaim's commit
// already published, whose pages are not retired.
func (t *Tree) Snapshot() (*TreeSnapshot, error) {
	if !t.cow {
		return nil, ErrSnapshotMode
	}
	t.snapMu.Lock()
	r := t.rc.load()
	t.pinned[r.epoch]++
	s := &TreeSnapshot{t: t, ref: r}
	t.snapPins[s] = time.Now()
	t.snapMu.Unlock()
	return s, nil
}

// unpinLocked drops one pin on epoch e. Caller holds snapMu.
func (t *Tree) unpinLocked(e uint64) {
	if c := t.pinned[e]; c <= 1 {
		delete(t.pinned, e)
	} else {
		t.pinned[e] = c - 1
	}
}

// Epoch returns the commit epoch the snapshot pins.
func (s *TreeSnapshot) Epoch() uint64 { return s.ref.epoch }

// Len returns the number of records in the snapshot.
func (s *TreeSnapshot) Len() int { return int(s.ref.count) }

// Close releases the snapshot's epoch pin and reclaims whatever became
// recyclable. Idempotent; a pin already force-released by the
// max-pin-age sweep is not released twice.
func (s *TreeSnapshot) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	t := s.t
	t.snapMu.Lock()
	if _, open := t.snapPins[s]; open {
		delete(t.snapPins, s)
		t.unpinLocked(s.ref.epoch)
	}
	t.snapMu.Unlock()
	return t.tryReclaim()
}

// Get is the snapshot's exact-match search: one latch-free descent from
// the pinned root, no validation loop — the route is immutable.
func (s *TreeSnapshot) Get(k bitkey.Vector) (uint64, bool, error) {
	t := s.t
	if s.released.Load() {
		return 0, false, ErrSnapshotReleased
	}
	if err := t.checkKey(k); err != nil {
		return 0, false, err
	}
	dc := t.getDescent(k)
	defer t.putDescent(dc)
	v := dc.v
	node := s.ref.node
	for {
		q := t.nodeIndexInto(node, v, dc.idx)
		e := &node.Entries[q]
		if e.Ptr == pagestore.NilPage {
			return 0, false, nil
		}
		if !e.IsNode {
			p, err := t.readPage(e.Ptr)
			if err != nil {
				return 0, false, err
			}
			val, ok := p.Get(k)
			return val, ok, nil
		}
		for j := 0; j < t.prm.Dims; j++ {
			v[j] = bitkey.LeftShift(v[j], int(e.H[j]), t.prm.Width)
		}
		var err error
		node, err = t.readNode(e.Ptr)
		if err != nil {
			return 0, false, err
		}
	}
}

// Range scans the box [lo, hi] within the snapshot, consistent with its
// epoch no matter how fast a concurrent writer commits. It holds no lock
// at all — not even structMu — and skips the page latches (snapshot pages
// cannot change under it).
func (s *TreeSnapshot) Range(lo, hi bitkey.Vector, fn func(k bitkey.Vector, v uint64) bool) error {
	t := s.t
	if s.released.Load() {
		return ErrSnapshotReleased
	}
	if err := t.checkKey(lo); err != nil {
		return err
	}
	if err := t.checkKey(hi); err != nil {
		return err
	}
	for j := range lo {
		if hi[j] < lo[j] {
			return nil
		}
	}
	return t.rangeFrom(s.ref.node, lo, hi, true, fn)
}

// ReachableIDs returns every page id the snapshot can reach, root first
// (the page set an online backup must copy).
func (s *TreeSnapshot) ReachableIDs() ([]pagestore.PageID, error) {
	if s.released.Load() {
		return nil, ErrSnapshotReleased
	}
	ids := []pagestore.PageID{s.ref.pageID}
	err := s.t.forEachPageRefFrom(s.ref.node, func(id pagestore.PageID, isNode bool) {
		ids = append(ids, id)
	})
	if err != nil {
		return nil, err
	}
	return ids, nil
}

// MarshalMeta serializes a meta record describing the snapshot's tree
// (its root, node count, record count and epoch, with no pending frees):
// paired with the pages from ReachableIDs it is a complete, openable
// image of the index as of the snapshot's epoch.
func (s *TreeSnapshot) MarshalMeta() ([]byte, error) {
	if s.released.Load() {
		return nil, ErrSnapshotReleased
	}
	nNodes := int64(1) // the root
	err := s.t.forEachPageRefFrom(s.ref.node, func(id pagestore.PageID, isNode bool) {
		if isNode {
			nNodes++
		}
	})
	if err != nil {
		return nil, err
	}
	return s.t.marshalMetaState(s.ref.pageID, nNodes, s.ref.count, s.ref.epoch, nil), nil
}
