// Package core implements the paper's contribution: the Balanced
// Multidimensional Extendible Hash Tree (BMEH-tree, §3–§4).
//
// The directory is a height-balanced M-ary tree of fixed-size directory
// nodes (M = 2^φ, φ = Σξ_j). Every node is a small multidimensional
// extendible-hash directory with per-node global depths H_j ≤ ξ_j; leaf
// (level-1) nodes point to data pages, higher nodes point to nodes one
// level below. Searching strips, at each followed entry, that entry's
// *local* depths h_j from the pseudo-key — the local depths steer the
// descent, which is the scheme's distinctive mechanism.
//
// Growth: a page split that needs local depth h_m+1 first doubles the node
// along m while H_m < ξ_m; once dimension m is exhausted the node itself
// splits in two along m and the split propagates upward, K-D-B-tree style,
// possibly adding a new root. The tree therefore stays perfectly balanced:
// every root-to-page path has the same length, and with the root pinned in
// memory an exact-match search costs exactly (levels−1) node reads plus one
// data-page read.
//
// # Concurrency
//
// The tree synchronizes itself; callers need no external lock. The lock
// order, outermost first, is
//
//	wgate → structMu → node latches (root→leaf) → page latches
//
// wgate is the writer gate: inserts hold it shared for the duration of one
// operation; a delete holds it exclusively, with structMu, and so runs as
// the single writer. structMu serializes structure changes (splits,
// deletes and the readers that cannot tolerate them); an insert only ever
// Try-acquires it while latches are held, so writers never hold-and-wait
// on it. Insert descends once per attempt, crabbing exclusive per-node
// latches and releasing ancestors as soon as the child is split-safe;
// Delete descends once, latch-free under its exclusive holds. Search is
// optimistic (latch-free with structVer validation); Range runs under
// structMu's read side. See DESIGN.md for the full
// protocol and its deadlock-freedom argument.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bmeh/internal/bitkey"
	"bmeh/internal/datapage"
	"bmeh/internal/dirnode"
	"bmeh/internal/pagestore"
	"bmeh/internal/params"
)

// ErrDuplicate is returned when inserting a key that is already present.
var ErrDuplicate = errors.New("bmeh: duplicate key")

// PageBytes returns the page size required by the configuration: the larger
// of a data page (b records) and a directory node (2^φ elements).
func PageBytes(p params.Params) int {
	db := datapage.Size(p.Dims, p.Capacity)
	nb := dirnode.PageBytes(p.Dims, p.Phi())
	if nb > db {
		return nb
	}
	return db
}

// Tree is a BMEH-tree index.
type Tree struct {
	st     pagestore.Store
	prm    params.Params
	pages  *datapage.IO
	nodes  *dirnode.IO
	rc     rootCache    // pinned-root cache (paper §3.1); see rootcache.go
	nNodes atomic.Int64 // directory nodes, root included
	n      atomic.Int64 // stored records
	// nc and pc are the decoded-object caches above the byte store; see
	// nodecache.go for the coherence discipline.
	nc *objCache[*dirnode.Node]
	pc *objCache[*datapage.Page]
	// acct counts a logical read on a decoded-cache hit when the store
	// supports it (nil otherwise; see pagestore.ReadAccounter).
	acct func(pagestore.PageID) error
	// descents pools per-operation scratch so steady-state descents
	// allocate nothing.
	descents sync.Pool
	// nCascades counts downward K-D-B splits of plane-crossing referents
	// during node splits (white-box statistic for tests and ablations).
	nCascades atomic.Int64

	// wgate is the writer gate: every latched Insert holds the read side
	// for its whole operation; Delete, every COW write and Validate take
	// the write side to stop all other writers.
	wgate sync.RWMutex
	// structMu serializes structure changes: a writer that splits or
	// collapses holds it exclusively (Try-acquired while latched, or
	// blocking with nothing held); Range and the Search fallback hold it
	// shared to see a frozen tree shape.
	structMu sync.RWMutex
	// structVer counts structure-affecting commits (node writes and page
	// frees). Optimistic searches snapshot it before descending and retry
	// when it moved; read-miss cache installs use it to detect that the
	// object they decoded went stale while off-lock.
	structVer atomic.Uint64
	// pageEpoch counts data-page writes; it guards read-miss installs of
	// decoded pages the way structVer guards nodes, without making plain
	// in-place page commits visible to optimistic searches.
	pageEpoch atomic.Uint64
	// latches maps PageIDs to their per-node/per-page latches.
	latches latchTable

	// Copy-on-write write mode (see shadow.go). cow is set once by
	// EnableCOW before the tree is shared; sh is non-nil exactly while a
	// COW mutation is in flight and is touched only by the single
	// exclusive writer — the latch-free read path never consults it.
	cow     bool
	sh      *shadowCtx
	shSpare *shadowCtx
	// snapMu guards pinned, the per-epoch refcounts of open snapshots;
	// its mutual exclusion orders Snapshot's pin against tryReclaim's
	// minimum scan.
	snapMu sync.Mutex
	pinned map[uint64]int
	// snapPins maps each open snapshot to its pin time (guarded by
	// snapMu); the max-pin-age sweep walks it to find abandoned pins.
	snapPins map[*TreeSnapshot]time.Time
	// maxPinAge, when positive, is the age past which tryReclaim
	// force-releases a snapshot's pin. Set once before the tree is
	// shared (SetSnapshotMaxPinAge).
	maxPinAge time.Duration
	// forcedReleases counts snapshots force-released by the max-pin-age
	// sweep over the tree's lifetime.
	forcedReleases atomic.Uint64
	// retiredAt defers frees of superseded pages until no snapshot pins
	// an epoch that can still reach them.
	retiredAt *pagestore.EpochList
}

// descentCtx is the reusable scratch of one descent: the shifted pseudo-key
// vector, the per-dimension element index, the stripped-bits counter and
// frame stack of insert and delete descents, and the held-latch set of an
// insert descent.
type descentCtx struct {
	v     bitkey.Vector
	idx   []uint64
	strip []int
	// stack is the descent stack of tryInsert and deleteLocked; every
	// frame keeps its strip's backing array across uses.
	stack []frame
	ls    latchSet
}

// push appends a frame for node id with a copy of strip.
func (dc *descentCtx) push(id pagestore.PageID, node *dirnode.Node, strip []int) {
	n := len(dc.stack)
	dc.stack = slices.Grow(dc.stack, 1)[:n+1] // keeps the frames' strips
	f := &dc.stack[n]
	f.id, f.node = id, node
	f.strip = append(f.strip[:0], strip...)
}

// initRuntime wires the decoded caches, accounting hook, latch table and
// scratch pool; called by New and Load once prm and st are set.
func (t *Tree) initRuntime() {
	t.nc = newObjCache[*dirnode.Node](defaultNodeCacheCap)
	t.pc = newObjCache[*datapage.Page](defaultPageCacheCap)
	t.latches.init()
	t.pinned = make(map[uint64]int)
	t.snapPins = make(map[*TreeSnapshot]time.Time)
	t.retiredAt = pagestore.NewEpochList()
	if ra, ok := t.st.(pagestore.ReadAccounter); ok {
		t.acct = ra.AccountRead
	}
	d := t.prm.Dims
	t.descents.New = func() interface{} {
		return &descentCtx{
			v:     make(bitkey.Vector, d),
			idx:   make([]uint64, d),
			strip: make([]int, d),
			ls:    latchSet{t: t},
		}
	}
}

// getDescent fetches descent scratch with strip zeroed, the stack and latch
// set empty, and v loaded from k.
func (t *Tree) getDescent(k bitkey.Vector) *descentCtx {
	dc := t.descents.Get().(*descentCtx)
	copy(dc.v, k)
	for j := range dc.strip {
		dc.strip[j] = 0
	}
	dc.stack = dc.stack[:0]
	dc.ls.held = dc.ls.held[:0]
	return dc
}

// putDescent returns scratch to the pool.
func (t *Tree) putDescent(dc *descentCtx) { t.descents.Put(dc) }

// New creates an empty tree over st.
func New(st pagestore.Store, prm params.Params) (*Tree, error) {
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	if st.PageSize() < PageBytes(prm) {
		return nil, fmt.Errorf("bmeh: page size %d < required %d", st.PageSize(), PageBytes(prm))
	}
	t := &Tree{
		st:    st,
		prm:   prm,
		pages: datapage.NewIO(st, prm.Dims),
		nodes: dirnode.NewIO(st, prm.Dims),
	}
	t.initRuntime()
	id, err := t.nodes.Alloc()
	if err != nil {
		return nil, err
	}
	root := dirnode.New(prm.Dims, 1)
	t.installRoot(id, root)
	t.nNodes.Store(1)
	if err := t.nodes.Write(id, root); err != nil {
		return nil, err
	}
	return t, nil
}

// installRoot pins a new root and bumps the structure version so optimistic
// searches in flight retry against the new root.
func (t *Tree) installRoot(id pagestore.PageID, n *dirnode.Node) {
	if sh := t.sh; sh != nil {
		// COW: the root is not published mid-operation; commitShadow
		// installs it (and bumps the versions) once, at the commit point.
		sh.root = &rootRef{pageID: sh.target(id), node: n}
		return
	}
	t.rc.install(id, n)
	t.structVer.Add(1)
}

// Len returns the number of stored records.
func (t *Tree) Len() int { return int(t.n.Load()) }

// Levels returns the number of directory levels ℓ (root level).
func (t *Tree) Levels() int { return t.rc.load().node.Level }

// Nodes returns the number of directory nodes.
func (t *Tree) Nodes() int { return int(t.nNodes.Load()) }

// DirectoryPages returns the number of disk pages the directory occupies
// (one per node).
func (t *Tree) DirectoryPages() int { return int(t.nNodes.Load()) }

// DirectoryElements returns σ as the paper reports it for tree directories:
// nodes × 2^φ, since every node occupies a full fixed-size page.
func (t *Tree) DirectoryElements() int { return int(t.nNodes.Load()) * t.prm.NodeEntries() }

// Params returns the tree's configuration.
func (t *Tree) Params() params.Params { return t.prm }

// Cascades returns how many plane-crossing referents node splits have
// split downward (K-D-B style) over the tree's lifetime.
func (t *Tree) Cascades() int { return int(t.nCascades.Load()) }

// readNode fetches a non-root node (one counted logical read); the root
// comes from the pinned-root cache for free. A decoded-cache hit skips the
// byte copy and the decode but still accounts one read at the store layer
// (and can still fault there), keeping the §4 access model exact. The
// returned node is shared and must not be mutated — mutating descents use
// readNodeMut.
//
// A cache miss decodes and installs into a free slot with putIfAbsent
// (never evicting), guarded by a structVer snapshot: if a writer
// committed a newer image between our storage read and our install, the
// (possibly stale) entry is dropped again. A writer's own put
// either ran first (putIfAbsent no-ops) or runs later (overwriting ours),
// so readers can never shadow a committed write.
func (t *Tree) readNode(id pagestore.PageID) (*dirnode.Node, error) {
	return t.lookupNode(id, false)
}

// lookupNode is readNode for callers that can also work on page bytes:
// with orBytes set, a miss into a full cache shard returns nil, nil
// without reading the store, and the caller reads the page bytes itself.
func (t *Tree) lookupNode(id pagestore.PageID, orBytes bool) (*dirnode.Node, error) {
	if r := t.rc.load(); id == r.pageID {
		return r.node, nil
	}
	n, hit, room := t.nc.lookup(id)
	if hit {
		if t.acct != nil {
			if err := t.acct(id); err != nil {
				return nil, err
			}
		}
		return n, nil
	}
	if orBytes && !room {
		return nil, nil
	}
	v0 := t.structVer.Load()
	n, err := t.nodes.Read(id)
	if err != nil {
		return nil, err
	}
	t.nc.putIfAbsent(id, n)
	if t.structVer.Load() != v0 {
		t.nc.invalidate(id)
	}
	return n, nil
}

// readNodeMut is readNode for descents that may mutate the node: the
// pinned root and cached nodes are deep-copied so that shared in-memory
// state only changes at the writeNode commit point even when the page
// write fails. A cache-miss decode is private already and is not
// installed — only committed writes enter the cache.
func (t *Tree) readNodeMut(id pagestore.PageID) (*dirnode.Node, error) {
	if sh := t.sh; sh != nil {
		// COW: record the descent and read the shadow target (translate
		// first, so a remapped root id cannot hit the stale rc check).
		sh.readNodes[id] = true
		id = sh.target(id)
	}
	if r := t.rc.load(); id == r.pageID {
		return r.node.Clone(), nil
	}
	if n, ok := t.nc.get(id); ok {
		if t.acct != nil {
			if err := t.acct(id); err != nil {
				return nil, err
			}
		}
		return n.Clone(), nil
	}
	return t.nodes.Read(id)
}

// writeNode stores a node (one counted write). The write is the commit
// point: the pinned in-memory root is replaced only after the page write
// succeeded, so a storage fault leaves the previous (consistent) state in
// force. The structure version is bumped after the caches agree, so an
// optimistic search that read the old image re-validates and retries.
func (t *Tree) writeNode(id pagestore.PageID, n *dirnode.Node) error {
	if t.sh != nil {
		return t.writeNodeShadow(id, n)
	}
	if err := t.nodes.Write(id, n); err != nil {
		return err
	}
	if t.rc.holds(id) {
		t.rc.update(n)
		t.nc.invalidate(id) // the pinned root shadows any cached copy
	} else {
		t.nc.put(id, n) // write-through: the caller no longer mutates n
	}
	t.structVer.Add(1)
	return nil
}

// readPage fetches a data page (one counted logical read); the decoded
// cache is consulted first, with the same accounting discipline as
// readNode. The returned page is shared. Concurrent callers must hold the
// page's latch: shared to read (an insert into a page with room mutates
// the cached page in place), exclusive to mutate in place and write
// through. Miss installs follow readNode's putIfAbsent discipline, with
// pageEpoch as the staleness witness.
func (t *Tree) readPage(id pagestore.PageID) (*datapage.Page, error) {
	return t.lookupPage(id, false)
}

// lookupPage is readPage with lookupNode's orBytes choice.
func (t *Tree) lookupPage(id pagestore.PageID, orBytes bool) (*datapage.Page, error) {
	p, hit, room := t.pc.lookup(id)
	if hit {
		if t.acct != nil {
			if err := t.acct(id); err != nil {
				return nil, err
			}
		}
		return p, nil
	}
	if orBytes && !room {
		return nil, nil
	}
	e0 := t.pageEpoch.Load()
	p, err := t.pages.Read(id)
	if err != nil {
		return nil, err
	}
	t.pc.putIfAbsent(id, p)
	if t.pageEpoch.Load() != e0 {
		t.pc.invalidate(id)
	}
	return p, nil
}

// readPageMut is readPage for callers that mutate the page: cache hits are
// cloned, cache misses stay private (not installed), so shared state only
// changes at the writePage commit point.
func (t *Tree) readPageMut(id pagestore.PageID) (*datapage.Page, error) {
	if sh := t.sh; sh != nil {
		id = sh.target(id)
	}
	if p, ok := t.pc.get(id); ok {
		if t.acct != nil {
			if err := t.acct(id); err != nil {
				return nil, err
			}
		}
		return p.Clone(), nil
	}
	return t.pages.Read(id)
}

// writePage stores a data page (one counted write) and installs it in the
// decoded cache once the write committed. The caller holds the page's
// exclusive latch; p is (or becomes) the shared cached object, which
// readers use under the shared latch and an insert with room mutates in
// place under the exclusive one — so p must not be touched again after
// the latch is released. Only pageEpoch is bumped: an in-place page
// commit does not change the tree's shape, so optimistic searches need
// not retry over it.
func (t *Tree) writePage(id pagestore.PageID, p *datapage.Page) error {
	if t.sh != nil {
		return t.writePageShadow(id, p)
	}
	if err := t.pages.Write(id, p); err != nil {
		return err
	}
	t.pc.put(id, p)
	t.pageEpoch.Add(1)
	return nil
}

// freePage invalidates the decoded cache before releasing the page, so a
// recycled PageID can never serve a stale decoded image.
func (t *Tree) freePage(id pagestore.PageID) error {
	if t.sh != nil {
		return t.shFree(id)
	}
	t.pc.invalidate(id)
	t.pageEpoch.Add(1)
	t.structVer.Add(1) // a freed page means the shape changed under readers
	return t.pages.Free(id)
}

// freeNode is freePage for directory nodes.
func (t *Tree) freeNode(id pagestore.PageID) error {
	if t.sh != nil {
		return t.shFree(id)
	}
	t.nc.invalidate(id)
	t.structVer.Add(1)
	return t.nodes.Free(id)
}

// nodeIndexInto computes the element position for the (already shifted)
// key v within node n — index i_j = g(v_j, H_j) per dimension — using the
// caller's scratch slice (len ≥ Dims) so the hot path allocates nothing.
func (t *Tree) nodeIndexInto(n *dirnode.Node, v bitkey.Vector, idx []uint64) int {
	for j := 0; j < t.prm.Dims; j++ {
		idx[j] = bitkey.G(v[j], n.Depths[j], t.prm.Width)
	}
	return n.Index(idx)
}

// nodeIndex is nodeIndexInto with throwaway scratch, for cold paths.
func (t *Tree) nodeIndex(n *dirnode.Node, v bitkey.Vector) int {
	return t.nodeIndexInto(n, v, make([]uint64, t.prm.Dims))
}

// maxOptimistic bounds latch-free search attempts before falling back to
// the structMu read side.
const maxOptimistic = 8

// Search implements algorithm EXM_Search: descend from the pinned root,
// stripping each followed entry's local depths, then search the data page.
// All per-operation scratch comes from the descent pool, and a node or
// page that misses a full decoded cache is read in place from its page
// bytes, so a probe allocates nothing unless it decodes into a free cache
// slot.
//
// The descent is optimistic: it takes no node latches and validates the
// structure version afterwards. Decoded directory nodes are immutable
// (node mutators commit fresh clones), and page bytes read in place are
// one committed or staged image, so every route either reads nodes
// current at their read time or nodes stale only because of a
// post-snapshot commit — and any such commit bumps structVer, so the
// validation catches it and the search retries. Data pages are the
// exception: an insert into a page with room mutates the cached page in
// place under its exclusive latch, so the final page probe holds the
// page's shared latch for the duration of the lookup. Under sustained
// restructuring the search degrades to one attempt under structMu's read
// side.
func (t *Tree) Search(k bitkey.Vector) (uint64, bool, error) {
	if err := t.checkKey(k); err != nil {
		return 0, false, err
	}
	for i := 0; i < maxOptimistic; i++ {
		v0 := t.structVer.Load()
		val, ok, err := t.searchOnce(k)
		if t.structVer.Load() == v0 {
			return val, ok, err
		}
		// The shape moved under us: the result (and even an error) may
		// stem from a torn route. Retry from the new root.
	}
	t.structMu.RLock()
	defer t.structMu.RUnlock()
	return t.searchOnce(k)
}

// searchOnce runs one latch-free descent against the current root
// snapshot. Callers validate structVer (or hold structMu) around it.
func (t *Tree) searchOnce(k bitkey.Vector) (uint64, bool, error) {
	dc := t.getDescent(k)
	defer t.putDescent(dc)
	v := dc.v
	root := t.rc.load().node
	e := &root.Entries[t.nodeIndexInto(root, v, dc.idx)]
	ptr, isNode, h := e.Ptr, e.IsNode, e.H
	for ptr != pagestore.NilPage && isNode {
		for j := 0; j < t.prm.Dims; j++ {
			v[j] = bitkey.LeftShift(v[j], int(h[j]), t.prm.Width)
		}
		var err error
		if ptr, isNode, h, err = t.routeNode(ptr, v, dc); err != nil {
			return 0, false, err
		}
	}
	if ptr == pagestore.NilPage {
		return 0, false, nil
	}
	return t.probePage(ptr, k)
}

// routeNode takes one search step through directory node id for the
// shifted key v and returns the followed element's pointer, kind and
// local depths. A cached node, or one decoded into a cache shard with a
// free slot, is indexed as it is; a miss into a full shard reads the
// element straight out of the page bytes, decoding, installing and
// evicting nothing.
func (t *Tree) routeNode(id pagestore.PageID, v bitkey.Vector, dc *descentCtx) (pagestore.PageID, bool, dirnode.LocalDepths, error) {
	n, err := t.lookupNode(id, true)
	if err != nil {
		return pagestore.NilPage, false, dirnode.LocalDepths{}, err
	}
	if n == nil {
		return t.nodes.Route(id, v, t.prm.Width, t.prm.Xi)
	}
	e := &n.Entries[t.nodeIndexInto(n, v, dc.idx)]
	return e.Ptr, e.IsNode, e.H, nil
}

// probePage looks k up in data page id under the page's shared latch,
// which excludes the in-place insert commit for the duration of the
// probe (see writePage). Like routeNode it searches a cached or
// installable decoded page, and the page bytes in place otherwise.
func (t *Tree) probePage(id pagestore.PageID, k bitkey.Vector) (uint64, bool, error) {
	l := t.latches.of(id)
	l.RLock(0)
	defer l.RUnlock()
	p, err := t.lookupPage(id, true)
	if err != nil {
		return 0, false, err
	}
	if p == nil {
		return t.pages.Lookup(id, k)
	}
	val, ok := p.Get(k)
	return val, ok, nil
}

func (t *Tree) checkKey(k bitkey.Vector) error {
	if len(k) != t.prm.Dims {
		return fmt.Errorf("bmeh: key dimensionality %d, want %d", len(k), t.prm.Dims)
	}
	if t.prm.Width < 64 {
		for j, c := range k {
			if uint64(c) >= 1<<uint(t.prm.Width) {
				return fmt.Errorf("bmeh: component %d exceeds %d-bit width", j+1, t.prm.Width)
			}
		}
	}
	return nil
}
