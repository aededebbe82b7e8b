package core

import (
	"fmt"
	"sort"

	"bmeh/internal/bitkey"
	"bmeh/internal/datapage"
	"bmeh/internal/dirnode"
	"bmeh/internal/pagestore"
)

// BulkOptions tunes Tree.BulkLoad.
type BulkOptions struct {
	// MemoryBudget bounds the sort buffer in bytes; sets larger than the
	// budget spill sorted runs to temp files and are merged externally.
	// Zero means 256 MiB.
	MemoryBudget int64
	// SpillDir is where spill files go (default: the OS temp dir). Files
	// are unlinked at creation, so nothing survives the process.
	SpillDir string
	// Checkpoint, when non-nil, is called after each data page the build
	// writes, so the caller can flush staged pages to bound memory. A
	// mid-build flush persists only unreferenced fresh pages (the root
	// swap has not happened), so a crash after one costs orphaned space,
	// never consistency.
	Checkpoint func() error
}

// BulkStats reports what a BulkLoad did.
type BulkStats struct {
	// Loaded counts incoming records stored (duplicates excluded).
	Loaded int64
	// Duplicates counts incoming records dropped because their key was
	// already present — in the incoming stream or in the tree. As with
	// Insert, the first-stored value wins.
	Duplicates int64
	// SpillRuns is how many sorted runs were spilled and merged
	// externally (0 when the set fit in the memory budget).
	SpillRuns int
	// Levels is the height ℓ of the built directory.
	Levels int
	// DataPages and DirNodes count the pages written for the new tree.
	DataPages int64
	DirNodes  int64
}

// BulkLoad replaces the tree's contents with the records already stored
// plus every record the iterator yields, building the structure bottom-up
// from a sorted run: records are sorted by pseudo-key (z-code), carved
// into data pages in one sequential pass, and the directory levels
// grouped above them one level at a time — no splits, no restructuring.
// The directory is the one the §3.1 insertion algorithm leaves for the
// same records whenever ξ is symmetric, so the §4 balance bound holds on
// the result by the same argument.
//
// next returns one record per call and ok=false when the stream ends; the
// key vector is consumed before the next call and not retained. The
// iterator is drained without any tree locks held, so concurrent readers
// and writers proceed while the input streams in; the tree is then locked
// against writers only for the sort/build phase, and the new root is
// installed as a single in-memory swap. Durability follows the store's
// rules: nothing the build writes reaches disk until the caller's next
// Sync, which commits the root swap atomically through the WAL — a crash
// before it recovers the pre-load tree, a crash after it the loaded one.
func (t *Tree) BulkLoad(next func() (bitkey.Vector, uint64, bool, error), opts BulkOptions) (BulkStats, error) {
	var stats BulkStats
	z := newZcodec(t.prm.Dims, t.prm.Width)
	if err := z.check(); err != nil {
		return stats, err
	}
	if opts.MemoryBudget <= 0 {
		opts.MemoryBudget = 256 << 20
	}
	bs := newBulkSorter(z, opts.MemoryBudget, opts.SpillDir)
	defer bs.close()

	// Phase A — drain the iterator into the sorter. No tree locks: the
	// stream may be minutes long (a network LOAD session) and writers
	// must not stall behind it.
	var incoming int64
	seq := bulkSeqBase
	for {
		k, v, ok, err := next()
		if err != nil {
			return stats, err
		}
		if !ok {
			break
		}
		if err := t.checkKey(k); err != nil {
			return stats, err
		}
		if err := bs.add(k, seq, v); err != nil {
			return stats, err
		}
		seq++
		incoming++
	}

	// Phase B — stop writers, fold in the resident records, sort, build.
	t.wgate.Lock()
	defer t.wgate.Unlock()
	var oldPages, oldNodes []pagestore.PageID
	if err := t.ForEachPageRef(func(id pagestore.PageID, isNode bool) {
		if isNode {
			oldNodes = append(oldNodes, id)
		} else {
			oldPages = append(oldPages, id)
		}
	}); err != nil {
		return stats, err
	}
	eseq := uint64(0)
	for _, id := range oldPages {
		p, err := t.pages.Read(id)
		if err != nil {
			return stats, err
		}
		for _, rec := range p.Records() {
			if err := bs.add(rec.Key, eseq, rec.Value); err != nil {
				return stats, err
			}
			eseq++
		}
	}
	oldRoot := t.rc.load().pageID

	run, err := bs.finish()
	if err != nil {
		return stats, err
	}
	defer run.close()
	stats.SpillRuns = run.spilled
	stats.Duplicates = bs.dups
	stats.Loaded = incoming - bs.dups

	bb := &bulkBuilder{
		t:          t,
		z:          z,
		b:          t.prm.Capacity,
		checkpoint: opts.Checkpoint,
	}
	rootID, rootNode, err := bb.build(run)
	if err != nil {
		bb.freeAllocs()
		return stats, err
	}
	if rootNode.Level > t.prm.MaxLevels() {
		bb.freeAllocs()
		return stats, fmt.Errorf("bulk: built %d levels, §4 bound allows %d", rootNode.Level, t.prm.MaxLevels())
	}
	stats.Levels = rootNode.Level
	stats.DataPages = bb.pages
	stats.DirNodes = bb.nodes

	// Commit in memory: swap the root, update counters, release the old
	// structure. In-flight optimistic searches see structVer move and
	// retry against the new root; durability is the caller's next Sync.
	if t.cow {
		// COW commit: the builder's pages are all fresh (no shadow context
		// needed), so the commit is installAt + bumps, with the whole old
		// structure retired at the new epoch rather than freed — an open
		// snapshot keeps reading the pre-load tree. Order matters: install
		// and bump before retiring, so a concurrent Snapshot.Close cannot
		// reclaim pages still published to readers (see shadow.go).
		t.structMu.Lock()
		newEpoch := t.rc.load().epoch + 1
		t.rc.installAt(rootID, rootNode, newEpoch, run.n)
		t.structVer.Add(1)
		t.pageEpoch.Add(1)
		t.nNodes.Store(bb.nodes)
		t.n.Store(run.n)
		t.structMu.Unlock()
		retired := make([]pagestore.PageID, 0, len(oldPages)+len(oldNodes)+1)
		retired = append(retired, oldPages...)
		retired = append(retired, oldNodes...)
		retired = append(retired, oldRoot)
		t.retiredAt.Retire(newEpoch, retired)
		return stats, t.tryReclaim()
	}
	t.structMu.Lock()
	t.installRoot(rootID, rootNode)
	t.nNodes.Store(bb.nodes)
	t.n.Store(run.n)
	t.structMu.Unlock()
	for _, id := range oldPages {
		if err := t.freePage(id); err != nil {
			return stats, err
		}
	}
	for _, id := range oldNodes {
		if err := t.freeNode(id); err != nil {
			return stats, err
		}
	}
	if err := t.freeNode(oldRoot); err != nil {
		return stats, err
	}
	return stats, nil
}

// matThreshold is the subtree size (records) below which a file-backed
// run range is materialized in memory, so deep recursion and page
// emission read RAM instead of issuing per-probe ReadAts.
const matThreshold = 1 << 16

// runView is a window onto the sorted run: indices are global; mem, when
// non-nil, holds records [base, base+len(mem)/stride).
type runView struct {
	r    *bulkRun
	base int64
	mem  []uint64
}

func (v *runView) narrow(lo, hi int64) (*runView, error) {
	if v.mem != nil || hi-lo > matThreshold {
		return v, nil
	}
	m, err := v.r.slice(lo, hi)
	if err != nil {
		return nil, err
	}
	return &runView{r: v.r, base: lo, mem: m}, nil
}

func (v *runView) bitAt(i int64, s int) (uint64, error) {
	if v.mem != nil {
		stride := int64(v.r.z.stride)
		code := v.mem[(i-v.base)*stride+int64(s/64)]
		return (code >> uint(63-s%64)) & 1, nil
	}
	return v.r.bitAt(i, s)
}

// partition returns the first index in [lo,hi) whose split bit s is 1.
func (v *runView) partition(lo, hi int64, s int) (int64, error) {
	for lo < hi {
		mid := lo + (hi-lo)/2
		bit, err := v.bitAt(mid, s)
		if err != nil {
			return 0, err
		}
		if bit == 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// records returns the flat words of records [lo,hi).
func (v *runView) records(lo, hi int64) ([]uint64, error) {
	if v.mem != nil {
		stride := int64(v.r.z.stride)
		return v.mem[(lo-v.base)*stride : (hi-v.base)*stride], nil
	}
	return v.r.slice(lo, hi)
}

// bulkLevel lists the regions of one directory level in z-order: the
// data pages of the carving at level 1, the nodes of the pass below
// above that. Region i is the box of the split-bit trie reached after
// steps[i] split bits along the first steps[i] bits of code(i) (later
// bits are never read), held by page or node ptrs[i], or NilPage for an
// empty box.
type bulkLevel struct {
	k     int // code words per region
	steps []int
	codes []uint64
	ptrs  []pagestore.PageID
}

func (l *bulkLevel) add(step int, code []uint64, ptr pagestore.PageID) {
	l.steps = append(l.steps, step)
	l.codes = append(l.codes, code...)
	l.ptrs = append(l.ptrs, ptr)
}

func (l *bulkLevel) code(i int) []uint64 { return l.codes[i*l.k : (i+1)*l.k] }

func (l *bulkLevel) bit(i, s int) uint64 {
	return (l.codes[i*l.k+s/64] >> uint(63-s%64)) & 1
}

type allocRec struct {
	id   pagestore.PageID
	node bool
}

// bulkBuilder carves the sorted run into pages and groups the directory
// above them. Alloc/Write go straight through the page stores (never the
// decoded caches: every ID is fresh).
type bulkBuilder struct {
	t          *Tree
	z          zcodec
	b          int // page capacity
	checkpoint func() error

	allocs       []allocRec
	pages, nodes int64
}

// freeAllocs releases everything the build allocated (error path only;
// the frees stay staged like the writes, so an aborted build leaves the
// store exactly as it was).
func (bb *bulkBuilder) freeAllocs() {
	for _, a := range bb.allocs {
		if a.node {
			_ = bb.t.nodes.Free(a.id)
		} else {
			_ = bb.t.pages.Free(a.id)
		}
	}
	bb.allocs = nil
}

// build carves the run into data pages, then groups each level into the
// nodes of the level above until one node — the root — covers the whole
// key space. It returns the root's page ID and decoded node.
func (bb *bulkBuilder) build(run *bulkRun) (pagestore.PageID, *dirnode.Node, error) {
	regions := &bulkLevel{k: bb.z.k}
	v := &runView{r: run, mem: run.mem}
	if err := bb.carve(v, 0, run.n, 0, make([]uint64, bb.z.k), regions); err != nil {
		return 0, nil, err
	}
	for level := 1; ; level++ {
		up := &bulkLevel{k: bb.z.k}
		if err := bb.group(regions, 0, len(regions.steps), 0, level, up); err != nil {
			return 0, nil, err
		}
		if len(up.steps) == 1 {
			root, err := bb.t.nodes.Read(up.ptrs[0])
			return up.ptrs[0], root, err
		}
		regions = up
	}
}

// carve splits records [lo,hi), the box reached after s split bits along
// path pre, on split bit s until each box holds at most b records — the
// data pages insertion leaves, since a page splits exactly when it
// overflows — and appends one region per box: its data page, or a nil
// region for an empty box.
func (bb *bulkBuilder) carve(v *runView, lo, hi int64, s int, pre []uint64, out *bulkLevel) error {
	if hi-lo <= int64(bb.b) {
		ptr := pagestore.NilPage
		if hi > lo {
			id, err := bb.emitPage(v, lo, hi)
			if err != nil {
				return err
			}
			ptr = id
		}
		out.add(s, pre, ptr)
		return nil
	}
	if s == bb.z.d*bb.z.width {
		return fmt.Errorf("bulk: internal: %d records share every key bit", hi-lo)
	}
	v, err := v.narrow(lo, hi)
	if err != nil {
		return err
	}
	mid, err := v.partition(lo, hi, s)
	if err != nil {
		return err
	}
	if err := bb.carve(v, lo, mid, s+1, pre, out); err != nil {
		return err
	}
	bit := uint64(1) << uint(63-s%64)
	pre[s/64] |= bit
	err = bb.carve(v, mid, hi, s+1, pre, out)
	pre[s/64] &^= bit
	return err
}

// group makes one node of the box reached after s split bits when every
// region in [lo,hi) of the level below lies within ξ_j bits of it in
// every dimension, and otherwise splits the box on bit s and groups each
// half, appending the resulting boxes to out. A box holding only empty
// regions becomes a nil region of the level above, except the root's.
//
// Insertion leaves the same boxes at symmetric ξ: a node splits only when
// a region below it overflows ξ, it splits on its box's next trie bit
// (the first dimension to overflow is the one split step s uses), and
// regions only ever deepen, so the nodes left are the maximal trie boxes
// that fit, whatever the insert order.
func (bb *bulkBuilder) group(in *bulkLevel, lo, hi, s, level int, out *bulkLevel) error {
	deepest := s
	for _, st := range in.steps[lo:hi] {
		deepest = max(deepest, st)
	}
	if deepest > bb.reach(s) {
		// More than one region: each lies past step s, so bit s is on
		// its path.
		mid := lo + sort.Search(hi-lo, func(i int) bool { return in.bit(lo+i, s) == 1 })
		if err := bb.group(in, lo, mid, s+1, level, out); err != nil {
			return err
		}
		return bb.group(in, mid, hi, s+1, level, out)
	}
	live := s == 0 // the root is a node even in an empty tree
	for _, p := range in.ptrs[lo:hi] {
		live = live || p != pagestore.NilPage
	}
	ptr := pagestore.NilPage
	if live {
		id, err := bb.makeNode(in, lo, hi, s, deepest, level)
		if err != nil {
			return err
		}
		ptr = id
	}
	out.add(s, in.code(lo), ptr)
	return nil
}

// reach returns the deepest split step a region may sit at inside a node
// whose box was reached after s split bits: step t adds one bit of
// dimension t mod d, and a node indexes at most ξ_j bits of dimension j.
func (bb *bulkBuilder) reach(s int) int {
	d := bb.t.prm.Dims
	var h dirnode.LocalDepths
	for t := s; ; t++ {
		j := t % d
		if int(h[j]) == bb.t.prm.Xi[j] {
			return t
		}
		h[j]++
	}
}

// emitPage decodes records [lo,hi) from the run and writes them as one
// data page. The run is in z-order and a page keeps its records in
// lexicographic key order, so each record goes in by sorted insert.
func (bb *bulkBuilder) emitPage(v *runView, lo, hi int64) (pagestore.PageID, error) {
	recs, err := v.records(lo, hi)
	if err != nil {
		return 0, err
	}
	d, stride := bb.t.prm.Dims, bb.z.stride
	p := datapage.New(d)
	keys := make(bitkey.Vector, int(hi-lo)*d)
	for i := range int(hi - lo) {
		rec, key := recs[i*stride:(i+1)*stride], keys[i*d:(i+1)*d]
		bb.z.decode(rec[:bb.z.k], key)
		p.Insert(datapage.Record{Key: key, Value: rec[bb.z.k+1]})
	}
	id, err := bb.t.pages.Alloc()
	if err != nil {
		return 0, err
	}
	bb.allocs = append(bb.allocs, allocRec{id, false})
	if err := bb.t.pages.Write(id, p); err != nil {
		return 0, err
	}
	bb.pages++
	if bb.checkpoint != nil {
		return id, bb.checkpoint()
	}
	return id, nil
}

// makeNode writes the node of the box reached after s split bits that
// holds regions [lo,hi) of the level below, the deepest at step deepest.
// Its global depths are that region's local depths, and each region's
// element — local depths and index prefix read off its path past s, and
// the dimension of its last split bit as m — is replicated across every
// element its box covers.
func (bb *bulkBuilder) makeNode(in *bulkLevel, lo, hi, s, deepest, level int) (pagestore.PageID, error) {
	d := bb.t.prm.Dims
	n := dirnode.New(d, level)
	sum := deepest - s
	for t := s; t < deepest; t++ {
		n.Depths[t%d]++
	}
	n.Entries = make([]dirnode.Entry, 1<<sum)
	pre := make([]uint64, d)
	idx := make([]uint64, d)
	for i := lo; i < hi; i++ {
		e := dirnode.Entry{Ptr: in.ptrs[i], IsNode: level > 1 && in.ptrs[i] != pagestore.NilPage, M: uint8((in.steps[i] + d - 1) % d)}
		clear(pre)
		for t := s; t < in.steps[i]; t++ {
			j := t % d
			e.H[j]++
			pre[j] = pre[j]<<1 | in.bit(i, t)
		}
		for c := 0; c < 1<<(sum-(in.steps[i]-s)); c++ {
			rest := uint64(c)
			for j := d - 1; j >= 0; j-- {
				free := uint(n.Depths[j] - int(e.H[j]))
				idx[j] = pre[j]<<free | rest&(1<<free-1)
				rest >>= free
			}
			n.Entries[n.Index(idx)] = e
		}
	}
	id, err := bb.t.nodes.Alloc()
	if err != nil {
		return 0, err
	}
	bb.allocs = append(bb.allocs, allocRec{id, true})
	if err := bb.t.nodes.Write(id, n); err != nil {
		return 0, err
	}
	bb.nodes++
	return id, nil
}
