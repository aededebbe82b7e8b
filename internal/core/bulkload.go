package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"bmeh/internal/bitkey"
	"bmeh/internal/datapage"
	"bmeh/internal/dirnode"
	"bmeh/internal/pagestore"
	"bmeh/internal/params"
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
	// Workers bounds the goroutines building root subtrees in parallel;
	// zero means GOMAXPROCS.
	Workers int
	// Checkpoint, when non-nil, is called between root-subtree builds so
	// the caller can flush staged pages to bound memory. A mid-build
	// flush persists only unreferenced fresh pages (the root swap has not
	// happened), so a crash after one costs orphaned space, never
	// consistency.
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
// constructed above them — no splits, no restructuring, and the §4
// balance bound holds on the result by construction.
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
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
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
		run:        run,
		z:          z,
		bounds:     bulkBands(t.prm),
		b:          t.prm.Capacity,
		sem:        make(chan struct{}, opts.Workers),
		checkpoint: opts.Checkpoint,
	}
	rootID, rootNode, err := bb.buildRoot()
	if err != nil {
		bb.freeAllocs()
		return stats, err
	}
	if rootNode.Level > t.prm.MaxLevels() {
		bb.freeAllocs()
		return stats, fmt.Errorf("bulk: built %d levels, §4 bound allows %d", rootNode.Level, t.prm.MaxLevels())
	}
	stats.Levels = rootNode.Level
	stats.DataPages = bb.pages.Load()
	stats.DirNodes = bb.nodes.Load()

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
		t.nNodes.Store(bb.nodes.Load())
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
	t.nNodes.Store(bb.nodes.Load())
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

// bulkBands returns the split-step boundaries of the directory levels:
// bounds[i] is the first split step band i handles, band 0 belonging to
// the root. A band ends when the next round-robin split would push some
// dimension's depth past ξ_j within one node.
func bulkBands(prm params.Params) []int {
	d, w := prm.Dims, prm.Width
	bounds := []int{0}
	depth := make([]int, d)
	for s := 0; s < d*w; s++ {
		r := s % d
		if depth[r]+1 > prm.Xi[r] {
			bounds = append(bounds, s)
			for j := range depth {
				depth[j] = 0
			}
		}
		depth[r]++
	}
	return bounds
}

// bandIndex returns which band split step s belongs to.
func bandIndex(bounds []int, s int) int {
	i := 0
	for i+1 < len(bounds) && bounds[i+1] <= s {
		i++
	}
	return i
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
	if v.mem != nil || v.r.mem != nil || hi-lo > matThreshold {
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

// bulkSlot is one region of the node under construction: the records in
// [its range], pinned at depth h (per dimension) with index prefix pre.
type bulkSlot struct {
	h    dirnode.LocalDepths
	pre  []uint64
	m    uint8
	ptr  pagestore.PageID
	node bool
	task func() (pagestore.PageID, bool, error) // deferred child build (root level only)
}

type allocRec struct {
	id   pagestore.PageID
	node bool
}

// bulkBuilder carves the sorted run into pages and builds the directory
// bottom-up. Alloc/Write go straight through the page stores (never the
// decoded caches: every ID is fresh), so subtree builds can run on
// multiple goroutines.
type bulkBuilder struct {
	t      *Tree
	run    *bulkRun
	z      zcodec
	bounds []int
	b      int // page capacity

	sem        chan struct{}
	checkpoint func() error

	mu     sync.Mutex
	allocs []allocRec
	pages  atomic.Int64
	nodes  atomic.Int64
}

func (bb *bulkBuilder) track(id pagestore.PageID, node bool) {
	bb.mu.Lock()
	bb.allocs = append(bb.allocs, allocRec{id, node})
	bb.mu.Unlock()
}

// freeAllocs releases everything the build allocated (error path only;
// the frees stay staged like the writes, so an aborted build leaves the
// store exactly as it was).
func (bb *bulkBuilder) freeAllocs() {
	bb.mu.Lock()
	defer bb.mu.Unlock()
	for _, a := range bb.allocs {
		if a.node {
			_ = bb.t.nodes.Free(a.id)
		} else {
			_ = bb.t.pages.Free(a.id)
		}
	}
	bb.allocs = nil
}

// buildRoot builds the whole tree and returns the root's page ID and
// decoded node.
func (bb *bulkBuilder) buildRoot() (pagestore.PageID, *dirnode.Node, error) {
	maxStep, err := bb.run.maxLeafStep(bb.b)
	if err != nil {
		return 0, nil, err
	}
	levels := 1
	if maxStep > 0 {
		levels = bandIndex(bb.bounds, maxStep-1) + 1
	}
	v := &runView{r: bb.run}
	if bb.run.mem != nil {
		v.mem = bb.run.mem
	}
	id, err := bb.buildNode(v, 0, bb.run.n, 0, levels, true)
	if err != nil {
		return 0, nil, err
	}
	root, err := bb.t.nodes.Read(id)
	if err != nil {
		return 0, nil, err
	}
	return id, root, nil
}

// bandEnd returns the first split step past the band starting at s.
func (bb *bulkBuilder) bandEnd(s int) int {
	i := bandIndex(bb.bounds, s)
	if i+1 < len(bb.bounds) {
		return bb.bounds[i+1]
	}
	return bb.t.prm.Dims * bb.t.prm.Width
}

// buildNode builds the directory node covering records [lo,hi) whose
// path has consumed split steps [0,s); s is always a band boundary. At
// the root (parallel=true) child-subtree builds are deferred and run on
// the worker pool.
func (bb *bulkBuilder) buildNode(v *runView, lo, hi int64, s, level int, parallel bool) (pagestore.PageID, error) {
	v, err := v.narrow(lo, hi)
	if err != nil {
		return 0, err
	}
	d := bb.t.prm.Dims
	var slots []bulkSlot
	h := make([]int, d)
	pre := make([]uint64, d)
	if err := bb.fill(v, lo, hi, s, bb.bandEnd(s), level, h, pre, parallel, &slots); err != nil {
		return 0, err
	}
	if parallel {
		if err := bb.runTasks(slots); err != nil {
			return 0, err
		}
	}
	return bb.makeNode(level, slots)
}

// runTasks executes the deferred child builds of the root's slots on the
// worker pool, invoking the checkpoint hook as subtrees complete.
func (bb *bulkBuilder) runTasks(slots []bulkSlot) error {
	type done struct {
		idx  int
		ptr  pagestore.PageID
		node bool
		err  error
	}
	ch := make(chan done)
	launched := 0
	for i := range slots {
		if slots[i].task == nil {
			continue
		}
		launched++
		go func(i int, task func() (pagestore.PageID, bool, error)) {
			bb.sem <- struct{}{}
			ptr, node, err := task()
			<-bb.sem
			ch <- done{i, ptr, node, err}
		}(i, slots[i].task)
		slots[i].task = nil
	}
	var firstErr error
	for j := 0; j < launched; j++ {
		m := <-ch
		if m.err != nil {
			if firstErr == nil {
				firstErr = m.err
			}
			continue
		}
		slots[m.idx].ptr, slots[m.idx].node = m.ptr, m.node
		if firstErr == nil && bb.checkpoint != nil {
			if err := bb.checkpoint(); err != nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// fill recursively splits [lo,hi) within the band [s,sEnd), appending one
// slot per finished region. h and pre are the per-dimension depth and
// index prefix accumulated inside this node; slots copy them on append.
func (bb *bulkBuilder) fill(v *runView, lo, hi int64, s, sEnd, level int, h []int, pre []uint64, deferTasks bool, slots *[]bulkSlot) error {
	d := bb.t.prm.Dims
	appendSlot := func(ptr pagestore.PageID, isNode bool, task func() (pagestore.PageID, bool, error)) {
		sl := bulkSlot{pre: append([]uint64(nil), pre...), m: uint8((s + d - 1) % d), ptr: ptr, node: isNode, task: task}
		for j, hj := range h {
			sl.h[j] = uint8(hj)
		}
		*slots = append(*slots, sl)
	}
	if hi-lo <= int64(bb.b) {
		if hi == lo {
			appendSlot(pagestore.NilPage, false, nil)
			return nil
		}
		build := func() (pagestore.PageID, bool, error) {
			return bb.pageOrChain(v, lo, hi, s, level-1)
		}
		if deferTasks {
			appendSlot(pagestore.NilPage, false, build)
			return nil
		}
		ptr, isNode, err := build()
		if err != nil {
			return err
		}
		appendSlot(ptr, isNode, nil)
		return nil
	}
	if s == sEnd {
		if level <= 1 {
			return fmt.Errorf("bulk: internal: band exhausted at leaf level (lo=%d hi=%d s=%d)", lo, hi, s)
		}
		build := func() (pagestore.PageID, bool, error) {
			id, err := bb.buildNode(v, lo, hi, s, level-1, false)
			return id, true, err
		}
		if deferTasks {
			appendSlot(pagestore.NilPage, true, build)
			return nil
		}
		id, isNode, err := build()
		if err != nil {
			return err
		}
		appendSlot(id, isNode, nil)
		return nil
	}
	r := s % d
	mid, err := v.partition(lo, hi, s)
	if err != nil {
		return err
	}
	h[r]++
	pre[r] <<= 1
	if err := bb.fill(v, lo, mid, s+1, sEnd, level, h, pre, deferTasks, slots); err != nil {
		return err
	}
	pre[r] |= 1
	if err := bb.fill(v, mid, hi, s+1, sEnd, level, h, pre, deferTasks, slots); err != nil {
		return err
	}
	pre[r] >>= 1
	h[r]--
	return nil
}

// pageOrChain emits the data page for [lo,hi) and, when the leaf sits
// above level 0 (its path ended before the lowest band), a chain of
// single-entry pass-through nodes down to it, keeping the tree perfectly
// height-balanced.
func (bb *bulkBuilder) pageOrChain(v *runView, lo, hi int64, s, level int) (pagestore.PageID, bool, error) {
	if level == 0 {
		id, err := bb.emitPage(v, lo, hi)
		return id, false, err
	}
	child, isNode, err := bb.pageOrChain(v, lo, hi, s, level-1)
	if err != nil {
		return 0, false, err
	}
	d := bb.t.prm.Dims
	n := dirnode.New(d, level)
	n.Entries[0].Ptr = child
	n.Entries[0].IsNode = isNode
	n.Entries[0].M = uint8((s + d - 1) % d)
	id, err := bb.t.nodes.Alloc()
	if err != nil {
		return 0, false, err
	}
	bb.track(id, true)
	if err := bb.t.nodes.Write(id, n); err != nil {
		return 0, false, err
	}
	bb.nodes.Add(1)
	return id, true, nil
}

// emitPage decodes records [lo,hi) from the run and writes them as one
// data page. The run is in z-order; the page keeps records in
// lexicographic key order, so each record is placed by sorted insert.
func (bb *bulkBuilder) emitPage(v *runView, lo, hi int64) (pagestore.PageID, error) {
	recs, err := v.records(lo, hi)
	if err != nil {
		return 0, err
	}
	d := bb.t.prm.Dims
	stride := bb.z.stride
	n := int(hi - lo)
	p := datapage.New(d)
	flat := make(bitkey.Vector, n*d)
	page := make([]datapage.Record, n)
	for i := 0; i < n; i++ {
		rec := recs[i*stride : (i+1)*stride]
		key := flat[i*d : (i+1)*d]
		bb.z.decode(rec[:bb.z.k], key)
		page[i] = datapage.Record{Key: key, Value: rec[bb.z.k+1]}
	}
	// Insertion sort into lexicographic key order (the run is in z-order;
	// a page holds at most b records, so quadratic is the fast choice).
	for i := 1; i < n; i++ {
		r := page[i]
		j := i - 1
		for j >= 0 && r.Key.Less(page[j].Key) {
			page[j+1] = page[j]
			j--
		}
		page[j+1] = r
	}
	for i := range page {
		p.InsertAt(i, page[i])
	}
	id, err := bb.t.pages.Alloc()
	if err != nil {
		return 0, err
	}
	bb.track(id, false)
	if err := bb.t.pages.Write(id, p); err != nil {
		return 0, err
	}
	bb.pages.Add(1)
	return id, nil
}

// makeNode assembles a directory node from its slots: node depths are the
// per-dimension maxima, and each slot's entry is replicated across every
// element its region covers.
func (bb *bulkBuilder) makeNode(level int, slots []bulkSlot) (pagestore.PageID, error) {
	d := bb.t.prm.Dims
	n := dirnode.New(d, level)
	H := make([]int, d)
	for _, sl := range slots {
		for j := 0; j < d; j++ {
			if int(sl.h[j]) > H[j] {
				H[j] = int(sl.h[j])
			}
		}
	}
	sum := 0
	for _, hj := range H {
		sum += hj
	}
	n.Depths = H
	n.Entries = make([]dirnode.Entry, 1<<sum)
	idx := make([]uint64, d)
	for _, sl := range slots {
		var place func(j int)
		place = func(j int) {
			if j == d {
				q := n.Index(idx)
				n.Entries[q] = dirnode.Entry{Ptr: sl.ptr, IsNode: sl.node, H: sl.h, M: sl.m}
				return
			}
			fb := uint(H[j] - int(sl.h[j]))
			for low := uint64(0); low < 1<<fb; low++ {
				idx[j] = sl.pre[j]<<fb | low
				place(j + 1)
			}
		}
		place(0)
	}
	id, err := bb.t.nodes.Alloc()
	if err != nil {
		return 0, err
	}
	bb.track(id, true)
	if err := bb.t.nodes.Write(id, n); err != nil {
		return 0, err
	}
	bb.nodes.Add(1)
	return id, nil
}
