package core

import (
	"fmt"
	"slices"

	"bmeh/internal/bitkey"
	"bmeh/internal/datapage"
	"bmeh/internal/dirnode"
	"bmeh/internal/pagestore"
)

// Delete removes key k, returning whether it was present. Deletion reverses
// insertion (§4.2): empty pages are freed immediately (their region becomes
// nil — the benefit of keeping local depths in the directory), buddy pages
// are merged while they fit together, nodes are halved when no element
// needs a dimension's full depth, sibling nodes created by a node split are
// re-merged when the split has become fully reversible, and a redundant
// root is removed, shrinking the tree's height.
//
// Concurrency: most deletes only shrink one data page. The fast path crabs
// shared node latches down the tree, takes the page latch exclusively,
// removes the record, and runs a read-only dry-run of every restructuring
// trigger of the full algorithm; when none fires, the page write commits
// under the writer gate's read side and other writers were never blocked.
// The reversal steps (merges, prunes, collapses) walk the whole directory,
// which per-node latches cannot cover, so a delete that needs them
// escalates: it releases everything, stops all writers via the gate's
// write side, and re-runs the full single-writer algorithm. The dry-run is
// exact in isolation and conservative under concurrency — a stale snapshot
// can only cause a spurious escalation or postpone a merge to a later
// delete, never commit a wrong structure.
//
// Splits keep the structure strictly tree-shaped, so merges and prunes are
// local; the foreign-reference scans below are defense in depth, not a
// functional requirement. Deletions are not part of the paper's
// measurements; the implementation favors strict invariant preservation
// over deletion speed. Each removal and each restructuring step commits
// with a single page write (copy-on-write), so storage faults leave a
// consistent structure behind (at worst with orphaned pages).
func (t *Tree) Delete(k bitkey.Vector) (bool, error) {
	if err := t.checkKey(k); err != nil {
		return false, err
	}
	if t.cow {
		return t.deleteCOW(k)
	}
	done, deleted, err := t.tryDeleteFast(k)
	if err != nil || done {
		return deleted, err
	}
	// Escalate: stop all writers, then run the full reversal algorithm as
	// the sole writer. Optimistic searches keep running against committed
	// snapshots and re-validate over our structVer bumps.
	t.wgate.Lock()
	defer t.wgate.Unlock()
	t.structMu.Lock()
	defer t.structMu.Unlock()
	return t.deleteLocked(k)
}

// tryDeleteFast is the crabbing fast path. It reports done=false when the
// delete must escalate to the exclusive path (nothing was modified then).
func (t *Tree) tryDeleteFast(k bitkey.Vector) (done, deleted bool, err error) {
	t.wgate.RLock()
	defer t.wgate.RUnlock()
	d := t.prm.Dims
	dc := t.getDescent(k)
	defer t.putDescent(dc)
	ls := &dc.ls
	defer ls.releaseAll()
	vec := dc.v
	strip := dc.strip
	var stack []frame
	// Root handshake, shared mode (see tryInsert).
	var id pagestore.PageID
	var node *dirnode.Node
	for {
		r := t.rc.load()
		ls.rlock(r.pageID, r.node.Level)
		if t.rc.load() == r {
			id, node = r.pageID, r.node
			break
		}
		ls.releaseAll()
	}
	for {
		q := t.nodeIndexInto(node, vec, dc.idx)
		e := node.Entries[q]
		if e.Ptr == pagestore.NilPage {
			return true, false, nil
		}
		if e.IsNode {
			stack = append(stack, frame{id: id, node: node, strip: append([]int(nil), strip...)})
			for j := 0; j < d; j++ {
				strip[j] += int(e.H[j])
				vec[j] = bitkey.LeftShift(vec[j], int(e.H[j]), t.prm.Width)
			}
			ls.rlock(e.Ptr, node.Level-1)
			child, err := t.readNode(e.Ptr)
			if err != nil {
				return true, false, err
			}
			// The fast path never modifies a node, so ancestors can go as
			// soon as the child is latched; the dry-run reads their
			// snapshots, which stay immutable.
			ls.releaseAllExcept(e.Ptr)
			id, node = e.Ptr, child
			continue
		}
		ls.lock(e.Ptr, 0) // page latch exclusive, same order as insert
		p, err := t.readPageMut(e.Ptr)
		if err != nil {
			return true, false, err
		}
		if !p.Delete(k) {
			return true, false, nil
		}
		escalate, err := t.wouldRestructure(stack, id, node, q, p)
		if err != nil {
			return true, false, err
		}
		if escalate {
			return false, false, nil
		}
		if err := t.writePage(e.Ptr, p); err != nil {
			return true, false, err
		}
		t.n.Add(-1)
		return true, true, nil
	}
}

// wouldRestructure is a read-only dry-run of every trigger the exclusive
// delete path checks after removing a record, against the descent's
// snapshots: page emptied, first-iteration page merge or region coarsening,
// node shrink at any level, sibling-node merge at any level, root collapse.
// The foreign-reference scans are skipped — they only ever veto an action,
// and the exclusive path re-checks them. p is the already-shrunk private
// page; leaf and the stack hold the descent's (immutable) node snapshots.
func (t *Tree) wouldRestructure(stack []frame, leafID pagestore.PageID, leaf *dirnode.Node, q int, p *datapage.Page) (bool, error) {
	if p.Len() == 0 {
		return true, nil // frees the page and prunes its region
	}
	// Would mergePages act on its first iteration? (If the first iteration
	// does nothing, the loop exits with no action.)
	e := leaf.Entries[q]
	m := int(e.M)
	if e.H[m] > 0 {
		idx := leaf.Tuple(q)
		bidx := append([]uint64(nil), idx...)
		bidx[m] ^= uint64(1) << uint(leaf.Depths[m]-int(e.H[m]))
		bq := leaf.Index(bidx)
		be := leaf.Entries[bq]
		if !be.IsNode && be.H == e.H && be.Ptr != e.Ptr {
			if be.Ptr == pagestore.NilPage {
				return true, nil // the region would coarsen over the empty buddy
			}
			// The buddy page is off the latched path; decode a private
			// snapshot straight from the store (store reads are internally
			// consistent) instead of touching the shared cached object,
			// which a concurrent in-place inserter may be mutating. The
			// answer is advisory either way: the exclusive path re-checks
			// through the decoded cache.
			bp, err := t.pages.Read(be.Ptr)
			if err != nil {
				return false, err
			}
			if p.Len()+bp.Len() <= t.prm.Capacity {
				return true, nil // the buddy pages would merge
			}
		}
	}
	if t.canShrink(leaf) {
		return true, nil
	}
	// Would mergeUpward act at any level? With no structural change below,
	// the triggers are a sibling-node merge or a parent shrink. (An all-nil
	// child is impossible here: the leaf keeps a live page and every node
	// on the path points at its child.)
	childID, child := leafID, leaf
	for lvl := len(stack) - 1; lvl >= 0; lvl-- {
		pf := stack[lvl]
		would, err := t.wouldMergeSiblings(pf.node, childID, child)
		if err != nil {
			return false, err
		}
		if would {
			return true, nil
		}
		if t.canShrink(pf.node) {
			return true, nil
		}
		childID, child = pf.id, pf.node
	}
	// Root collapse. Eager collapsing means a collapsible root cannot
	// survive in isolation; under concurrency the snapshot may transiently
	// look collapsible, which just escalates.
	rootN := leaf
	if len(stack) > 0 {
		rootN = stack[0].node
	}
	if rootN.Level > 1 {
		if allNil(rootN) {
			return true, nil
		}
		first := rootN.Entries[0]
		if first.IsNode && first.Ptr != pagestore.NilPage {
			same := true
			for i := range rootN.Entries {
				re := &rootN.Entries[i]
				if !re.IsNode || re.Ptr != first.Ptr {
					same = false
					break
				}
			}
			if same {
				return true, nil
			}
		}
	}
	return false, nil
}

// wouldMergeSiblings is the read-only feasibility half of
// tryMergeSiblings: it reports whether the parent region holding childID
// and its buddy region would merge, without the foreign-reference veto
// (the exclusive path re-checks that before acting).
func (t *Tree) wouldMergeSiblings(parent *dirnode.Node, childID pagestore.PageID, child *dirnode.Node) (bool, error) {
	q := -1
	for i := range parent.Entries {
		if parent.Entries[i].IsNode && parent.Entries[i].Ptr == childID {
			q = i
			break
		}
	}
	if q < 0 {
		return true, nil // snapshot raced past us: escalate conservatively
	}
	e := parent.Entries[q]
	m := int(e.M)
	if e.H[m] == 0 {
		return false, nil
	}
	idx := parent.Tuple(q)
	bidx := append([]uint64(nil), idx...)
	bidx[m] ^= uint64(1) << uint(parent.Depths[m]-int(e.H[m]))
	bq := parent.Index(bidx)
	be := parent.Entries[bq]
	if be.Ptr == childID || be.H != e.H {
		return false, nil
	}
	var sib *dirnode.Node
	switch {
	case be.Ptr == pagestore.NilPage:
		sib = cloneShape(child)
	case be.IsNode:
		var err error
		sib, err = t.readNode(be.Ptr)
		if err != nil {
			return false, err
		}
	default:
		return false, nil
	}
	a, b := child, sib
	if (idx[m]>>uint(parent.Depths[m]-int(e.H[m])))&1 == 1 {
		a, b = sib, child
	}
	_, ok := mergeNodes(a, b, m)
	return ok, nil
}

// deleteLocked is the full reversal algorithm, run as the sole writer
// (wgate and structMu held exclusively). The descent shares cached node
// objects and clones each node lazily at its first actual mutation —
// unchanged nodes are neither cloned nor rewritten.
func (t *Tree) deleteLocked(k bitkey.Vector) (bool, error) {
	d := t.prm.Dims
	dc := t.getDescent(k)
	defer t.putDescent(dc)
	vec := dc.v
	strip := dc.strip
	var stack []frame
	r := t.writerRoot()
	id, node := r.pageID, r.node
	for {
		q := t.nodeIndexInto(node, vec, dc.idx)
		e := node.Entries[q]
		if e.Ptr == pagestore.NilPage {
			return false, nil
		}
		if e.IsNode {
			stack = append(stack, frame{id: id, node: node, strip: append([]int(nil), strip...)})
			for j := 0; j < d; j++ {
				strip[j] += int(e.H[j])
				vec[j] = bitkey.LeftShift(vec[j], int(e.H[j]), t.prm.Width)
			}
			id = e.Ptr
			var err error
			node, err = t.readNodeSh(id)
			if err != nil {
				return false, err
			}
			continue
		}
		p, err := t.readPageMut(e.Ptr)
		if err != nil {
			return false, err
		}
		if !p.Delete(k) {
			return false, nil
		}
		// t.n is decremented at the removal's commit point: the page write
		// (non-empty page) or the node write (page emptied), so a storage
		// fault cannot leave the count out of step with the structure.
		pageGC := false
		dirty := false
		var frees []pagestore.PageID
		if p.Len() == 0 {
			pid := e.Ptr
			node = node.Clone()
			dirty = true
			for i := range node.Entries {
				en := &node.Entries[i]
				if !en.IsNode && en.Ptr == pid {
					en.Ptr = pagestore.NilPage
				}
			}
			// Splits never duplicate page pointers across nodes, so the
			// page should have no other referent; the check is defense in
			// depth (a shared page is left for the sweep instead of being
			// freed under a foreign reference).
			shared, err := t.isSharedRef(pid, id, false)
			if err != nil {
				return false, err
			}
			if shared {
				pageGC = true
			} else {
				frees = append(frees, pid)
			}
		} else {
			if err := t.writePage(e.Ptr, p); err != nil {
				return false, err
			}
			t.n.Add(-1) // the page write committed the removal
			var changed bool
			var mergeFrees []pagestore.PageID
			node, changed, mergeFrees, err = t.mergePages(node, id, q)
			if err != nil {
				return false, err
			}
			dirty = dirty || changed
			frees = append(frees, mergeFrees...)
		}
		if t.canShrink(node) {
			if !dirty {
				node = node.Clone()
				dirty = true
			}
			t.shrinkNode(node)
		}
		// The node write commits this delete's restructuring (and, when the
		// page emptied, the removal itself); replaced pages are freed only
		// afterwards, so a storage fault cannot leave the structure
		// referencing freed pages. An untouched node is not rewritten.
		emptied := p.Len() == 0
		if dirty {
			if err := t.writeNode(id, node); err != nil {
				return false, err
			}
		}
		if emptied {
			t.n.Add(-1)
		}
		if err := t.freeAll(frees); err != nil {
			return false, err
		}
		needGC, err := t.mergeUpward(stack, id, node)
		if err != nil {
			return false, err
		}
		// Insert-time node splits can leave all-empty siblings that no
		// future descent will visit; sweep whenever a leaf runs empty.
		if pageGC || allNil(node) {
			needGC = true
		}
		if needGC {
			// A shared empty node could not be freed incrementally; sweep
			// the directory for empty subtrees whose other parents will
			// never be revisited by a descent.
			if err := t.gcEmptyNodes(); err != nil {
				return false, err
			}
		}
		return true, t.collapseRoot()
	}
}

// gcEmptyNodes removes every all-empty non-root node from the directory:
// references to it become nil regions and its page is freed. Emptying a
// parent can make the grandparent's child empty, so the sweep repeats to a
// fixpoint. It runs only after an incremental prune was blocked by a shared
// reference — the one case where a stale parent would otherwise never be
// revisited.
func (t *Tree) gcEmptyNodes() error {
	for {
		r := t.writerRoot()
		// The sweep may shrink and rewrite any collected node — including
		// the root, which optimistic searches read latch-free — so every
		// collected object is a private copy; commits go through writeNode.
		rootCopy := r.node.Clone()
		nodes := map[pagestore.PageID]*dirnode.Node{r.pageID: rootCopy}
		var collect func(n *dirnode.Node) error
		collect = func(n *dirnode.Node) error {
			for i := range n.Entries {
				e := &n.Entries[i]
				if !e.IsNode || e.Ptr == pagestore.NilPage {
					continue
				}
				if _, ok := nodes[e.Ptr]; ok {
					continue
				}
				c, err := t.readNodeMut(e.Ptr)
				if err != nil {
					return err
				}
				nodes[e.Ptr] = c
				if err := collect(c); err != nil {
					return err
				}
			}
			return nil
		}
		if err := collect(rootCopy); err != nil {
			return err
		}
		// Sweep empty data pages first (left behind when a shared page's
		// last record went away through a different leaf); dropping them
		// can render their leaf nodes empty for the node sweep below.
		deadPages := make(map[pagestore.PageID]bool)
		checkedPages := make(map[pagestore.PageID]bool)
		for _, n := range nodes {
			if n.Level != 1 {
				continue
			}
			for i := range n.Entries {
				e := &n.Entries[i]
				if e.IsNode || e.Ptr == pagestore.NilPage || checkedPages[e.Ptr] {
					continue
				}
				checkedPages[e.Ptr] = true
				p, err := t.readPageSh(e.Ptr)
				if err != nil {
					return err
				}
				if p.Len() == 0 {
					deadPages[e.Ptr] = true
				}
			}
		}
		for id, n := range nodes {
			dirty := false
			for i := range n.Entries {
				e := &n.Entries[i]
				if !e.IsNode && deadPages[e.Ptr] {
					e.Ptr = pagestore.NilPage
					dirty = true
				}
			}
			if dirty {
				t.shrinkNode(n)
				if err := t.writeNode(id, n); err != nil {
					return err
				}
			}
		}
		for pid := range deadPages {
			if err := t.freePage(pid); err != nil {
				return err
			}
		}
		var empty []pagestore.PageID
		for id, n := range nodes {
			if id != r.pageID && allNil(n) {
				empty = append(empty, id)
			}
		}
		if len(empty) == 0 {
			return nil
		}
		dead := make(map[pagestore.PageID]bool, len(empty))
		for _, id := range empty {
			dead[id] = true
		}
		for id, n := range nodes {
			if dead[id] {
				continue
			}
			dirty := false
			for i := range n.Entries {
				e := &n.Entries[i]
				if e.IsNode && dead[e.Ptr] {
					e.Ptr = pagestore.NilPage
					e.IsNode = false
					dirty = true
				}
			}
			if dirty {
				t.shrinkNode(n)
				if err := t.writeNode(id, n); err != nil {
					return err
				}
			}
		}
		for _, id := range empty {
			if err := t.freeNode(id); err != nil {
				return err
			}
			t.nNodes.Add(-1)
		}
	}
}

// mergePages repeatedly merges the page region containing element q with
// its split buddy along the region's last-split dimension, while the
// combined records fit in one page (the node-local analogue of classic
// extendible-hashing page merging). The merged records go to a fresh
// copy-on-write page; both old pages are returned for freeing after the
// caller's node write commits. Pages with a foreign reference (impossible
// by construction; checked defensively) are left alone.
//
// node may be a shared cached object: it is cloned lazily before the first
// actual mutation, and the (possibly new) node and whether it changed are
// returned.
func (t *Tree) mergePages(node *dirnode.Node, nodeID pagestore.PageID, q int) (*dirnode.Node, bool, []pagestore.PageID, error) {
	changed := false
	mutable := func() {
		if !changed {
			node = node.Clone()
			changed = true
		}
	}
	var frees []pagestore.PageID
	for {
		e := node.Entries[q]
		if e.Ptr == pagestore.NilPage || e.IsNode {
			return node, changed, frees, nil
		}
		m := int(e.M)
		if e.H[m] == 0 {
			return node, changed, frees, nil
		}
		idx := node.Tuple(q)
		bidx := append([]uint64(nil), idx...)
		bidx[m] ^= uint64(1) << uint(node.Depths[m]-int(e.H[m]))
		bq := node.Index(bidx)
		be := node.Entries[bq]
		if be.IsNode || be.H != e.H {
			return node, changed, frees, nil
		}
		mergedH := e.H
		mergedH[m]--
		prevM := (m + t.prm.Dims - 1) % t.prm.Dims
		switch {
		case e.Ptr == be.Ptr:
			return node, changed, frees, nil
		case be.Ptr == pagestore.NilPage:
			mutable()
			coarsenRegion(node, q, mergedH, e.Ptr, false, prevM)
		case e.Ptr == pagestore.NilPage:
			mutable()
			coarsenRegion(node, bq, mergedH, be.Ptr, false, prevM)
			q = bq
		default:
			// Merge mutates both pages (the source's records are drained),
			// so both sides need private copies.
			p, err := t.readPageMut(e.Ptr)
			if err != nil {
				return node, changed, frees, err
			}
			bp, err := t.readPageMut(be.Ptr)
			if err != nil {
				return node, changed, frees, err
			}
			if p.Len()+bp.Len() > t.prm.Capacity {
				return node, changed, frees, nil
			}
			for _, pid := range []pagestore.PageID{e.Ptr, be.Ptr} {
				shared, err := t.isSharedRef(pid, nodeID, false)
				if err != nil {
					return node, changed, frees, err
				}
				if shared {
					return node, changed, frees, nil
				}
			}
			if err := p.Merge(bp); err != nil {
				return node, changed, frees, err
			}
			nid, err := t.allocPage()
			if err != nil {
				return node, changed, frees, err
			}
			if err := t.writePage(nid, p); err != nil {
				return node, changed, frees, err
			}
			frees = append(frees, e.Ptr, be.Ptr)
			mutable()
			coarsenRegion(node, q, mergedH, nid, false, prevM)
		}
	}
}

// inRegion reports whether element i lies in the region of element q at
// local depths h.
func inRegion(node *dirnode.Node, i, q int, h dirnode.LocalDepths) bool {
	ti, tq := node.Tuple(i), node.Tuple(q)
	for j := 0; j < node.Dims(); j++ {
		shift := uint(node.Depths[j] - int(h[j]))
		if ti[j]>>shift != tq[j]>>shift {
			return false
		}
	}
	return true
}

// coarsenRegion rewrites the region of element q at (coarser) local depths
// h to point to ptr.
func coarsenRegion(node *dirnode.Node, q int, h dirnode.LocalDepths, ptr pagestore.PageID, isNode bool, m int) {
	for i := range node.Entries {
		if inRegion(node, i, q, h) {
			node.Entries[i] = dirnode.Entry{Ptr: ptr, IsNode: isNode, H: h, M: uint8(m)}
		}
	}
}

// canShrink reports whether shrinkNode would change the node: some nonzero
// dimension's full depth is unused by every live element. Fast-path
// dry-runs use it to detect latent shrinks, the exclusive path to avoid
// cloning and rewriting untouched nodes.
func (t *Tree) canShrink(node *dirnode.Node) bool {
	for m := t.prm.Dims - 1; m >= 0; m-- {
		if node.Depths[m] == 0 {
			continue
		}
		needed := false
		for i := range node.Entries {
			if int(node.Entries[i].H[m]) == node.Depths[m] &&
				(node.Entries[i].Ptr != pagestore.NilPage) {
				needed = true
				break
			}
		}
		if !needed {
			return true
		}
	}
	return false
}

// shrinkNode halves the node along any dimension whose full depth no
// element needs, repeatedly (the reverse of Expand_Dir). The root may
// shrink to a single element; non-root nodes shrink too — they still
// occupy one fixed page, but shallower depths make node merging and
// re-expansion cheap.
func (t *Tree) shrinkNode(node *dirnode.Node) {
	for {
		shrunk := false
		for m := t.prm.Dims - 1; m >= 0; m-- {
			if node.Depths[m] == 0 {
				continue
			}
			needed := false
			for i := range node.Entries {
				if int(node.Entries[i].H[m]) == node.Depths[m] &&
					(node.Entries[i].Ptr != pagestore.NilPage) {
					needed = true
					break
				}
			}
			if needed {
				continue
			}
			undouble(node, m)
			shrunk = true
		}
		if !shrunk {
			return
		}
	}
}

// undouble halves node along dimension m; every element pair differing only
// in the last bit of dimension m must be equivalent (guaranteed when no
// live element has h_m = H_m; nil elements are normalized).
func undouble(node *dirnode.Node, m int) {
	old := node.Entries
	oldDepths := append([]int(nil), node.Depths...)
	oldIndex := func(idx []uint64) int {
		q := uint64(0)
		for j := 0; j < node.Dims(); j++ {
			q = q<<uint(oldDepths[j]) | idx[j]
		}
		return int(q)
	}
	node.Depths[m]--
	node.Entries = make([]dirnode.Entry, len(old)/2)
	for q := range node.Entries {
		idx := node.Tuple(q)
		src := append([]uint64(nil), idx...)
		src[m] <<= 1
		e := old[oldIndex(src)]
		if int(e.H[m]) > node.Depths[m] {
			e.H[m] = uint8(node.Depths[m]) // nil regions clamp to the new depth
		}
		node.Entries[q] = e
	}
}

// mergeUpward walks the descent stack bottom-up. At each level it prunes
// the node we came through if it has become entirely empty, or attempts to
// re-merge it with its split sibling, then shrinks the parent. Shrinking a
// parent can enable a merge one level up, so the walk always continues to
// the root. Parents are shared snapshots; each is cloned only when a step
// actually modifies it, and only modified parents are rewritten.
func (t *Tree) mergeUpward(stack []frame, childID pagestore.PageID, child *dirnode.Node) (needGC bool, err error) {
	for lvl := len(stack) - 1; lvl >= 0; lvl-- {
		pf := stack[lvl]
		parent, pid := pf.node, pf.id
		dirty := false
		var frees []pagestore.PageID
		if allNil(child) {
			pruned, freeID, blocked, err := t.pruneEmptyChild(parent, pid, childID)
			if err != nil {
				return false, err
			}
			if pruned != nil {
				parent = pruned
				dirty = true
			}
			needGC = needGC || blocked
			if freeID != pagestore.NilPage {
				frees = append(frees, freeID)
			}
		} else {
			merged, mergeFrees, err := t.tryMergeSiblings(parent, pid, childID, child)
			if err != nil {
				return false, err
			}
			if merged != nil {
				parent = merged
				dirty = true
			}
			frees = append(frees, mergeFrees...)
		}
		if t.canShrink(parent) {
			if !dirty {
				parent = parent.Clone()
				dirty = true
			}
			t.shrinkNode(parent)
		}
		// The parent write commits the level's restructuring; replaced
		// node pages are freed only afterwards. Untouched parents are not
		// rewritten.
		if dirty {
			if err := t.writeNode(pid, parent); err != nil {
				return false, err
			}
		}
		if err := t.freeAll(frees); err != nil {
			return false, err
		}
		childID, child = pid, parent
	}
	return needGC, nil
}

// allNil reports whether every element of n is an empty region.
func allNil(n *dirnode.Node) bool {
	for i := range n.Entries {
		if n.Entries[i].Ptr != pagestore.NilPage {
			return false
		}
	}
	return true
}

// pruneEmptyChild turns the parent region pointing to an all-empty child
// node into a nil region, on a clone of the (shared) parent. It returns
// the clone (nil when the parent does not reference the child), the
// child's page for freeing after the parent write commits (NilPage when
// nothing should be freed), and whether the free was blocked by a foreign
// reference (impossible by construction; checked defensively — the caller
// then schedules a sweep).
func (t *Tree) pruneEmptyChild(parent *dirnode.Node, parentID, childID pagestore.PageID) (pruned *dirnode.Node, freeID pagestore.PageID, blocked bool, err error) {
	found := false
	for i := range parent.Entries {
		e := &parent.Entries[i]
		if e.IsNode && e.Ptr == childID {
			found = true
			break
		}
	}
	if !found {
		return nil, pagestore.NilPage, false, nil
	}
	parent = parent.Clone()
	for i := range parent.Entries {
		e := &parent.Entries[i]
		if e.IsNode && e.Ptr == childID {
			e.Ptr = pagestore.NilPage
			e.IsNode = false
		}
	}
	shared, err := t.isSharedRef(childID, parentID, true)
	if err != nil {
		return nil, pagestore.NilPage, false, err
	}
	if shared {
		return parent, pagestore.NilPage, true, nil
	}
	t.nNodes.Add(-1)
	return parent, childID, false, nil
}

// tryMergeSiblings attempts to reverse a node split: the parent region
// pointing to child (at local depths h, h_m ≥ 1 for m = the region's split
// dimension) and its buddy region pointing to a sibling node are merged
// when the two siblings' contents are pairwise identical across the last
// dimension-m bit. The merged node goes to a fresh copy-on-write page; the
// old sibling pages are returned for freeing after the parent write
// commits. The parent is cloned only when the merge goes through; the
// clone is returned (nil when nothing merged).
func (t *Tree) tryMergeSiblings(parent *dirnode.Node, parentID, childID pagestore.PageID, child *dirnode.Node) (*dirnode.Node, []pagestore.PageID, error) {
	var q = -1
	for i := range parent.Entries {
		if parent.Entries[i].IsNode && parent.Entries[i].Ptr == childID {
			q = i
			break
		}
	}
	if q < 0 {
		return nil, nil, fmt.Errorf("bmeh: node %d not referenced by its parent", childID)
	}
	e := parent.Entries[q]
	m := int(e.M)
	if e.H[m] == 0 {
		return nil, nil, nil
	}
	idx := parent.Tuple(q)
	bidx := append([]uint64(nil), idx...)
	bidx[m] ^= uint64(1) << uint(parent.Depths[m]-int(e.H[m]))
	bq := parent.Index(bidx)
	be := parent.Entries[bq]
	if be.Ptr == childID || be.H != e.H {
		return nil, nil, nil
	}
	var sibID pagestore.PageID
	var sib *dirnode.Node
	switch {
	case be.Ptr == pagestore.NilPage:
		// Buddy region is empty: merge the child with a synthetic all-nil
		// sibling of the same shape (the inverse of a split whose high or
		// low half later emptied out).
		sib = cloneShape(child)
	case be.IsNode:
		sibID = be.Ptr
		var err error
		sib, err = t.readNodeSh(sibID)
		if err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, nil
	}
	// Order the pair as (a = low half, b = high half) by the split bit.
	aID, bID := childID, sibID
	a, b := child, sib
	if (idx[m]>>uint(parent.Depths[m]-int(e.H[m])))&1 == 1 {
		aID, bID = sibID, childID
		a, b = sib, child
	}
	merged, ok := mergeNodes(a, b, m)
	if !ok {
		return nil, nil, nil
	}
	// Defense in depth: splits never share nodes across parents, but a
	// foreign reference would make the merge unsound, so verify.
	var frees []pagestore.PageID
	for _, sid := range []pagestore.PageID{aID, bID} {
		if sid == pagestore.NilPage {
			continue
		}
		shared, err := t.isSharedRef(sid, parentID, true)
		if err != nil || shared {
			return nil, nil, err
		}
		frees = append(frees, sid)
	}
	newID, err := t.allocNode()
	if err != nil {
		return nil, nil, err
	}
	if err := t.writeNode(newID, merged); err != nil {
		return nil, nil, err
	}
	if sibID != pagestore.NilPage {
		t.nNodes.Add(-1) // two nodes replace one
	}
	mergedH := e.H
	mergedH[m]--
	parent = parent.Clone()
	coarsenRegion(parent, q, mergedH, newID, true, (m+t.prm.Dims-1)%t.prm.Dims)
	return parent, frees, nil
}

// mergeNodes reverses splitNode: siblings a (low half of dimension m) and b
// (high half) are combined when, in both, every element pair differing only
// in the last bit of dimension m is identical. In the merged node the
// dimension-m window slides back one bit: element i_m = (side, low) takes
// the content of side's element (low, *), with h_m incremented unless the
// element's pointer spans both siblings at h_m = 0.
func mergeNodes(a, b *dirnode.Node, m int) (*dirnode.Node, bool) {
	if a.Level != b.Level || !slices.Equal(a.Depths, b.Depths) || a.Depths[m] == 0 {
		return nil, false
	}
	for _, n := range []*dirnode.Node{a, b} {
		for i := range n.Entries {
			idx := n.Tuple(i)
			if idx[m]&1 == 1 {
				continue
			}
			tw := append([]uint64(nil), idx...)
			tw[m] |= 1
			twin := n.Entries[n.Index(tw)]
			e := n.Entries[i]
			if twin.Ptr != e.Ptr || twin.IsNode != e.IsNode || twin.H != e.H {
				return nil, false
			}
		}
	}
	// spansBoth: pointers present in both siblings with h_m = 0.
	present := func(n *dirnode.Node, p pagestore.PageID) bool {
		for i := range n.Entries {
			if n.Entries[i].Ptr == p && n.Entries[i].H[m] == 0 {
				return true
			}
		}
		return false
	}
	out := cloneShape(a)
	hm := a.Depths[m]
	for i := range out.Entries {
		idx := out.Tuple(i)
		side := idx[m] >> uint(hm-1)
		low := idx[m] & (1<<uint(hm-1) - 1)
		src := a
		if side == 1 {
			src = b
		}
		sidx := append([]uint64(nil), idx...)
		sidx[m] = low << 1
		e := src.Entries[src.Index(sidx)]
		switch {
		case e.Ptr != pagestore.NilPage && e.H[m] == 0 && present(a, e.Ptr) && present(b, e.Ptr):
			// The region spans both siblings: keep h_m = 0.
		case e.Ptr == pagestore.NilPage:
			if int(e.H[m]) < hm {
				e.H[m]++ // empty-region bookkeeping just tracks the window
			}
		case int(e.H[m]) < hm:
			e.H[m]++
		default:
			return nil, false // a live element still needs the full window
		}
		out.Entries[i] = e
	}
	if err := out.Validate(); err != nil {
		return nil, false
	}
	return out, true
}

// isSharedRef reports whether the page id (a directory node when asNode,
// else a data page) is referenced by a directory node other than ownerID.
// A node or page can acquire a second referent when an ancestor split
// duplicates a region whose local depth along the split dimension is zero,
// so a full walk of the directory is the only sound check. The walk uses
// the pinned in-memory root and skips ownerID by id, so in-flight
// modifications of the owner are irrelevant.
func (t *Tree) isSharedRef(id, ownerID pagestore.PageID, asNode bool) (bool, error) {
	shared := false
	seen := make(map[pagestore.PageID]bool)
	var walk func(nid pagestore.PageID, n *dirnode.Node) error
	walk = func(nid pagestore.PageID, n *dirnode.Node) error {
		for i := range n.Entries {
			e := &n.Entries[i]
			if e.Ptr == pagestore.NilPage {
				continue
			}
			if e.IsNode == asNode && e.Ptr == id && nid != ownerID {
				shared = true
				return nil
			}
			// Node references occur in nodes of level ≥ 2, data-page
			// references only in level-1 nodes; recurse just deep enough.
			minVisit := 2
			if !asNode {
				minVisit = 1
			}
			if e.IsNode && n.Level-1 >= minVisit && !seen[e.Ptr] {
				seen[e.Ptr] = true
				c, err := t.readNodeSh(e.Ptr)
				if err != nil {
					return err
				}
				if err := walk(e.Ptr, c); err != nil {
					return err
				}
				if shared {
					return nil
				}
			}
		}
		return nil
	}
	// Data pages hang off level-1 nodes, which the walk always reaches;
	// node references can occur at any level ≥ 2.
	r := t.writerRoot()
	if err := walk(r.pageID, r.node); err != nil {
		return false, err
	}
	return shared, nil
}

// collapseRoot removes a redundant root: when every root element points to
// the same single child node, that child becomes the root and the tree
// height shrinks by one; an entirely empty root above leaf level resets to
// a fresh single-level directory (the final reversal steps of §4.2).
func (t *Tree) collapseRoot() error {
	r := t.writerRoot()
	if r.node.Level > 1 && allNil(r.node) {
		fresh := dirnode.New(t.prm.Dims, 1)
		if err := t.writeNode(r.pageID, fresh); err != nil {
			return err
		}
		t.installRoot(r.pageID, fresh)
		return nil
	}
	for r.node.Level > 1 {
		first := r.node.Entries[0]
		if !first.IsNode || first.Ptr == pagestore.NilPage {
			return nil
		}
		for i := range r.node.Entries {
			e := &r.node.Entries[i]
			if !e.IsNode || e.Ptr != first.Ptr {
				return nil
			}
		}
		child, err := t.readNodeSh(first.Ptr)
		if err != nil {
			return err
		}
		oldID := r.pageID
		t.installRoot(first.Ptr, child)
		// The pinned root shadows this object; drop the aliased cache entry
		// (under a shadow the cached copy lives at the translated id).
		t.nc.invalidate(t.shTarget(first.Ptr))
		if err := t.freeNode(oldID); err != nil {
			return err
		}
		t.nNodes.Add(-1)
		r = t.writerRoot()
	}
	return nil
}
