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
// Concurrency: a delete is the single writer. It holds wgate and structMu
// exclusively, so no other writer runs beside it, and descends once:
// deleteLocked removes the record and decides every reversal on the way
// back up the path it read.
// Searches keep running latch-free against committed images and
// re-validate over the structVer bumps of its commits. In copy-on-write
// mode the same descent runs inside a shadow that commits with one root
// swap.
//
// Splits never give a node two parents or a page two regions (Validate
// rejects both), so every reversal is local to the path: a page or node
// the delete frees has no other referent. Deletions are not part of the
// paper's measurements. Each removal and each restructuring step commits
// with a single page write (copy-on-write), so storage faults leave a
// consistent structure behind (at worst with orphaned pages).
func (t *Tree) Delete(k bitkey.Vector) (bool, error) {
	if err := t.checkKey(k); err != nil {
		return false, err
	}
	t.wgate.Lock()
	defer t.wgate.Unlock()
	t.structMu.Lock()
	defer t.structMu.Unlock()
	if !t.cow {
		return t.deleteLocked(k)
	}
	t.beginShadow()
	deleted, err := t.deleteLocked(k)
	if err != nil {
		t.abortShadow()
		return deleted, err
	}
	return deleted, t.commitShadow()
}

// deleteLocked is the reversal algorithm, run as the sole writer (wgate
// and structMu held exclusively). The descent shares cached node objects
// and clones each node lazily at its first actual mutation — unchanged
// nodes are neither cloned nor rewritten.
func (t *Tree) deleteLocked(k bitkey.Vector) (bool, error) {
	d := t.prm.Dims
	dc := t.getDescent(k)
	defer t.putDescent(dc)
	vec := dc.v
	strip := dc.strip
	r := t.writerRoot()
	id, node := r.pageID, r.node
	for {
		q := t.nodeIndexInto(node, vec, dc.idx)
		e := node.Entries[q]
		if e.Ptr == pagestore.NilPage {
			return false, nil
		}
		if e.IsNode {
			dc.push(id, node, strip)
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
		// when the page keeps its id, else the node write that drops or
		// replaces the page, so a storage fault cannot leave the count out
		// of step with the structure.
		leaf := node
		inPlace := false
		var frees []pagestore.PageID
		if p.Len() == 0 {
			node = node.Clone()
			for i := range node.Entries {
				en := &node.Entries[i]
				if !en.IsNode && en.Ptr == e.Ptr {
					en.Ptr = pagestore.NilPage
				}
			}
			frees = append(frees, e.Ptr)
		} else {
			var pid pagestore.PageID
			node, pid, frees, err = t.mergePages(node, q, p)
			if err != nil {
				return false, err
			}
			if err := t.writePage(pid, p); err != nil {
				return false, err
			}
			inPlace = pid == e.Ptr
			if inPlace {
				t.n.Add(-1) // the page write committed the removal
			}
		}
		if t.canShrink(node) {
			if node == leaf {
				node = node.Clone()
			}
			t.shrinkNode(node)
		}
		// The node write commits this delete's restructuring (and, unless
		// the page was rewritten in place, the removal itself); replaced
		// pages are freed only afterwards, so a storage fault cannot leave
		// the structure referencing freed pages. An untouched node is not
		// rewritten.
		if node != leaf {
			if err := t.writeNode(id, node); err != nil {
				return false, err
			}
		}
		if !inPlace {
			t.n.Add(-1)
		}
		if err := t.freeAll(frees); err != nil {
			return false, err
		}
		if err := t.mergeUpward(dc.stack, id, node); err != nil {
			return false, err
		}
		return true, t.collapseRoot()
	}
}

// splitBuddy returns the element of node holding the split buddy of
// element q's region — the region q's region was split from along its
// last-split dimension m — or -1 when the region has h_m = 0.
func splitBuddy(node *dirnode.Node, q int) int {
	e := node.Entries[q]
	m := int(e.M)
	if e.H[m] == 0 {
		return -1
	}
	idx := node.Tuple(q)
	idx[m] ^= uint64(1) << uint(node.Depths[m]-int(e.H[m]))
	return node.Index(idx)
}

// mergePages repeatedly merges the page region of element q with its split
// buddy, while the combined records fit in one page (the node-local
// analogue of classic extendible-hashing page merging). p is q's page,
// already one record short and not yet written; it absorbs the buddies'
// records and then belongs on a fresh copy-on-write page. Replaced pages
// are returned for freeing after the caller's node write commits.
//
// node may be a shared cached object: it is cloned at its first actual
// mutation. mergePages returns the (possibly new) node and the page p must
// be written to: q's own page when nothing merged, else the fresh one.
func (t *Tree) mergePages(node *dirnode.Node, q int, p *datapage.Page) (*dirnode.Node, pagestore.PageID, []pagestore.PageID, error) {
	orig := node
	own := node.Entries[q].Ptr
	pid := own
	var frees []pagestore.PageID
	for {
		bq := splitBuddy(node, q)
		if bq < 0 {
			return node, pid, frees, nil
		}
		e, be := node.Entries[q], node.Entries[bq]
		if be.IsNode || be.H != e.H || be.Ptr == pid {
			return node, pid, frees, nil
		}
		if be.Ptr != pagestore.NilPage {
			// Merge drains the buddy, so it needs a private copy.
			bp, err := t.readPageMut(be.Ptr)
			if err != nil {
				return node, pid, frees, err
			}
			if p.Len()+bp.Len() > t.prm.Capacity {
				return node, pid, frees, nil
			}
			if err := p.Merge(bp); err != nil {
				return node, pid, frees, err
			}
			if pid == own {
				if pid, err = t.allocPage(); err != nil {
					return node, own, frees, err
				}
				frees = append(frees, own)
			}
			frees = append(frees, be.Ptr)
		}
		if node == orig {
			node = node.Clone()
		}
		m := int(e.M)
		mergedH := e.H
		mergedH[m]--
		coarsenRegion(node, q, mergedH, pid, false, (m+t.prm.Dims-1)%t.prm.Dims)
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
// dimension's full depth is unused by every live element. Delete uses it
// to avoid cloning and rewriting untouched nodes.
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
func (t *Tree) mergeUpward(stack []frame, childID pagestore.PageID, child *dirnode.Node) error {
	for lvl := len(stack) - 1; lvl >= 0; lvl-- {
		pf := stack[lvl]
		parent, pid := pf.node, pf.id
		q := -1
		for i := range parent.Entries {
			if parent.Entries[i].IsNode && parent.Entries[i].Ptr == childID {
				q = i
				break
			}
		}
		if q < 0 {
			return fmt.Errorf("bmeh: node %d not referenced by its parent", childID)
		}
		var frees []pagestore.PageID
		if allNil(child) {
			parent = t.pruneEmptyChild(parent, childID)
			frees = append(frees, childID)
		} else {
			var err error
			if parent, frees, err = t.tryMergeSiblings(parent, q, childID, child); err != nil {
				return err
			}
		}
		if t.canShrink(parent) {
			if parent == pf.node {
				parent = parent.Clone()
			}
			t.shrinkNode(parent)
		}
		// The parent write commits the level's restructuring; replaced
		// node pages are freed only afterwards. Untouched parents are not
		// rewritten.
		if parent != pf.node {
			if err := t.writeNode(pid, parent); err != nil {
				return err
			}
		}
		if err := t.freeAll(frees); err != nil {
			return err
		}
		childID, child = pid, parent
	}
	return nil
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

// pruneEmptyChild turns the parent region pointing to the all-empty child
// node into a nil region, on a clone of the (shared) parent, and returns
// the clone. The caller frees the child's page after the parent write
// commits.
func (t *Tree) pruneEmptyChild(parent *dirnode.Node, childID pagestore.PageID) *dirnode.Node {
	parent = parent.Clone()
	for i := range parent.Entries {
		e := &parent.Entries[i]
		if e.IsNode && e.Ptr == childID {
			e.Ptr = pagestore.NilPage
			e.IsNode = false
		}
	}
	t.nNodes.Add(-1)
	return parent
}

// tryMergeSiblings attempts to reverse a node split: the parent region of
// element q, pointing to child (at local depths h, h_m ≥ 1 for m = the
// region's split dimension), and its buddy region pointing to a sibling
// node are merged when the two siblings' contents are pairwise identical
// across the last dimension-m bit. The merged node goes to a fresh
// copy-on-write page; the old sibling pages are returned for freeing after
// the parent write commits. The parent is cloned only when the merge goes
// through; otherwise it is returned as it came.
func (t *Tree) tryMergeSiblings(parent *dirnode.Node, q int, childID pagestore.PageID, child *dirnode.Node) (*dirnode.Node, []pagestore.PageID, error) {
	bq := splitBuddy(parent, q)
	if bq < 0 {
		return parent, nil, nil
	}
	e, be := parent.Entries[q], parent.Entries[bq]
	if be.Ptr == childID || be.H != e.H {
		return parent, nil, nil
	}
	m := int(e.M)
	if !halvesAgree(child, m) {
		return parent, nil, nil // the sibling cannot help; do not read it
	}
	var sibID pagestore.PageID
	var sib *dirnode.Node
	switch {
	case be.Ptr == pagestore.NilPage:
		// Buddy region is empty: merge the child with a synthetic all-nil
		// sibling of the same shape (the inverse of a split whose high or
		// low half held no live region, or later emptied out).
		sib = cloneShape(child)
	case be.IsNode:
		sibID = be.Ptr
		var err error
		sib, err = t.readNodeSh(sibID)
		if err != nil {
			return parent, nil, err
		}
	default:
		return parent, nil, nil
	}
	// Order the pair as (a = low half, b = high half) by the split bit:
	// the buddy lies below q exactly when q holds the high half.
	a, b := child, sib
	if bq < q {
		a, b = sib, child
	}
	merged, ok := mergeNodes(a, b, m)
	if !ok {
		return parent, nil, nil
	}
	newID, err := t.allocNode()
	if err != nil {
		return parent, nil, err
	}
	if err := t.writeNode(newID, merged); err != nil {
		return parent, nil, err
	}
	frees := []pagestore.PageID{childID}
	if sibID != pagestore.NilPage {
		frees = append(frees, sibID)
		t.nNodes.Add(-1) // two nodes replace one
	}
	mergedH := e.H
	mergedH[m]--
	parent = parent.Clone()
	coarsenRegion(parent, q, mergedH, newID, true, (m+t.prm.Dims-1)%t.prm.Dims)
	return parent, frees, nil
}

// halvesAgree reports whether n has a dimension-m bit to give up: H_m ≥ 1
// and every element pair differing only in the last bit of dimension m is
// identical. It is mergeNodes' test of one sibling.
func halvesAgree(n *dirnode.Node, m int) bool {
	if n.Depths[m] == 0 {
		return false
	}
	for i := range n.Entries {
		idx := n.Tuple(i)
		if idx[m]&1 == 1 {
			continue
		}
		idx[m] |= 1
		twin, e := n.Entries[n.Index(idx)], n.Entries[i]
		if twin.Ptr != e.Ptr || twin.IsNode != e.IsNode || twin.H != e.H {
			return false
		}
	}
	return true
}

// mergeNodes reverses splitNode: siblings a (low half of dimension m) and b
// (high half) are combined when, in both, every element pair differing only
// in the last bit of dimension m is identical. In the merged node the
// dimension-m window slides back one bit: element i_m = (side, low) takes
// the content of side's element (low, *), with h_m incremented unless the
// element's pointer spans both siblings at h_m = 0.
func mergeNodes(a, b *dirnode.Node, m int) (*dirnode.Node, bool) {
	if a.Level != b.Level || !slices.Equal(a.Depths, b.Depths) || !halvesAgree(a, m) || !halvesAgree(b, m) {
		return nil, false
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
