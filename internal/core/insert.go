package core

import (
	"fmt"

	"bmeh/internal/bitkey"
	"bmeh/internal/datapage"
	"bmeh/internal/dirnode"
	"bmeh/internal/latch"
	"bmeh/internal/pagestore"
)

// maxRestructures bounds the restructuring steps one insertion may take; it
// is far above the paper's Theorem 2 worst case (ℓ(ℓ−1)φ/2 + ℓ node splits)
// and exists only to turn an invariant bug into an error instead of a hang.
const maxRestructures = 1 << 14

// frame is one level of the descent stack of algorithm BMEH_Insert (and of
// Delete, which walks it back up).
type frame struct {
	id   pagestore.PageID
	node *dirnode.Node
	// strip holds the per-dimension bits consumed above this node; node
	// splits need it to locate the absolute split-plane bit.
	strip []int
}

// splitSafe reports whether the node can absorb a split from below along
// any dimension by doubling instead of splitting itself: H_m < ξ_m for
// every m. A split chain never propagates past a split-safe node, which is
// exactly what lets the crabbing descent release all latches above one.
func (t *Tree) splitSafe(n *dirnode.Node) bool {
	for m, h := range n.Depths {
		if h >= t.prm.Xi[m] {
			return false
		}
	}
	return true
}

// Insert stores (k, v). It returns ErrDuplicate if the key is present.
// After any restructuring (page split, node expansion, node split chain)
// the insertion re-enters from the root, as the paper's algorithm does:
// each attempt is one tryInsert descent, so the path is read once per
// descent and ρ counts exactly the paper's accesses.
//
// Concurrency: the whole insertion runs under the writer gate's read side,
// so inserts in disjoint subtrees proceed in parallel. The descent crabs
// exclusive per-node latches, releasing all ancestors once the child it
// moved to is split-safe; concurrent inserters therefore serialize from the
// deepest node on their path that is not split-safe down to their page. A
// page with room commits in place under its exclusive latch. When a full
// page forces restructuring the descent try-acquires structMu with its
// latches held; if another writer is mid-restructure it releases
// everything, waits, and re-descends — so no writer ever hold-and-waits on
// structMu and the latch order stays acyclic.
func (t *Tree) Insert(k bitkey.Vector, v uint64) error {
	if err := t.checkKey(k); err != nil {
		return err
	}
	if t.cow {
		return t.insertCOW(k, v)
	}
	t.wgate.RLock()
	defer t.wgate.RUnlock()
	structural := false
	defer func() {
		if structural {
			latch.EndStructural()
			t.structMu.Unlock()
		}
	}()
	for step := 0; step < maxRestructures; step++ {
		done, err := t.tryInsert(k, v, &structural)
		if err != nil || done {
			return err
		}
	}
	return fmt.Errorf("bmeh: insertion did not converge after %d restructurings", maxRestructures)
}

// tryInsert descends once. It either completes the insertion (true) or
// performs one restructuring step and asks to be re-run (false). Latches
// acquired during the descent are released when it returns; structMu, once
// acquired (*structural), is kept by the caller across re-entries so the
// restructuring sequence of one insertion is not interleaved with others.
func (t *Tree) tryInsert(k bitkey.Vector, v uint64, structural *bool) (bool, error) {
	d := t.prm.Dims
	dc := t.getDescent(k)
	defer t.putDescent(dc)
	ls := &dc.ls
	defer ls.releaseAll()
	vec := dc.v
	strip := dc.strip // bits stripped per dimension before current node
	// Root handshake: latch what we believe is the root, then confirm it
	// still is. Every root install or update stores a fresh rootRef, so the
	// pointer comparison cannot be fooled by a replace-and-restore (ABA).
	var id pagestore.PageID
	var node *dirnode.Node
	for {
		r := t.writerRoot()
		ls.lock(r.pageID, r.node.Level)
		if t.writerRoot() == r {
			id, node = r.pageID, r.node
			break
		}
		ls.releaseAll()
	}
	// The descent shares cached node objects: the common insertion only
	// mutates a data page. The rare branches that do modify a node clone it
	// first (clone-before-mutate keeps failure atomicity — a shared object
	// is never dirtied before its commit write succeeds). Holding a node's
	// latch pins its decoded identity: no other writer can commit a newer
	// image of a latched page.
	for {
		q := t.nodeIndexInto(node, vec, dc.idx)
		e := &node.Entries[q]
		if e.Ptr != pagestore.NilPage && e.IsNode {
			dc.push(id, node, strip)
			for j := 0; j < d; j++ {
				strip[j] += int(e.H[j])
				vec[j] = bitkey.LeftShift(vec[j], int(e.H[j]), t.prm.Width)
			}
			childID := e.Ptr
			ls.lock(childID, node.Level-1)
			child, err := t.readNodeSh(childID)
			if err != nil {
				return false, err
			}
			if t.splitSafe(child) {
				// Crab: a split chain from below stops at this child, so
				// the ancestor latches can all go.
				ls.releaseAllExcept(childID)
			}
			id, node = childID, child
			continue
		}
		if e.Ptr == pagestore.NilPage && node.Level > 1 {
			// An empty region above leaf level (the empty half of a node
			// split, or left by deletion pruning): materialize an empty
			// child node so the tree stays perfectly height-balanced, then
			// continue the descent through it. Nothing is freed, so this
			// commits safely under the node latch alone.
			cid, err := t.allocNode()
			if err != nil {
				return false, err
			}
			// The child's element keeps the region's last-split dimension,
			// so its first split continues the cyclic order instead of
			// restarting at dimension 0.
			child := dirnode.New(d, node.Level-1)
			child.Entries[0].M = e.M
			if err := t.writeNode(cid, child); err != nil {
				return false, err
			}
			h, em := e.H, e.M
			node = node.Clone()
			for _, bq := range node.Buddies(q) {
				en := &node.Entries[bq]
				if en.Ptr != pagestore.NilPage {
					continue
				}
				*en = dirnode.Entry{Ptr: cid, IsNode: true, H: h, M: em}
			}
			if err := t.writeNode(id, node); err != nil {
				return false, err
			}
			t.nNodes.Add(1) // counted only once the parent write commits
			return false, nil
		}
		if e.Ptr == pagestore.NilPage {
			// Empty region at leaf level: allocate a page for it and point
			// every element of the region (the paper's "entries having the
			// same file depths") at it. Nothing is freed: latch-only commit.
			pid, err := t.allocPage()
			if err != nil {
				return false, err
			}
			p := datapage.New(d)
			p.Insert(datapage.Record{Key: k.Clone(), Value: v})
			if err := t.writePage(pid, p); err != nil {
				return false, err
			}
			h, em := e.H, e.M
			node = node.Clone()
			for _, b := range node.Buddies(q) {
				en := &node.Entries[b]
				if en.Ptr != pagestore.NilPage {
					continue // defensive: never clobber a live region
				}
				*en = dirnode.Entry{Ptr: pid, H: h, M: em}
			}
			if err := t.writeNode(id, node); err != nil {
				return false, err
			}
			t.n.Add(1)
			return true, nil
		}
		ls.lock(e.Ptr, 0) // page latch, rank 0
		// Latched mode works on the shared cached page: the exclusive page
		// latch makes this writer its sole user, since every concurrent
		// reader of a data page holds its shared latch. A COW shadow must
		// leave committed images to snapshot readers, so it takes a
		// private copy.
		var p *datapage.Page
		var err error
		if t.sh == nil {
			p, err = t.readPage(e.Ptr)
		} else {
			p, err = t.readPageMut(e.Ptr)
		}
		if err != nil {
			return false, err
		}
		i, dup := p.Find(k)
		if dup {
			return false, ErrDuplicate
		}
		if p.Len() < t.prm.Capacity {
			// Commit at the position Find computed, with no clone and no
			// second search: one page write per insert, the paper's §4
			// cost. If the store write fails the mutated object is dropped
			// from the cache before the latch is released, so the next
			// decode restores the committed state.
			p.InsertAt(i, datapage.Record{Key: k.Clone(), Value: v})
			if err := t.writePage(e.Ptr, p); err != nil {
				t.pc.invalidate(e.Ptr)
				return false, err
			}
			t.n.Add(1)
			return true, nil
		}
		if t.sh == nil {
			// restructure partitions p; the cached image stays the
			// committed one until the split commits.
			p = p.Clone()
		}
		// The page is full: restructuring frees pages, which concurrent
		// structure-sensitive readers (Range, the Search fallback) and other
		// restructurers must not observe mid-flight. Try for structMu with
		// the latches held — never a blocking wait, which would invert the
		// structMu → latch order. On failure, release everything, wait
		// unencumbered, and re-descend as the structural writer.
		if !*structural {
			if t.structMu.TryLock() {
				*structural = true
				latch.BeginStructural()
			} else {
				ls.releaseAll()
				t.structMu.Lock()
				*structural = true
				latch.BeginStructural()
				return false, nil
			}
		}
		return false, t.restructure(ls, dc.stack, id, node, q, strip, p)
	}
}

// restructure performs one growth step for the full page under element q of
// the leaf node: an in-node page split if the node's depth allows it, a
// node doubling if H_m < ξ_m, or a node split chain propagating toward the
// root (§3.1). The caller holds structMu and exclusive latches on the
// descent path from the deepest split-safe node down to the leaf and page —
// the split-safe release rule guarantees the chain stays inside that span.
//
// Restructuring is failure-atomic through copy-on-write: the split halves
// are written to freshly allocated pages, and the single page write that
// links them in (the leaf node, an ancestor node, or the new root) is the
// commit point. A storage fault before the commit leaves the previous
// structure fully intact (plus unreferenced orphan pages); the replaced
// pages are freed only after the commit.
func (t *Tree) restructure(ls *latchSet, stack []frame, id pagestore.PageID, node *dirnode.Node, q int, strip []int, p *datapage.Page) error {
	e := &node.Entries[q]
	m, ok := t.nextSplitDim(e, strip)
	if !ok {
		return fmt.Errorf("bmeh: cannot split page: all dimensions exhausted at width %d", t.prm.Width)
	}
	newh := int(e.H[m]) + 1
	if newh > node.Depths[m] && node.Depths[m] < t.prm.Xi[m] {
		// Expand_Dir: double the node along m (on a private copy — the
		// descent shares cached objects); the page split happens on the
		// next attempt. A single page write: atomic.
		node = node.Clone()
		node.Double(m)
		return t.writeNode(id, node)
	}
	// Split the data page on the next bit of dimension m (the absolute bit
	// position in the stored key is strip[m] + newh) into copy-on-write
	// pages.
	oldPtr, oldH := e.Ptr, e.H
	ones := p.PartitionByBit(m, strip[m]+newh, t.prm.Width)
	pz, po, err := t.writePageHalves(p, ones)
	if err != nil {
		return err
	}
	if newh <= node.Depths[m] {
		// Plain page split within the node: deepen the region's elements
		// and distribute the two pages across its halves. The node write
		// commits.
		node = node.Clone()
		t.assignSplit(node, oldPtr, oldH, m, newh, pz, po, false)
		if err := t.writeNode(id, node); err != nil {
			return err
		}
		return t.freePage(oldPtr)
	}
	// Node split chain (Split_Node): dimension m is exhausted in this node.
	return t.splitChain(ls, stack, id, node, m, strip[m], oldPtr, pz, po, false, []pagestore.PageID{oldPtr})
}

// assignSplit updates every element of the region that pointed to oldPtr
// (with local depths oldH): the half whose dimension-m index has bit newh
// equal to 0 now points to pz, the other half to po; local depth h_m
// becomes newh and the last-split dimension m is recorded. A NilPage half
// becomes a nil region.
func (t *Tree) assignSplit(node *dirnode.Node, oldPtr pagestore.PageID, oldH dirnode.LocalDepths, m, newh int, pz, po pagestore.PageID, isNode bool) {
	shift := uint(node.Depths[m] - newh)
	for i := range node.Entries {
		en := &node.Entries[i]
		if en.Ptr != oldPtr || en.IsNode != isNode || en.H != oldH {
			continue
		}
		idx := node.Tuple(i)
		if (idx[m]>>shift)&1 == 0 {
			en.Ptr = pz
		} else {
			en.Ptr = po
		}
		en.IsNode = isNode && en.Ptr != pagestore.NilPage
		en.H[m] = uint8(newh)
		en.M = uint8(m)
	}
}

// splitChain splits the node along m into two sibling pages and pushes
// the new distinction into the parent, recursing toward the root (§3.1).
// A sibling that holds no live region gets no page: the parent's elements
// for it become a nil region. trigPtr is the pointer whose region
// triggered the split; its elements in the new siblings receive pz (new
// bit 0) and po (new bit 1).
// frees lists pages to release once an ancestor write (or the root switch)
// has committed the new structure.
//
// Every node the chain reads or writes is latched: the split-safe release
// rule kept latches on exactly the span the chain can touch, and downward
// cascade targets are latched by splitReferent before they are read.
func (t *Tree) splitChain(ls *latchSet, stack []frame, id pagestore.PageID, node *dirnode.Node, m, stripM int, trigPtr, pz, po pagestore.PageID, trigIsNode bool, frees []pagestore.PageID) error {
	curID, curNode := id, node
	for {
		a, b, err := t.splitNode(ls, curNode, m, stripM, trigPtr, pz, po, trigIsNode, &frees)
		if err != nil {
			return err
		}
		aID, bID, err := t.writeNodeHalves(a, b)
		if err != nil {
			return err
		}
		frees = append(frees, curID)
		trigPtr, pz, po, trigIsNode = curID, aID, bID, true
		if len(stack) == 0 {
			// The root itself split: grow the tree by one level. (The root
			// latch is necessarily still held — a chain reaching the root
			// means no split-safe node appeared anywhere on the path, so
			// nothing was released.)
			if err := t.newRoot(m, aID, bID, a.Level+1); err != nil {
				return err
			}
			return t.freeAll(frees)
		}
		pf := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		parent, pid := pf.node, pf.id
		h, ok := regionDepths(parent, trigPtr)
		if !ok {
			return fmt.Errorf("bmeh: node %d not referenced by its parent %d", trigPtr, pid)
		}
		newh := int(h[m]) + 1
		if newh > parent.Depths[m] {
			if parent.Depths[m] >= t.prm.Xi[m] {
				// The parent must split as well (splitNode only reads it,
				// so the shared object is fine).
				curID, curNode = pid, parent
				stripM = pf.strip[m]
				continue
			}
			parent = parent.Clone()
			parent.Double(m)
		} else {
			parent = parent.Clone()
		}
		t.assignSplit(parent, trigPtr, h, m, newh, pz, po, true)
		if err := t.writeNode(pid, parent); err != nil {
			return err
		}
		return t.freeAll(frees)
	}
}

// freeAll releases committed-away pages (data pages and directory nodes
// alike); failures here only leak pages. Decoded-cache entries are dropped
// before the store free, and both change counters are bumped so optimistic
// readers that touched a freed object re-validate.
func (t *Tree) freeAll(ids []pagestore.PageID) error {
	if t.sh != nil {
		// COW: committed pages retire to the epoch list; operation-local
		// pages free immediately. No version bumps mid-operation.
		for _, id := range ids {
			if err := t.shFree(id); err != nil {
				return err
			}
		}
		return nil
	}
	for _, id := range ids {
		t.nc.invalidate(id)
		t.pc.invalidate(id)
		t.structVer.Add(1)
		t.pageEpoch.Add(1)
		if err := t.st.Free(id); err != nil {
			return err
		}
	}
	return nil
}

// newRoot creates a fresh root one level above, with H_m = 1 and its two
// elements pointing to the split halves with local depth h_m = 1 — the
// paper's Figure 3b configuration (a NilPage half is a nil element). The
// in-memory root switch happens only after the new root page is durably
// written (commit point).
func (t *Tree) newRoot(m int, a, b pagestore.PageID, level int) error {
	d := t.prm.Dims
	root := dirnode.New(d, level)
	root.Double(m)
	for i, ptr := range []pagestore.PageID{a, b} {
		e := dirnode.Entry{Ptr: ptr, IsNode: ptr != pagestore.NilPage, M: uint8(m)}
		e.H[m] = 1
		root.Entries[i] = e
	}
	rid, err := t.allocNode()
	if err != nil {
		return err
	}
	if err := t.nodes.Write(rid, root); err != nil {
		return err
	}
	t.nNodes.Add(1)
	t.installRoot(rid, root)
	return nil
}

// splitNode implements the §3.1 node split along dimension m. The old node
// is divided by the leading bit of its dimension-m index into siblings a
// (bit 0) and b (bit 1). Inside each sibling the dimension-m index window
// slides one bit: the old leading bit moves up to the parent and a fresh
// low bit appears, so every element with h_m ≥ 1 lands in one sibling with
// h_m decremented — except the elements of the trigger region, which keep
// h_m and receive pz / po distinguished by the fresh bit.
//
// Elements with h_m = 0 cross the split plane. Following the K-D-B-tree
// mechanism the paper builds on, their referents are split downward
// recursively: a data page's records are partitioned by the plane bit into
// one page per sibling, and a child node is split along m the same way.
// (The alternative — duplicating the pointer into both siblings — would
// create nodes with two parents, which a later split of the shared node
// could not update consistently.) stripM is the number of dimension-m bits
// consumed above the old node: the plane is absolute bit stripM+1.
// Replaced pages are appended to frees; the caller releases them after the
// commit write.
func (t *Tree) splitNode(ls *latchSet, old *dirnode.Node, m, stripM int, trigPtr, pz, po pagestore.PageID, trigIsNode bool, frees *[]pagestore.PageID) (a, b *dirnode.Node, err error) {
	a = cloneShape(old)
	b = cloneShape(old)
	hm := old.Depths[m]
	// Downward splits are performed once per region; results are memoized
	// by the region's pointer so every cell of the region maps uniformly.
	type pair struct{ lo, hi pagestore.PageID }
	splitDown := make(map[pagestore.PageID]pair)
	for i := range old.Entries {
		e := &old.Entries[i]
		idx := old.Tuple(i)
		// Destination index and sibling(s) for this cell.
		var lead, low uint64
		if hm > 0 {
			lead = idx[m] >> uint(hm-1)
			low = idx[m] & (1<<uint(hm-1) - 1)
		}
		isTrig := e.Ptr != pagestore.NilPage && e.Ptr == trigPtr
		switch {
		case isTrig:
			child := a
			if lead == 1 {
				child = b
			}
			for bnew := uint64(0); bnew < 2; bnew++ {
				cidx := append([]uint64(nil), idx...)
				cidx[m] = low<<1 | bnew
				ptr := pz
				if bnew == 1 {
					ptr = po
				}
				*child.At(cidx) = dirnode.Entry{Ptr: ptr, IsNode: trigIsNode && ptr != pagestore.NilPage, H: e.H, M: uint8(m)}
			}
		case e.H[m] > 0:
			// The region lies inside one half; its window slides.
			child := a
			if lead == 1 {
				child = b
			}
			ce := *e
			ce.H[m]--
			for bnew := uint64(0); bnew < 2; bnew++ {
				cidx := append([]uint64(nil), idx...)
				cidx[m] = low<<1 | bnew
				*child.At(cidx) = ce
			}
		default:
			// h_m = 0: the region crosses the plane. Split its referent
			// downward (nil regions just appear in both siblings).
			var halves pair
			if e.Ptr == pagestore.NilPage {
				halves = pair{pagestore.NilPage, pagestore.NilPage}
			} else if done, ok := splitDown[e.Ptr]; ok {
				halves = done
			} else {
				var out struct{ lo, hi pagestore.PageID }
				out, err = t.splitReferent(ls, e, m, stripM, old.Level, frees)
				if err != nil {
					return nil, nil, err
				}
				halves = pair(out)
				splitDown[e.Ptr] = halves
			}
			// The cell maps to the same index in both siblings: the old
			// leading bit moved up, and with h_m = 0 the region spanned
			// it, so within each sibling the index range is unchanged
			// except for the fresh low bit.
			for bnew := uint64(0); bnew < 2; bnew++ {
				cidx := append([]uint64(nil), idx...)
				if hm > 0 {
					cidx[m] = low<<1 | bnew
				}
				ea, eb := *e, *e
				ea.Ptr, eb.Ptr = halves.lo, halves.hi
				if halves.lo == pagestore.NilPage {
					ea.IsNode = false
				}
				if halves.hi == pagestore.NilPage {
					eb.IsNode = false
				}
				*a.At(cidx) = ea
				*b.At(cidx) = eb
				if hm == 0 {
					break // no fresh bit when the node never indexed m
				}
			}
		}
	}
	return a, b, nil
}

// splitReferent splits a plane-crossing referent (data page or child node)
// along dimension m at absolute bit stripM+1, returning the page ids of
// the low and high halves (NilPage for a half with no live region). level is
// the level of the node being split; its node referents rank one below.
// The referent sits off the descent path, so it is latched exclusively
// here, before it is read — legal for the structural writer, which may
// latch downward anywhere inside the subtrees it holds.
func (t *Tree) splitReferent(ls *latchSet, e *dirnode.Entry, m, stripM, level int, frees *[]pagestore.PageID) (struct{ lo, hi pagestore.PageID }, error) {
	var out struct{ lo, hi pagestore.PageID }
	t.nCascades.Add(1)
	if !e.IsNode {
		ls.lock(e.Ptr, 0)
		p, err := t.readPageMut(e.Ptr)
		if err != nil {
			return out, err
		}
		ones := p.PartitionByBit(m, stripM+1, t.prm.Width)
		if out.lo, out.hi, err = t.writePageHalves(p, ones); err != nil {
			return out, err
		}
		*frees = append(*frees, e.Ptr)
		return out, nil
	}
	ls.lock(e.Ptr, level-1)
	child, err := t.readNodeSh(e.Ptr)
	if err != nil {
		return out, err
	}
	ca, cb, err := t.splitNode(ls, child, m, stripM, pagestore.NilPage, pagestore.NilPage, pagestore.NilPage, false, frees)
	if err != nil {
		return out, err
	}
	if out.lo, out.hi, err = t.writeNodeHalves(ca, cb); err != nil {
		return out, err
	}
	*frees = append(*frees, e.Ptr)
	return out, nil
}

// writePageHalves writes the two halves of a data-page split to fresh
// copy-on-write pages. An empty half gets no page: its id is NilPage and
// its region becomes nil.
func (t *Tree) writePageHalves(lo, hi *datapage.Page) (loID, hiID pagestore.PageID, err error) {
	write := func(half *datapage.Page) (pagestore.PageID, error) {
		if half.Len() == 0 {
			return pagestore.NilPage, nil
		}
		id, err := t.allocPage()
		if err != nil {
			return pagestore.NilPage, err
		}
		return id, t.writePage(id, half)
	}
	if loID, err = write(lo); err != nil {
		return loID, hiID, err
	}
	hiID, err = write(hi)
	return loID, hiID, err
}

// writeNodeHalves is writePageHalves for the two siblings of a node split:
// a sibling with no live region gets no page. nNodes counts the siblings
// written against the node they replace, which the caller frees after the
// commit.
func (t *Tree) writeNodeHalves(a, b *dirnode.Node) (aID, bID pagestore.PageID, err error) {
	written := int64(0)
	write := func(half *dirnode.Node) (pagestore.PageID, error) {
		if allNil(half) {
			return pagestore.NilPage, nil
		}
		id, err := t.allocNode()
		if err != nil {
			return pagestore.NilPage, err
		}
		written++
		return id, t.writeNode(id, half)
	}
	if aID, err = write(a); err != nil {
		return aID, bID, err
	}
	if bID, err = write(b); err != nil {
		return aID, bID, err
	}
	t.nNodes.Add(written - 1)
	return aID, bID, nil
}

// cloneShape returns a node with the same level, depths and element count
// as n, all elements zeroed.
func cloneShape(n *dirnode.Node) *dirnode.Node {
	c := dirnode.New(n.Dims(), n.Level)
	for j, h := range n.Depths {
		for s := 0; s < h; s++ {
			c.Double(j)
		}
	}
	return c
}

// nextSplitDim picks the next dimension to split for element e: cyclic from
// e.M, skipping dimensions whose consumed bits (stripped on the path plus
// the element's local depth) have reached the key width.
func (t *Tree) nextSplitDim(e *dirnode.Entry, strip []int) (int, bool) {
	d := t.prm.Dims
	for step := 1; step <= d; step++ {
		m := (int(e.M) + step) % d
		if strip[m]+int(e.H[m]) < t.prm.Width {
			return m, true
		}
	}
	return 0, false
}

// regionDepths returns the local depths of the region of parent whose
// elements point to the node child, and false if none do.
func regionDepths(parent *dirnode.Node, child pagestore.PageID) (dirnode.LocalDepths, bool) {
	for i := range parent.Entries {
		e := &parent.Entries[i]
		if e.IsNode && e.Ptr == child {
			return e.H, true
		}
	}
	return dirnode.LocalDepths{}, false
}
