package mehtree

import (
	"bmeh/internal/bitkey"
	"bmeh/internal/dirnode"
	"bmeh/internal/pagestore"
)

// Delete removes key k, returning whether it was present. The reversal is
// simpler than the BMEH-tree's because MEH-tree nodes and pages are never
// shared across nodes: empty pages are freed and their region becomes nil,
// buddy pages merge while they fit, nodes shrink when no element needs a
// dimension's full depth, a child reduced to a single whole-region data
// page is pulled back into its parent (reverse push-down), and empty child
// nodes are pruned.
func (t *Tree) Delete(k bitkey.Vector) (bool, error) {
	if err := t.checkKey(k); err != nil {
		return false, err
	}
	d := t.prm.Dims
	vec := k.Clone()
	var stack []frame
	id, node := t.rootID, t.root
	for {
		q := t.nodeIndex(node, vec)
		e := &node.Entries[q]
		if e.Ptr == pagestore.NilPage {
			return false, nil
		}
		if e.IsNode {
			stack = append(stack, frame{id: id, node: node})
			for j := 0; j < d; j++ {
				vec[j] = bitkey.LeftShift(vec[j], int(e.H[j]), t.prm.Width)
			}
			id = e.Ptr
			var err error
			node, err = t.readNode(id)
			if err != nil {
				return false, err
			}
			continue
		}
		p, err := t.pages.Read(e.Ptr)
		if err != nil {
			return false, err
		}
		if !p.Delete(k) {
			return false, nil
		}
		t.n--
		if p.Len() == 0 {
			pid := e.Ptr
			if err := t.pages.Free(pid); err != nil {
				return false, err
			}
			for i := range node.Entries {
				en := &node.Entries[i]
				if !en.IsNode && en.Ptr == pid {
					en.Ptr = pagestore.NilPage
				}
			}
		} else {
			if err := t.pages.Write(e.Ptr, p); err != nil {
				return false, err
			}
			if err := t.mergePages(node, q); err != nil {
				return false, err
			}
		}
		t.shrinkNode(node)
		if err := t.writeNode(id, node); err != nil {
			return false, err
		}
		return true, t.contractUpward(stack, id, node)
	}
}

// mergePages is the node-local buddy-page merge, identical in spirit to the
// flat scheme's (no cross-node sharing exists in a MEH-tree).
func (t *Tree) mergePages(node *dirnode.Node, q int) error {
	for {
		e := node.Entries[q]
		if e.Ptr == pagestore.NilPage || e.IsNode {
			return nil
		}
		m := int(e.M)
		if e.H[m] == 0 {
			return nil
		}
		idx := node.Tuple(q)
		bidx := append([]uint64(nil), idx...)
		bidx[m] ^= uint64(1) << uint(node.Depths[m]-int(e.H[m]))
		bq := node.Index(bidx)
		be := node.Entries[bq]
		if be.IsNode || be.H != e.H || be.Ptr == e.Ptr {
			return nil
		}
		mergedH := e.H
		mergedH[m]--
		prevM := (m + t.prm.Dims - 1) % t.prm.Dims
		switch {
		case be.Ptr == pagestore.NilPage:
			coarsenRegion(node, q, mergedH, e.Ptr, false, prevM)
		case e.Ptr == pagestore.NilPage:
			coarsenRegion(node, bq, mergedH, be.Ptr, false, prevM)
			q = bq
		default:
			p, err := t.pages.Read(e.Ptr)
			if err != nil {
				return err
			}
			bp, err := t.pages.Read(be.Ptr)
			if err != nil {
				return err
			}
			if p.Len()+bp.Len() > t.prm.Capacity {
				return nil
			}
			if err := p.Merge(bp); err != nil {
				return err
			}
			if err := t.pages.Free(be.Ptr); err != nil {
				return err
			}
			if err := t.pages.Write(e.Ptr, p); err != nil {
				return err
			}
			coarsenRegion(node, q, mergedH, e.Ptr, false, prevM)
		}
	}
}

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

func coarsenRegion(node *dirnode.Node, q int, h dirnode.LocalDepths, ptr pagestore.PageID, isNode bool, m int) {
	for i := range node.Entries {
		if inRegion(node, i, q, h) {
			node.Entries[i] = dirnode.Entry{Ptr: ptr, IsNode: isNode, H: h, M: uint8(m)}
		}
	}
}

// shrinkNode halves the node along any dimension whose full depth no live
// element needs.
func (t *Tree) shrinkNode(node *dirnode.Node) {
	for {
		shrunk := false
		for m := t.prm.Dims - 1; m >= 0; m-- {
			if node.Depths[m] == 0 {
				continue
			}
			needed := false
			for i := range node.Entries {
				if int(node.Entries[i].H[m]) == node.Depths[m] && node.Entries[i].Ptr != pagestore.NilPage {
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
			e.H[m] = uint8(node.Depths[m])
		}
		node.Entries[q] = e
	}
}

// contractUpward walks the descent stack bottom-up, pruning empty children
// and reversing push-downs, then shrinking each parent.
func (t *Tree) contractUpward(stack []frame, childID pagestore.PageID, child *dirnode.Node) error {
	for lvl := len(stack) - 1; lvl >= 0; lvl-- {
		pf := stack[lvl]
		parent, pid := pf.node, pf.id
		switch {
		case allNil(child):
			for i := range parent.Entries {
				en := &parent.Entries[i]
				if en.IsNode && en.Ptr == childID {
					en.Ptr = pagestore.NilPage
					en.IsNode = false
				}
			}
			if err := t.nodes.Free(childID); err != nil {
				return err
			}
			t.nNodes--
		case singleWholePage(child):
			// Reverse push-down: the child holds one data page covering its
			// whole (shrunken, single-element) range; the parent region can
			// point at the page directly again.
			ce := child.Entries[0]
			for i := range parent.Entries {
				en := &parent.Entries[i]
				if en.IsNode && en.Ptr == childID {
					en.Ptr = ce.Ptr
					en.IsNode = false
					en.M = ce.M
				}
			}
			if err := t.nodes.Free(childID); err != nil {
				return err
			}
			t.nNodes--
		}
		t.shrinkNode(parent)
		if err := t.writeNode(pid, parent); err != nil {
			return err
		}
		childID, child = pid, parent
	}
	return nil
}

func allNil(n *dirnode.Node) bool {
	for i := range n.Entries {
		if n.Entries[i].Ptr != pagestore.NilPage {
			return false
		}
	}
	return true
}

// singleWholePage reports whether n has shrunk to a single element holding
// a data page.
func singleWholePage(n *dirnode.Node) bool {
	return len(n.Entries) == 1 && !n.Entries[0].IsNode && n.Entries[0].Ptr != pagestore.NilPage
}

// Range calls fn for every record in the box [lo, hi], visiting each page
// once; same clamped-descent structure as the BMEH-tree's PRG_Search.
func (t *Tree) Range(lo, hi bitkey.Vector, fn func(k bitkey.Vector, v uint64) bool) error {
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
	seen := make(map[pagestore.PageID]bool)
	stopped := false
	var full bitkey.Component
	if t.prm.Width < 64 {
		full = bitkey.Component(1)<<uint(t.prm.Width) - 1
	} else {
		full = ^bitkey.Component(0)
	}
	var scan func(n *dirnode.Node, vlo, vhi bitkey.Vector) error
	scan = func(n *dirnode.Node, vlo, vhi bitkey.Vector) error {
		d := t.prm.Dims
		L := make([]uint64, d)
		U := make([]uint64, d)
		for j := 0; j < d; j++ {
			L[j] = bitkey.G(vlo[j], n.Depths[j], t.prm.Width)
			U[j] = bitkey.G(vhi[j], n.Depths[j], t.prm.Width)
		}
		idx := append([]uint64(nil), L...)
		for {
			q := n.Index(idx)
			e := &n.Entries[q]
			if e.Ptr != pagestore.NilPage {
				if e.IsNode {
					clo := make(bitkey.Vector, d)
					chi := make(bitkey.Vector, d)
					for j := 0; j < d; j++ {
						hj := int(e.H[j])
						regionPrefix := idx[j] >> uint(n.Depths[j]-hj)
						if bitkey.G(vlo[j], hj, t.prm.Width) == regionPrefix {
							clo[j] = bitkey.LeftShift(vlo[j], hj, t.prm.Width)
						} else {
							clo[j] = 0
						}
						if bitkey.G(vhi[j], hj, t.prm.Width) == regionPrefix {
							chi[j] = bitkey.LeftShift(vhi[j], hj, t.prm.Width)
						} else {
							chi[j] = full
						}
					}
					if !seen[e.Ptr] {
						seen[e.Ptr] = true
						child, err := t.readNode(e.Ptr)
						if err != nil {
							return err
						}
						if err := scan(child, clo, chi); err != nil {
							return err
						}
					}
				} else if !seen[e.Ptr] {
					seen[e.Ptr] = true
					p, err := t.pages.Read(e.Ptr)
					if err != nil {
						return err
					}
					for _, rec := range p.Records() {
						if inBox(rec.Key, lo, hi) {
							if !fn(rec.Key, rec.Value) {
								stopped = true
								return nil
							}
						}
					}
				}
				if stopped {
					return nil
				}
			}
			j := d - 1
			for ; j >= 0; j-- {
				idx[j]++
				if idx[j] <= U[j] {
					break
				}
				idx[j] = L[j]
			}
			if j < 0 {
				return nil
			}
		}
	}
	return scan(t.root, lo.Clone(), hi.Clone())
}

func inBox(k, lo, hi bitkey.Vector) bool {
	for j := range k {
		if k[j] < lo[j] || k[j] > hi[j] {
			return false
		}
	}
	return true
}
