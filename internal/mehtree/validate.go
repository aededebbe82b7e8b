package mehtree

import (
	"fmt"

	"bmeh/internal/bitkey"
	"bmeh/internal/dirnode"
	"bmeh/internal/pagestore"
)

// Validate checks the structural invariants of the tree: node-local
// invariants, depth bounds, the no-sharing property (every node and every
// data page is referenced from exactly one node), record placement, and
// the record count.
func (t *Tree) Validate() error {
	total := 0
	seenNodes := make(map[pagestore.PageID]bool)
	seenPages := make(map[pagestore.PageID]bool)
	var walk func(id pagestore.PageID, n *dirnode.Node, strip []int, prefix bitkey.Vector) error
	walk = func(id pagestore.PageID, n *dirnode.Node, strip []int, prefix bitkey.Vector) error {
		if err := n.Validate(); err != nil {
			return fmt.Errorf("node %d: %w", id, err)
		}
		for j := 0; j < t.prm.Dims; j++ {
			if n.Depths[j] > t.prm.Xi[j] {
				return fmt.Errorf("node %d: H_%d = %d exceeds ξ = %d", id, j+1, n.Depths[j], t.prm.Xi[j])
			}
		}
		for q := range n.Entries {
			e := &n.Entries[q]
			if e.Ptr == pagestore.NilPage {
				continue
			}
			idx := n.Tuple(q)
			rep := true
			for j := 0; j < t.prm.Dims; j++ {
				shift := uint(n.Depths[j] - int(e.H[j]))
				if idx[j] != idx[j]>>shift<<shift {
					rep = false
					break
				}
			}
			if !rep {
				continue
			}
			cp := prefix.Clone()
			cs := append([]int(nil), strip...)
			for j := 0; j < t.prm.Dims; j++ {
				hj := int(e.H[j])
				hb := idx[j] >> uint(n.Depths[j]-hj)
				if hj > 0 {
					cp[j] |= bitkey.Component(hb) << uint(t.prm.Width-cs[j]-hj)
				}
				cs[j] += hj
			}
			if e.IsNode {
				if seenNodes[e.Ptr] {
					return fmt.Errorf("node %d referenced from two regions (MEH-trees never share nodes)", e.Ptr)
				}
				seenNodes[e.Ptr] = true
				child, err := t.readNode(e.Ptr)
				if err != nil {
					return err
				}
				if err := walk(e.Ptr, child, cs, cp); err != nil {
					return err
				}
				continue
			}
			if seenPages[e.Ptr] {
				return fmt.Errorf("page %d referenced from two regions (MEH-trees never share pages)", e.Ptr)
			}
			seenPages[e.Ptr] = true
			p, err := t.pages.Read(e.Ptr)
			if err != nil {
				return err
			}
			if p.Len() > t.prm.Capacity {
				return fmt.Errorf("page %d overfull: %d > %d", e.Ptr, p.Len(), t.prm.Capacity)
			}
			if err := p.SortCheck(); err != nil {
				return fmt.Errorf("page %d: %w", e.Ptr, err)
			}
			total += p.Len()
			for _, rec := range p.Records() {
				for j := 0; j < t.prm.Dims; j++ {
					if cs[j] == 0 {
						continue
					}
					if bitkey.G(rec.Key[j], cs[j], t.prm.Width) != bitkey.G(cp[j], cs[j], t.prm.Width) {
						return fmt.Errorf("page %d: record %v violates dim-%d prefix (depth %d)", e.Ptr, rec.Key, j+1, cs[j])
					}
				}
			}
		}
		return nil
	}
	strip := make([]int, t.prm.Dims)
	prefix := make(bitkey.Vector, t.prm.Dims)
	if err := walk(t.rootID, t.root, strip, prefix); err != nil {
		return err
	}
	if total != t.n {
		return fmt.Errorf("record count %d != Len() %d", total, t.n)
	}
	return nil
}
