package core

import (
	"fmt"

	"bmeh/internal/bitkey"
	"bmeh/internal/dirnode"
	"bmeh/internal/pagestore"
)

// pathConstraint records the key-prefix pinned by one directory path to a
// page: along dimension j, the first bits[j] bits of every key must equal
// the first bits[j] bits of prefix[j].
type pathConstraint struct {
	bits   []int
	prefix bitkey.Vector
}

func (c pathConstraint) matches(k bitkey.Vector, width int) bool {
	for j := range k {
		if c.bits[j] == 0 {
			continue
		}
		if bitkey.G(k[j], c.bits[j], width) != bitkey.G(c.prefix[j], c.bits[j], width) {
			return false
		}
	}
	return true
}

// Validate checks every structural invariant of the tree; it is the
// workhorse of the test suite and of cmd/bmehdump. Checked:
//
//   - node-local invariants (dirnode.Node.Validate) for every node;
//   - per-node depths bounded by ξ_j;
//   - perfect height balance: a node at level L points only to nodes at
//     level L−1 (and to data pages iff L = 1);
//   - every data page within capacity, records sorted and unique;
//   - every record's key matches the prefix pinned by at least one of the
//     directory paths reaching its page;
//   - the structure is a tree: node splits split plane-crossing referents
//     downward (K-D-B style) instead of duplicating pointers, so no node
//     and no data page is referenced from more than one node;
//   - the total record count matches Len().
func (t *Tree) Validate() error {
	constraints := make(map[pagestore.PageID][]pathConstraint)
	validated := make(map[pagestore.PageID]bool)
	var walk func(id pagestore.PageID, n *dirnode.Node, strip []int, prefix bitkey.Vector) error
	walk = func(id pagestore.PageID, n *dirnode.Node, strip []int, prefix bitkey.Vector) error {
		if !validated[id] {
			validated[id] = true
			if err := n.Validate(); err != nil {
				return fmt.Errorf("node %d: %w", id, err)
			}
			for j := 0; j < t.prm.Dims; j++ {
				if n.Depths[j] > t.prm.Xi[j] {
					return fmt.Errorf("node %d: H_%d = %d exceeds ξ = %d", id, j+1, n.Depths[j], t.prm.Xi[j])
				}
			}
		}
		for q := range n.Entries {
			e := &n.Entries[q]
			if e.Ptr == pagestore.NilPage {
				continue
			}
			idx := n.Tuple(q)
			// Only the region representative (lowest element of the
			// region) descends, so shared pointers are visited once per
			// region.
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
			// Extend the pinned prefix by this element's h_j index bits.
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
				if n.Level == 1 {
					return fmt.Errorf("node %d: leaf-level element %d points to a node", id, q)
				}
				if validated[e.Ptr] {
					return fmt.Errorf("node %d referenced from two parents (splits must not share nodes)", e.Ptr)
				}
				child, err := t.readNode(e.Ptr)
				if err != nil {
					return err
				}
				if child.Level != n.Level-1 {
					return fmt.Errorf("node %d (level %d): child %d has level %d, want %d (balance violated)", id, n.Level, e.Ptr, child.Level, n.Level-1)
				}
				if err := walk(e.Ptr, child, cs, cp); err != nil {
					return err
				}
				continue
			}
			if n.Level != 1 {
				return fmt.Errorf("node %d (level %d): non-leaf element %d points to a data page", id, n.Level, q)
			}
			constraints[e.Ptr] = append(constraints[e.Ptr], pathConstraint{bits: cs, prefix: cp})
		}
		return nil
	}
	// Validation needs a globally consistent snapshot including exact
	// record counts, so it stops all writers for its duration.
	t.wgate.Lock()
	defer t.wgate.Unlock()
	strip := make([]int, t.prm.Dims)
	prefix := make(bitkey.Vector, t.prm.Dims)
	root := t.rc.load()
	if err := walk(root.pageID, root.node, strip, prefix); err != nil {
		return err
	}
	total := 0
	for pid, cons := range constraints {
		if len(cons) > 1 {
			return fmt.Errorf("page %d referenced from %d regions (splits must not share pages)", pid, len(cons))
		}
		p, err := t.pages.Read(pid)
		if err != nil {
			return err
		}
		if p.Len() > t.prm.Capacity {
			return fmt.Errorf("page %d overfull: %d > %d", pid, p.Len(), t.prm.Capacity)
		}
		if err := p.SortCheck(); err != nil {
			return fmt.Errorf("page %d: %w", pid, err)
		}
		total += p.Len()
		for _, rec := range p.Records() {
			ok := false
			for _, c := range cons {
				if c.matches(rec.Key, t.prm.Width) {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("page %d: record %v matches none of its %d directory paths", pid, rec.Key, len(cons))
			}
		}
	}
	if int64(total) != t.n.Load() {
		return fmt.Errorf("record count %d != Len() %d", total, t.n.Load())
	}
	return nil
}
