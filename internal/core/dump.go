package core

import (
	"fmt"
	"io"

	"bmeh/internal/dirnode"
	"bmeh/internal/pagestore"
)

// Dump writes a human-readable rendering of the directory tree: one line
// per node with its level, depths and element regions, and one line per
// distinct data page with its occupancy. Intended for cmd/bmehdump and
// debugging; reading the structure costs page I/O like any other access.
func (t *Tree) Dump(w io.Writer) error {
	t.structMu.RLock()
	defer t.structMu.RUnlock()
	fmt.Fprintf(w, "BMEH-tree: d=%d w=%d b=%d ξ=%v | %d records, %d nodes, %d levels, σ=%d\n",
		t.prm.Dims, t.prm.Width, t.prm.Capacity, t.prm.Xi, t.n.Load(), t.nNodes.Load(), t.Levels(), t.DirectoryElements())
	seenNodes := make(map[pagestore.PageID]bool)
	seenPages := make(map[pagestore.PageID]bool)
	var walk func(id pagestore.PageID, n *dirnode.Node, indent string) error
	walk = func(id pagestore.PageID, n *dirnode.Node, indent string) error {
		fmt.Fprintf(w, "%snode %d: level=%d H=%v (%d elements)\n", indent, id, n.Level, n.Depths, n.Size())
		printed := make(map[pagestore.PageID]bool)
		for q := range n.Entries {
			e := &n.Entries[q]
			if e.Ptr == pagestore.NilPage || printed[e.Ptr] {
				continue
			}
			printed[e.Ptr] = true
			idx := n.Tuple(q)
			if e.IsNode {
				fmt.Fprintf(w, "%s  cell %v h=%v m=%d -> node %d\n", indent, idx, e.H[:n.Dims()], e.M+1, e.Ptr)
				if !seenNodes[e.Ptr] {
					seenNodes[e.Ptr] = true
					c, err := t.readNode(e.Ptr)
					if err != nil {
						return err
					}
					if err := walk(e.Ptr, c, indent+"    "); err != nil {
						return err
					}
				}
				continue
			}
			occ := "?"
			if !seenPages[e.Ptr] {
				seenPages[e.Ptr] = true
				p, err := t.readPage(e.Ptr)
				if err != nil {
					return err
				}
				occ = fmt.Sprintf("%d/%d", p.Len(), t.prm.Capacity)
			}
			fmt.Fprintf(w, "%s  cell %v h=%v m=%d -> page %d (%s records)\n", indent, idx, e.H[:n.Dims()], e.M+1, e.Ptr, occ)
		}
		return nil
	}
	r := t.rc.load()
	return walk(r.pageID, r.node, "")
}
