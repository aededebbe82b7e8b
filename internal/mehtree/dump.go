package mehtree

import (
	"fmt"
	"io"

	"bmeh/internal/dirnode"
	"bmeh/internal/pagestore"
)

// Dump writes a human-readable rendering of the directory tree (see
// core.Tree.Dump). Reading the structure costs page I/O.
func (t *Tree) Dump(w io.Writer) error {
	fmt.Fprintf(w, "MEH-tree: d=%d w=%d b=%d ξ=%v | %d records, %d nodes, depth=%d, σ=%d\n",
		t.prm.Dims, t.prm.Width, t.prm.Capacity, t.prm.Xi, t.n, t.nNodes, t.Levels(), t.DirectoryElements())
	var walk func(id pagestore.PageID, n *dirnode.Node, indent string) error
	walk = func(id pagestore.PageID, n *dirnode.Node, indent string) error {
		fmt.Fprintf(w, "%snode %d: depth=%d H=%v (%d elements)\n", indent, id, n.Level, n.Depths, n.Size())
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
				c, err := t.readNode(e.Ptr)
				if err != nil {
					return err
				}
				if err := walk(e.Ptr, c, indent+"    "); err != nil {
					return err
				}
				continue
			}
			p, err := t.pages.Read(e.Ptr)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s  cell %v h=%v m=%d -> page %d (%d/%d records)\n",
				indent, idx, e.H[:n.Dims()], e.M+1, e.Ptr, p.Len(), t.prm.Capacity)
		}
		return nil
	}
	return walk(t.rootID, t.root, "")
}
