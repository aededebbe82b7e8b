package core

import (
	"strings"
	"testing"

	"bmeh/internal/datapage"
	"bmeh/internal/dirnode"
	"bmeh/internal/pagestore"
	"bmeh/internal/params"
)

// TestValidateRejectsSharedReferents pins the premise that keeps every
// deletion reversal local to its path: a directory in which a node has two
// parents, or a page is referenced from two regions, fails Validate. Splits
// never build either (splitNode splits an h_m = 0 referent downward rather
// than share it), so Delete frees the pages and nodes it empties or merges
// without looking for other referents.
func TestValidateRejectsSharedReferents(t *testing.T) {
	prm := params.Default(2, 8)
	// halves returns a node at level split once along dimension 1, both
	// halves naming ptr as separate regions (h_1 = 1).
	halves := func(level int, ptr pagestore.PageID, isNode bool) *dirnode.Node {
		n := dirnode.New(prm.Dims, level)
		n.Double(0)
		for i := range n.Entries {
			n.Entries[i] = dirnode.Entry{Ptr: ptr, IsNode: isNode, H: dirnode.LocalDepths{1, 0}, M: 0}
		}
		return n
	}
	for _, tc := range []struct {
		name, want string
		level      int // of the root; its children are pages at level 1
	}{
		{"page in two regions", "referenced from 2 regions", 1},
		{"node with two parents", "referenced from two parents", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, _ := newTree(t, prm)
			pid, err := tr.pages.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.pages.Write(pid, datapage.New(prm.Dims)); err != nil {
				t.Fatal(err)
			}
			child, isNode := pid, false
			if tc.level == 2 {
				// One leaf holding the page; both root regions name it.
				if child, err = tr.nodes.Alloc(); err != nil {
					t.Fatal(err)
				}
				leaf := dirnode.New(prm.Dims, 1)
				leaf.Entries[0].Ptr = pid
				if err := tr.nodes.Write(child, leaf); err != nil {
					t.Fatal(err)
				}
				isNode = true
			}
			root := tr.rc.load()
			n := halves(tc.level, child, isNode)
			if err := tr.nodes.Write(root.pageID, n); err != nil {
				t.Fatal(err)
			}
			tr.installRoot(root.pageID, n)
			err = tr.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
