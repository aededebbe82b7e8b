package core

import (
	"testing"

	"bmeh/internal/bitkey"
	"bmeh/internal/pagestore"
	"bmeh/internal/params"
)

// TestFigure3Semantics drives the tree through the §3.1 node-split
// narrative (ξ1 = ξ2 = 2, page capacity 1) and asserts the exact structure
// the paper describes in Figures 3a–3b:
//
//   - the node doubles cyclically until H = ⟨2,2⟩;
//   - the next split along dimension 1 splits the NODE instead, creating a
//     root with H = ⟨1,0⟩ whose two elements carry local depth h = ⟨1,0⟩;
//   - inside the split children, every element's h_1 is decremented —
//     except the trigger region's elements, which keep h_1 = ξ_1 and are
//     distinguished by the fresh low bit.
func TestFigure3Semantics(t *testing.T) {
	prm := params.Params{Dims: 2, Width: 8, Capacity: 1, Xi: []int{2, 2}}
	st := pagestore.NewMemDisk(PageBytes(prm))
	tr, err := New(st, prm)
	if err != nil {
		t.Fatal(err)
	}
	key := func(a, b string) bitkey.Vector { return bitkey.MustParseVector(8, a, b) }
	keys := []bitkey.Vector{
		key("00000000", "00000000"), // K1
		key("10000000", "00000000"), // K2: doubles dim 1 (H ⟨1,0⟩)
		key("00000000", "10000000"), // K3: doubles dim 2 (H ⟨1,1⟩)
		key("01000000", "00000000"), // K4: doubles dim 1 (H ⟨2,1⟩)
		key("00000000", "01000000"), // K5: doubles dim 2 (H ⟨2,2⟩ — node full)
	}
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatalf("K%d: %v", i+1, err)
		}
	}
	if tr.Levels() != 1 {
		t.Fatalf("tree should still be a single node, has %d levels", tr.Levels())
	}
	if got := tr.rc.load().node.Depths; got[0] != 2 || got[1] != 2 {
		t.Fatalf("node depths %v, want ⟨2,2⟩ before the node split", got)
	}

	// K6 shares K1's cell at full depth; its insertion must split the node
	// along dimension 1 and grow the tree (paper Figure 3b).
	k6 := key("00100000", "00100000")
	if err := tr.Insert(k6, 5); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Levels() != 2 {
		t.Fatalf("node split should create a 2-level tree, has %d", tr.Levels())
	}
	root := tr.rc.load().node
	if root.Depths[0] != 1 || root.Depths[1] != 0 {
		t.Fatalf("root depths %v, want ⟨1,0⟩", root.Depths)
	}
	if len(root.Entries) != 2 {
		t.Fatalf("root has %d elements, want 2", len(root.Entries))
	}
	for i, e := range root.Entries {
		if !e.IsNode {
			t.Fatalf("root element %d is not a node pointer", i)
		}
		if e.H[0] != 1 || e.H[1] != 0 {
			t.Fatalf("root element %d local depths %v, want ⟨1,0⟩ (paper: initialized to 1)", i, e.H[:2])
		}
		if e.M != 0 {
			t.Fatalf("root element %d split dimension %d, want dimension 1", i, e.M+1)
		}
	}
	if root.Entries[0].Ptr == root.Entries[1].Ptr {
		t.Fatal("the two root elements must point to distinct split halves")
	}

	// Child A (leading dim-1 bit 0) holds K1/K6's trigger region: its
	// elements keep h_1 = ξ_1 = 2, while K4's region was decremented to
	// h = ⟨1,1⟩.
	a, err := tr.readNode(root.Entries[0].Ptr)
	if err != nil {
		t.Fatal(err)
	}
	if a.Depths[0] != 2 || a.Depths[1] != 2 {
		t.Fatalf("child depths %v, want ⟨2,2⟩ (window slides, depths stay)", a.Depths)
	}
	k1cell := a.At([]uint64{0, 0})
	if k1cell.H[0] != 2 || k1cell.H[1] != 2 {
		t.Fatalf("trigger element h = %v, want ⟨2,2⟩ (not decremented)", k1cell.H[:2])
	}
	k6cell := a.At([]uint64{1, 0})
	if k6cell.H[0] != 2 || k6cell.H[1] != 2 {
		t.Fatalf("trigger twin element h = %v, want ⟨2,2⟩", k6cell.H[:2])
	}
	if k1cell.Ptr == k6cell.Ptr {
		t.Fatal("K1 and K6 must land in the two pages the split created")
	}
	k4cell := a.At([]uint64{2, 0})
	if k4cell.H[0] != 1 || k4cell.H[1] != 1 {
		t.Fatalf("K4's element h = %v, want ⟨1,1⟩ (h_1 decremented by the split)", k4cell.H[:2])
	}

	// All six keys remain findable through the new hierarchy.
	for i, k := range append(keys, k6) {
		v, ok, err := tr.Search(k)
		if err != nil || !ok || v != uint64(i) {
			t.Fatalf("K%d lost after the node split (v=%d ok=%v err=%v)", i+1, v, ok, err)
		}
	}
}
