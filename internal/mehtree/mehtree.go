// Package mehtree implements the multidimensional extendible hash tree
// (MEH-tree), the paper's second baseline (§4.3): a multilevel directory
// with the same fixed-size nodes as the BMEH-tree, but growing from the
// root *downwards*. When a node has exhausted a dimension's depth bound
// ξ_m, the overflowing region is pushed down into a freshly allocated child
// node (initially a single element pointing at the region's data page) and
// splitting continues inside the child.
//
// The design is simpler than the BMEH-tree — no node splits, no upward
// propagation, every node has exactly one referencing region — but the tree
// is not height balanced: hot regions grow deep while cold regions stay
// shallow, and every push-down spends a full 2^φ-element page on a node
// that may stay nearly empty. The paper's Tables 2–4 show the consequence:
// under uniform keys with small pages the MEH-tree directory is larger than
// the flat MDEH directory, and the BMEH-tree beats both.
package mehtree

import (
	"errors"
	"fmt"

	"bmeh/internal/bitkey"
	"bmeh/internal/datapage"
	"bmeh/internal/dirnode"
	"bmeh/internal/pagestore"
	"bmeh/internal/params"
)

// ErrDuplicate is returned when inserting a key that is already present.
var ErrDuplicate = errors.New("mehtree: duplicate key")

// maxRestructures bounds restructuring steps per insertion (safety net).
const maxRestructures = 1 << 14

// PageBytes returns the page size required by the configuration.
func PageBytes(p params.Params) int {
	db := datapage.Size(p.Dims, p.Capacity)
	nb := dirnode.PageBytes(p.Dims, p.Phi())
	if nb > db {
		return nb
	}
	return db
}

// Tree is a MEH-tree index.
type Tree struct {
	st     pagestore.Store
	prm    params.Params
	pages  *datapage.IO
	nodes  *dirnode.IO
	rootID pagestore.PageID
	root   *dirnode.Node // pinned in memory, like the BMEH-tree root
	nNodes int
	n      int
	depth  int // maximum node depth seen (root = 1)
}

// New creates an empty tree over st.
func New(st pagestore.Store, prm params.Params) (*Tree, error) {
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	if st.PageSize() < PageBytes(prm) {
		return nil, fmt.Errorf("mehtree: page size %d < required %d", st.PageSize(), PageBytes(prm))
	}
	t := &Tree{
		st:    st,
		prm:   prm,
		pages: datapage.NewIO(st, prm.Dims),
		nodes: dirnode.NewIO(st, prm.Dims),
		depth: 1,
	}
	id, err := t.nodes.Alloc()
	if err != nil {
		return nil, err
	}
	t.rootID = id
	t.root = dirnode.New(prm.Dims, 1) // Level counts depth below the root
	t.nNodes = 1
	if err := t.nodes.Write(id, t.root); err != nil {
		return nil, err
	}
	return t, nil
}

// Len returns the number of stored records.
func (t *Tree) Len() int { return t.n }

// Levels returns the maximum directory depth reached (1 = root only).
func (t *Tree) Levels() int { return t.depth }

// Nodes returns the number of directory nodes.
func (t *Tree) Nodes() int { return t.nNodes }

// DirectoryPages returns the number of disk pages the directory occupies
// (one per node).
func (t *Tree) DirectoryPages() int { return t.nNodes }

// DirectoryElements returns σ: nodes × 2^φ (nodes are fixed-size pages).
func (t *Tree) DirectoryElements() int { return t.nNodes * t.prm.NodeEntries() }

func (t *Tree) readNode(id pagestore.PageID) (*dirnode.Node, error) {
	if id == t.rootID {
		return t.root, nil
	}
	return t.nodes.Read(id)
}

func (t *Tree) writeNode(id pagestore.PageID, n *dirnode.Node) error {
	if id == t.rootID {
		t.root = n
	}
	return t.nodes.Write(id, n)
}

func (t *Tree) nodeIndex(n *dirnode.Node, v bitkey.Vector) int {
	idx := make([]uint64, t.prm.Dims)
	for j := range idx {
		idx[j] = bitkey.G(v[j], n.Depths[j], t.prm.Width)
	}
	return n.Index(idx)
}

// Search descends from the pinned root, stripping each followed entry's
// local depths, then searches the data page.
func (t *Tree) Search(k bitkey.Vector) (uint64, bool, error) {
	if err := t.checkKey(k); err != nil {
		return 0, false, err
	}
	v := k.Clone()
	node := t.root
	for {
		q := t.nodeIndex(node, v)
		e := &node.Entries[q]
		if e.Ptr == pagestore.NilPage {
			return 0, false, nil
		}
		if !e.IsNode {
			p, err := t.pages.Read(e.Ptr)
			if err != nil {
				return 0, false, err
			}
			val, ok := p.Get(k)
			return val, ok, nil
		}
		for j := 0; j < t.prm.Dims; j++ {
			v[j] = bitkey.LeftShift(v[j], int(e.H[j]), t.prm.Width)
		}
		var err error
		node, err = t.readNode(e.Ptr)
		if err != nil {
			return 0, false, err
		}
	}
}

type frame struct {
	id   pagestore.PageID
	node *dirnode.Node
}

// Insert stores (k, v); ErrDuplicate if the key is present.
func (t *Tree) Insert(k bitkey.Vector, v uint64) error {
	if err := t.checkKey(k); err != nil {
		return err
	}
	for step := 0; step < maxRestructures; step++ {
		done, err := t.tryInsert(k, v)
		if err != nil || done {
			return err
		}
	}
	return fmt.Errorf("mehtree: insertion did not converge after %d restructurings", maxRestructures)
}

func (t *Tree) tryInsert(k bitkey.Vector, v uint64) (bool, error) {
	d := t.prm.Dims
	vec := k.Clone()
	strip := make([]int, d)
	id, node := t.rootID, t.root
	for {
		q := t.nodeIndex(node, vec)
		e := &node.Entries[q]
		if e.Ptr != pagestore.NilPage && e.IsNode {
			for j := 0; j < d; j++ {
				strip[j] += int(e.H[j])
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
		if e.Ptr == pagestore.NilPage {
			pid, err := t.pages.Alloc()
			if err != nil {
				return false, err
			}
			p := datapage.New(d)
			p.Insert(datapage.Record{Key: k.Clone(), Value: v})
			if err := t.pages.Write(pid, p); err != nil {
				return false, err
			}
			h, em := e.H, e.M
			for _, b := range node.Buddies(q) {
				en := &node.Entries[b]
				if en.Ptr != pagestore.NilPage {
					continue
				}
				*en = dirnode.Entry{Ptr: pid, H: h, M: em}
			}
			if err := t.writeNode(id, node); err != nil {
				return false, err
			}
			t.n++
			return true, nil
		}
		p, err := t.pages.Read(e.Ptr)
		if err != nil {
			return false, err
		}
		if _, dup := p.Get(k); dup {
			return false, ErrDuplicate
		}
		if p.Len() < t.prm.Capacity {
			p.Insert(datapage.Record{Key: k.Clone(), Value: v})
			if err := t.pages.Write(e.Ptr, p); err != nil {
				return false, err
			}
			t.n++
			return true, nil
		}
		return false, t.restructure(id, node, q, strip, p)
	}
}

// restructure performs one growth step for the full page under element q:
// an in-node page split, a node doubling, or — when dimension m is
// exhausted in this node — a push-down creating a child node one level
// deeper (the defining move of the MEH-tree).
func (t *Tree) restructure(id pagestore.PageID, node *dirnode.Node, q int, strip []int, p *datapage.Page) error {
	e := &node.Entries[q]
	m, ok := t.nextSplitDim(e, strip)
	if !ok {
		return fmt.Errorf("mehtree: cannot split page: all dimensions exhausted at width %d", t.prm.Width)
	}
	newh := int(e.H[m]) + 1
	if newh > node.Depths[m] {
		if node.Depths[m] < t.prm.Xi[m] {
			node.Double(m)
			return t.writeNode(id, node)
		}
		// Push-down: the region keeps its local depths but its pointer now
		// refers to a child node whose single element holds the data page;
		// splitting resumes inside the child on retry.
		cid, err := t.nodes.Alloc()
		if err != nil {
			return err
		}
		t.nNodes++
		child := dirnode.New(t.prm.Dims, node.Level+1)
		child.Entries[0] = dirnode.Entry{Ptr: e.Ptr, M: e.M}
		if err := t.nodes.Write(cid, child); err != nil {
			return err
		}
		if node.Level+1 > t.depth {
			t.depth = node.Level + 1
		}
		oldPtr, oldH := e.Ptr, e.H
		for i := range node.Entries {
			en := &node.Entries[i]
			if en.Ptr == oldPtr && !en.IsNode && en.H == oldH {
				en.Ptr = cid
				en.IsNode = true
			}
		}
		return t.writeNode(id, node)
	}
	// In-node page split, identical to the flat scheme's within one node.
	// The halves go to fresh copy-on-write pages; the node write commits
	// and the old page is freed afterwards, so a storage fault cannot lose
	// acknowledged records.
	oldPtr, oldH := e.Ptr, e.H
	ones := p.PartitionByBit(m, strip[m]+newh, t.prm.Width)
	writeHalf := func(half *datapage.Page) (pagestore.PageID, error) {
		if half.Len() == 0 {
			return pagestore.NilPage, nil
		}
		nid, err := t.pages.Alloc()
		if err != nil {
			return pagestore.NilPage, err
		}
		return nid, t.pages.Write(nid, half)
	}
	pz, err := writeHalf(p)
	if err != nil {
		return err
	}
	po, err := writeHalf(ones)
	if err != nil {
		return err
	}
	shift := uint(node.Depths[m] - newh)
	for i := range node.Entries {
		en := &node.Entries[i]
		if en.Ptr != oldPtr || en.IsNode || en.H != oldH {
			continue
		}
		idx := node.Tuple(i)
		if (idx[m]>>shift)&1 == 0 {
			en.Ptr = pz
		} else {
			en.Ptr = po
		}
		en.H[m] = uint8(newh)
		en.M = uint8(m)
	}
	if err := t.writeNode(id, node); err != nil {
		return err
	}
	return t.pages.Free(oldPtr)
}

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

func (t *Tree) checkKey(k bitkey.Vector) error {
	if len(k) != t.prm.Dims {
		return fmt.Errorf("mehtree: key dimensionality %d, want %d", len(k), t.prm.Dims)
	}
	if t.prm.Width < 64 {
		for j, c := range k {
			if uint64(c) >= 1<<uint(t.prm.Width) {
				return fmt.Errorf("mehtree: component %d exceeds %d-bit width", j+1, t.prm.Width)
			}
		}
	}
	return nil
}

// Params returns the tree's configuration.
func (t *Tree) Params() params.Params { return t.prm }
