package core

import (
	"sync"

	"bmeh/internal/bitkey"
	"bmeh/internal/dirnode"
	"bmeh/internal/pagestore"
)

// Range implements algorithm PRG_Search (§4.4): it calls fn for every
// record whose key lies in the axis-aligned box [lo_j, hi_j] for every
// dimension j. fn returning false stops the scan. Each directory node and
// data page is visited at most once, so the cost is O(ℓ·n_R) accesses
// where n_R is the number of rectangular cells covering the box
// (Theorem 4).
//
// Partial-match and partial-range queries are expressed by passing the
// dimension's full range ("000…" to "111…") for unconstrained attributes,
// exactly as the paper defines k_{j_l} and k_{j_u}.
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
	// Range holds a structure read-lock for the whole scan rather than
	// validating optimistically like Search: a structural change mid-scan
	// would force a retry, and fn may already have observed records —
	// re-running it would surface duplicates to the caller. Plain page
	// writes (inserts into non-full pages, fast deletes) proceed
	// concurrently; only restructurings wait.
	t.structMu.RLock()
	defer t.structMu.RUnlock()
	return t.rangeFrom(t.rc.load().node, lo, hi, false, fn)
}

// rangeFrom is the scan core shared by Range and TreeSnapshot.Range: it
// walks the box from an explicit root. With latchless set (snapshot scans)
// the per-page shared latches are skipped — the pages reachable from a
// pinned snapshot root are immutable — and the caller holds no lock at
// all; otherwise the caller holds structMu's read side.
func (t *Tree) rangeFrom(root *dirnode.Node, lo, hi bitkey.Vector, latchless bool, fn func(k bitkey.Vector, v uint64) bool) error {
	r := rangeScanPool.Get().(*rangeScan)
	r.t, r.lo, r.hi, r.fn = t, lo, hi, fn
	r.width = t.prm.Width
	r.stopped = false
	r.latchless = latchless
	err := r.node(root, lo.Clone(), hi.Clone())
	clear(r.seenPages)
	clear(r.seenNodes)
	*r = rangeScan{seenPages: r.seenPages, seenNodes: r.seenNodes}
	rangeScanPool.Put(r)
	return err
}

// rangeScanPool recycles scan state (chiefly the visited-set maps) across
// Range calls.
var rangeScanPool = sync.Pool{New: func() interface{} {
	return &rangeScan{
		seenPages: make(map[pagestore.PageID]bool),
		seenNodes: make(map[nodeVisit]bool),
	}
}}

// nodeVisit identifies one (node, clamped bounds) descent. A node shared by
// two parents (an h_m = 0 duplication) is legitimately visited once per
// distinct clamp; identical visits are skipped.
type nodeVisit struct {
	id       pagestore.PageID
	lo0, hi0 bitkey.Component
	lo1, hi1 bitkey.Component
	rest     string
}

// rangeScan carries the query state: the original box (for final record
// filtering — records store full keys) and cross-node visited sets (a page
// or node can be referenced from more than one element, and even from more
// than one node).
type rangeScan struct {
	t         *Tree
	lo, hi    bitkey.Vector
	fn        func(bitkey.Vector, uint64) bool
	seenPages map[pagestore.PageID]bool
	seenNodes map[nodeVisit]bool
	width     int
	stopped   bool
	latchless bool // snapshot scan: pages immutable, skip page latches
}

// visitKey builds the dedup key for a child descent.
func visitKey(id pagestore.PageID, lo, hi bitkey.Vector) nodeVisit {
	v := nodeVisit{id: id}
	v.lo0, v.hi0 = lo[0], hi[0]
	if len(lo) > 1 {
		v.lo1, v.hi1 = lo[1], hi[1]
	}
	if len(lo) > 2 {
		var b []byte
		for j := 2; j < len(lo); j++ {
			for s := 56; s >= 0; s -= 8 {
				b = append(b, byte(uint64(lo[j])>>uint(s)), byte(uint64(hi[j])>>uint(s)))
			}
		}
		v.rest = string(b)
	}
	return v
}

// node scans one directory node. vlo and vhi are the query bounds shifted
// into the node's coordinate frame.
func (r *rangeScan) node(n *dirnode.Node, vlo, vhi bitkey.Vector) error {
	t := r.t
	d := t.prm.Dims
	// One allocation for the three per-visit index vectors (the scan is
	// recursive, so they cannot live in pooled per-operation scratch).
	lu := make([]uint64, 3*d)
	L, U, idx := lu[:d], lu[d:2*d], lu[2*d:]
	for j := 0; j < d; j++ {
		L[j] = bitkey.G(vlo[j], n.Depths[j], r.width)
		U[j] = bitkey.G(vhi[j], n.Depths[j], r.width)
	}
	copy(idx, L)
	for {
		q := n.Index(idx)
		e := &n.Entries[q]
		if e.Ptr != pagestore.NilPage {
			if e.IsNode {
				if err := r.descend(n, e, idx, vlo, vhi); err != nil {
					return err
				}
			} else if !r.seenPages[e.Ptr] {
				r.seenPages[e.Ptr] = true
				if err := r.page(e.Ptr); err != nil {
					return err
				}
			}
			if r.stopped {
				return nil
			}
		}
		// Odometer over the covering cells (the paper's Search_Region loop).
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

// descend recurses into a child node, clamping the query bounds to the
// entry's region per dimension: if the region lies strictly inside the
// query along dimension j, the child's bound opens to the dimension's full
// range; if it contains the query boundary, the boundary is shifted by the
// entry's local depth h_j (the paper's Left_Shift step).
func (r *rangeScan) descend(n *dirnode.Node, e *dirnode.Entry, idx []uint64, vlo, vhi bitkey.Vector) error {
	t := r.t
	d := t.prm.Dims
	clo := make(bitkey.Vector, d)
	chi := make(bitkey.Vector, d)
	var full bitkey.Component
	if r.width < 64 {
		full = bitkey.Component(1)<<uint(r.width) - 1
	} else {
		full = ^bitkey.Component(0)
	}
	for j := 0; j < d; j++ {
		// The region's h_j-bit prefix in this node's frame.
		hj := int(e.H[j])
		regionPrefix := idx[j] >> uint(n.Depths[j]-hj)
		if bitkey.G(vlo[j], hj, r.width) == regionPrefix {
			clo[j] = bitkey.LeftShift(vlo[j], hj, r.width)
		} else {
			clo[j] = 0 // query lower bound lies below this region
		}
		if bitkey.G(vhi[j], hj, r.width) == regionPrefix {
			chi[j] = bitkey.LeftShift(vhi[j], hj, r.width)
		} else {
			chi[j] = full // query upper bound lies above this region
		}
	}
	vk := visitKey(e.Ptr, clo, chi)
	if r.seenNodes[vk] {
		return nil
	}
	r.seenNodes[vk] = true
	child, err := t.readNode(e.Ptr)
	if err != nil {
		return err
	}
	return r.node(child, clo, chi)
}

// page scans one data page, filtering by the original box. The page is the
// shared cached object, read under its shared latch (an insert into a page
// with room mutates it in place under the exclusive latch); record keys
// are handed to fn read-only, and fn runs with the latch held — another
// reason it must not mutate the tree.
func (r *rangeScan) page(id pagestore.PageID) error {
	if !r.latchless {
		l := r.t.latches.of(id)
		l.RLock(0)
		defer l.RUnlock()
	}
	p, err := r.t.readPage(id)
	if err != nil {
		return err
	}
	for _, rec := range p.Records() {
		if inBox(rec.Key, r.lo, r.hi) {
			if !r.fn(rec.Key, rec.Value) {
				r.stopped = true
				return nil
			}
		}
	}
	return nil
}

func inBox(k, lo, hi bitkey.Vector) bool {
	for j := range k {
		if k[j] < lo[j] || k[j] > hi[j] {
			return false
		}
	}
	return true
}
