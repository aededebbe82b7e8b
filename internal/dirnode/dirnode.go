// Package dirnode defines directory nodes: the building block of the
// BMEH-tree and MEH-tree directories, and (entry codec only) of the flat
// MDEH directory's pages.
//
// A node is a small multidimensional extendible-hash directory (paper
// §3.1): it has per-dimension global depths H_j bounded by ξ_j, and
// 2^{ΣH_j} directory elements. Each element carries a pointer P (to a data
// page or to a lower-level node), d local depths h_j ≤ H_j, and the
// dimension m along which the element's region was last split.
//
// In memory the element array is dense row-major over the current depths,
// and an element (Entry) is a 16-byte value with no pointer in it: copying
// or decoding a node allocates the node and one element array, whatever
// its size. A node always occupies exactly one disk page regardless of how
// many of its element slots are in use, which is why the paper reports
// tree directory sizes in multiples of the node capacity M = 2^φ.
//
// Route is the read-only view over that layout: it checks a node image's
// header, computes the element address of Theorem 1 and reads the one
// element an exact-match search follows straight out of the bytes, with
// no decode and no allocation. Everything else works on the decoded Node.
//
// On-disk layout (big endian):
//
//	offset 0:            level  uint8 (1 = leaf directory, counts up to root)
//	offset 1..d:         H_j    uint8 each
//	then 2^{ΣH_j} entries of:
//	    ptr   uint32   (bit 31 set ⇒ pointer is a directory node)
//	    h_j   uint8 × d
//	    m     uint8    (0-based last-split dimension)
package dirnode

import (
	"fmt"

	"bmeh/internal/bitkey"
	"bmeh/internal/extarray"
	"bmeh/internal/pagestore"
)

// nodeFlag marks a pointer as referring to a directory node rather than a
// data page. PageIDs therefore must stay below 2^31.
const nodeFlag uint32 = 1 << 31

// LocalDepths holds an element's local depths h_j, one byte per dimension
// as on the page. The slots at and past the node's dimensionality stay
// zero, so two elements' depths compare with ==.
type LocalDepths [extarray.MaxDims]uint8

// Entry is one directory element: the encoded element widened only to
// MaxDims depth slots. It holds no pointer, so an element array is a
// single allocation the garbage collector never scans, and copying a
// node's elements is one slice copy.
type Entry struct {
	// Ptr is the page the element points to; NilPage for an empty region.
	Ptr pagestore.PageID
	// H holds the element's local depths h_j.
	H LocalDepths
	// IsNode reports whether Ptr refers to a directory node (true) or a
	// data page (false). Meaningless when Ptr is nil.
	IsNode bool
	// M is the 0-based dimension along which the element's region was last
	// split; the next split uses the cyclically following dimension.
	M uint8
}

// alloc returns a node of dimensionality d with count zeroed elements, in
// two allocations: the node together with its depths, and the elements.
func alloc(d, level, count int) *Node {
	b := new(struct {
		n      Node
		depths [extarray.MaxDims]int
	})
	b.n = Node{Level: level, Depths: b.depths[:d:d], Entries: make([]Entry, count), d: d}
	return &b.n
}

// Clone copies the node: mutating the copy (its depths or entries) never
// affects the original. Used by mutating descents to take a private copy
// of a shared cached node.
func (n *Node) Clone() *Node {
	c := alloc(n.d, n.Level, len(n.Entries))
	copy(c.Depths, n.Depths)
	copy(c.Entries, n.Entries)
	return c
}

// EntrySize returns the encoded size of one element for dimensionality d.
func EntrySize(d int) int { return 4 + d + 1 }

// HeaderSize returns the encoded size of a node header for dimensionality d.
func HeaderSize(d int) int { return 1 + d }

// PageBytes returns the page bytes needed by a node with capacity
// 2^phi elements of dimensionality d.
func PageBytes(d, phi int) int {
	return HeaderSize(d) + (1<<uint(phi))*EntrySize(d)
}

// Node is the decoded form of a directory node.
type Node struct {
	// Level is the node's height: 1 for leaf directory nodes (whose data
	// pointers refer to data pages), increasing toward the root.
	Level int
	// Depths holds the node's global depths H_j.
	Depths []int
	// Entries is the dense row-major element array, len = 2^{ΣDepths}.
	Entries []Entry
	d       int
}

// New returns a single-element node (all depths zero) of the given level.
func New(d, level int) *Node {
	n := alloc(d, level, 1)
	n.Entries[0].M = uint8(d - 1)
	return n
}

// Dims returns the dimensionality.
func (n *Node) Dims() int { return n.d }

// Size returns the number of element slots, 2^{ΣH_j}.
func (n *Node) Size() int { return len(n.Entries) }

// SumDepths returns ΣH_j.
func (n *Node) SumDepths() int {
	s := 0
	for _, h := range n.Depths {
		s += h
	}
	return s
}

// Index converts a tuple index (one value per dimension, each < 2^{H_j})
// into the row-major element position.
func (n *Node) Index(idx []uint64) int {
	q := uint64(0)
	for j := 0; j < n.d; j++ {
		if idx[j] >= uint64(1)<<uint(n.Depths[j]) {
			panic(fmt.Sprintf("dirnode: index %d ≥ 2^%d in dimension %d", idx[j], n.Depths[j], j))
		}
		q = q<<uint(n.Depths[j]) | idx[j]
	}
	return int(q)
}

// Tuple is the inverse of Index.
func (n *Node) Tuple(q int) []uint64 {
	idx := make([]uint64, n.d)
	u := uint64(q)
	for j := n.d - 1; j >= 0; j-- {
		mask := uint64(1)<<uint(n.Depths[j]) - 1
		idx[j] = u & mask
		u >>= uint(n.Depths[j])
	}
	return idx
}

// At returns a pointer to the element with the given tuple index.
func (n *Node) At(idx []uint64) *Entry { return &n.Entries[n.Index(idx)] }

// Double doubles the node along dimension m (0-based) using prefix
// semantics: each old element's region splits in two and both halves
// inherit its content (pointer, local depths, m). The element array is
// rewritten; the node still fits its page by construction (callers enforce
// H_m < ξ_m before doubling).
func (n *Node) Double(m int) {
	old := n.Entries
	oldDepths := append([]int(nil), n.Depths...)
	n.Depths[m]++
	n.Entries = make([]Entry, len(old)*2)
	for q := range n.Entries {
		idx := n.Tuple(q)
		src := append([]uint64(nil), idx...)
		src[m] >>= 1
		// Row-major position of src under the old depths.
		sq := uint64(0)
		for j := 0; j < n.d; j++ {
			sq = sq<<uint(oldDepths[j]) | src[j]
		}
		n.Entries[q] = old[sq]
	}
}

// Buddies returns the positions of every element sharing the element at
// position q's pointer region: all tuples that agree with q's tuple on the
// first h_j bits of each dimension's index (equivalently, i_j >> (H_j-h_j)
// matches). The element at q itself is included.
func (n *Node) Buddies(q int) []int {
	e := n.Entries[q]
	base := n.Tuple(q)
	var out []int
	for p := range n.Entries {
		idx := n.Tuple(p)
		match := true
		for j := 0; j < n.d; j++ {
			shift := uint(n.Depths[j] - int(e.H[j]))
			if idx[j]>>shift != base[j]>>shift {
				match = false
				break
			}
		}
		if match {
			out = append(out, p)
		}
	}
	return out
}

// Encode writes the node image into buf and returns the bytes written.
func (n *Node) Encode(buf []byte) (int, error) {
	need := HeaderSize(n.d) + len(n.Entries)*EntrySize(n.d)
	if len(buf) < need {
		return 0, fmt.Errorf("dirnode: buffer %d bytes < needed %d", len(buf), need)
	}
	if n.Level < 0 || n.Level > 255 {
		return 0, fmt.Errorf("dirnode: level %d out of range", n.Level)
	}
	buf[0] = byte(n.Level)
	for j := 0; j < n.d; j++ {
		if n.Depths[j] < 0 || n.Depths[j] > 63 {
			return 0, fmt.Errorf("dirnode: depth H_%d = %d out of range", j+1, n.Depths[j])
		}
		buf[1+j] = byte(n.Depths[j])
	}
	off := HeaderSize(n.d)
	for i := range n.Entries {
		e := &n.Entries[i]
		for j := 0; j < n.d; j++ {
			if int(e.H[j]) > n.Depths[j] {
				return 0, fmt.Errorf("dirnode: entry %d local depth h_%d = %d out of range 0..%d", i, j+1, e.H[j], n.Depths[j])
			}
		}
		if err := EncodeEntry(buf[off:], e, n.d); err != nil {
			return 0, fmt.Errorf("dirnode: entry %d: %w", i, err)
		}
		off += EntrySize(n.d)
	}
	return off, nil
}

// entryCount checks the header of a node image for dimensionality d —
// the page holds the header, ΣH_j ≤ 30, and all 2^{ΣH_j} entries fit —
// and returns the entry count.
func entryCount(buf []byte, d int) (int, error) {
	if len(buf) < HeaderSize(d) {
		return 0, fmt.Errorf("dirnode: short page (%d bytes)", len(buf))
	}
	sum := 0
	for j := 0; j < d; j++ {
		sum += int(buf[1+j])
	}
	if sum > 30 {
		return 0, fmt.Errorf("dirnode: implausible ΣH_j = %d", sum)
	}
	count := 1 << uint(sum)
	if HeaderSize(d)+count*EntrySize(d) > len(buf) {
		return 0, fmt.Errorf("dirnode: %d entries overflow %d-byte page", count, len(buf))
	}
	return count, nil
}

// Decode parses a node image for dimensionality d.
func Decode(buf []byte, d int) (*Node, error) {
	count, err := entryCount(buf, d)
	if err != nil {
		return nil, err
	}
	n := alloc(d, int(buf[0]), count)
	for j := 0; j < d; j++ {
		n.Depths[j] = int(buf[1+j])
	}
	off := HeaderSize(d)
	for i := range n.Entries {
		n.Entries[i] = decodeEntry(buf[off:], d)
		off += EntrySize(d)
	}
	return n, nil
}

// Route reads, straight out of the node image buf, the element that the
// already-shifted key v addresses: the element at the row-major position
// of the tuple (g(v_j, H_j))_j (Theorem 1). It returns the element's
// pointer, whether that points to a directory node, and its local depths.
// The header gets Decode's checks, and every global depth must also
// satisfy H_j ≤ xi[j] (xi[j] ≤ width), so hostile bytes yield an error,
// never a panic or an out-of-range read. Nothing of buf is retained.
func Route(buf []byte, v bitkey.Vector, width int, xi []int) (pagestore.PageID, bool, LocalDepths, error) {
	d := len(v)
	if _, err := entryCount(buf, d); err != nil {
		return pagestore.NilPage, false, LocalDepths{}, err
	}
	q := uint64(0)
	for j := 0; j < d; j++ {
		hj := int(buf[1+j])
		if hj > xi[j] {
			return pagestore.NilPage, false, LocalDepths{}, fmt.Errorf("dirnode: depth H_%d = %d exceeds ξ = %d", j+1, hj, xi[j])
		}
		q = q<<uint(hj) | bitkey.G(v[j], hj, width)
	}
	e := decodeEntry(buf[HeaderSize(d)+int(q)*EntrySize(d):], d)
	return e.Ptr, e.IsNode, e.H, nil
}

// Validate checks node invariants: local depths within global depths, and
// every group of elements sharing a pointer forming a complete aligned
// sub-box of the element grid.
func (n *Node) Validate() error {
	if len(n.Entries) != 1<<uint(n.SumDepths()) {
		return fmt.Errorf("dirnode: %d entries, want 2^%d", len(n.Entries), n.SumDepths())
	}
	for q := range n.Entries {
		e := &n.Entries[q]
		for j := 0; j < n.d; j++ {
			if int(e.H[j]) > n.Depths[j] {
				return fmt.Errorf("dirnode: entry %d local depth h_%d = %d out of range 0..H=%d", q, j+1, e.H[j], n.Depths[j])
			}
		}
		if e.Ptr == pagestore.NilPage {
			continue
		}
		for _, p := range n.Buddies(q) {
			b := &n.Entries[p]
			if b.Ptr != e.Ptr || b.IsNode != e.IsNode {
				return fmt.Errorf("dirnode: entries %d and %d should share pointer %d but differ", q, p, e.Ptr)
			}
			if b.H != e.H {
				return fmt.Errorf("dirnode: buddy entries %d,%d disagree on local depths", q, p)
			}
		}
	}
	return nil
}
