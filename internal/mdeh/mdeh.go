// Package mdeh implements multidimensional extendible hashing with a
// one-level directory (paper §2.2; Otoo, VLDB 1984) — the first baseline of
// the PODS 1986 evaluation.
//
// The directory is a d-dimensional extendible array of exponential varying
// order holding 2^{ΣH_j} elements, stored on disk across fixed-size
// directory pages in 𝒢-linear order (package extarray). Every element
// carries a page pointer, d local depths h_j and the cyclic split dimension
// m. Exact-match search costs exactly two page reads: one directory page
// (located arithmetically via 𝒢) and one data page.
//
// The directory's weakness — the reason the BMEH-tree exists — is fully
// reproduced: doubling along a dimension rewrites the whole directory, and
// allocating a page for a previously empty (nil) region resets the pointer
// in all 2^{Σ(H_j−h_j)} elements of the region, which under skewed key
// distributions makes the average insertion cost explode (Table 3, b = 8).
package mdeh

import (
	"errors"
	"fmt"

	"bmeh/internal/bitkey"
	"bmeh/internal/datapage"
	"bmeh/internal/dirnode"
	"bmeh/internal/extarray"
	"bmeh/internal/pagestore"
	"bmeh/internal/params"
)

// ErrDuplicate is returned when inserting a key that is already present.
var ErrDuplicate = errors.New("mdeh: duplicate key")

// MaxDirectoryElements caps the flat directory. The one-level directory
// degenerates on clustered keys — keys agreeing on long prefixes force a
// doubling per extra bit of discrimination, so a handful of near-duplicate
// keys can demand 2^60 elements (the §3 pathology that motivates the
// BMEH-tree). Past this cap Insert fails with ErrDirectoryOverflow instead
// of exhausting memory. 2^22 elements is 8× the largest directory in the
// paper's experiments (Table 3, b = 8: 524,288).
const MaxDirectoryElements = 1 << 22

// ErrDirectoryOverflow is returned when an insertion would grow the flat
// directory beyond MaxDirectoryElements. The data is too clustered for a
// one-level directory; use the BMEH-tree.
var ErrDirectoryOverflow = errors.New("mdeh: directory overflow: keys too clustered for a one-level directory (use the BMEH-tree)")

// PageBytes returns the page size required by the configuration: the larger
// of a data page (b records) and a directory page (2^φ elements).
func PageBytes(p params.Params) int {
	db := datapage.Size(p.Dims, p.Capacity)
	eb := p.NodeEntries() * dirnode.EntrySize(p.Dims)
	if eb > db {
		return eb
	}
	return db
}

// Table is a one-level-directory multidimensional extendible hash table.
type Table struct {
	st     pagestore.Store
	prm    params.Params
	pages  *datapage.IO
	caps   []int // extendibility cap per dimension = key width
	depths []int // global depths H_j
	dir    dirFile
	n      int
	// tableChain holds the pages of the persisted page-table snapshot
	// (SaveMeta); empty until the first save.
	tableChain []pagestore.PageID
}

// New creates an empty table over st.
func New(st pagestore.Store, prm params.Params) (*Table, error) {
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	if st.PageSize() < PageBytes(prm) {
		return nil, fmt.Errorf("mdeh: page size %d < required %d", st.PageSize(), PageBytes(prm))
	}
	t := &Table{
		st:     st,
		prm:    prm,
		pages:  datapage.NewIO(st, prm.Dims),
		caps:   make([]int, prm.Dims),
		depths: make([]int, prm.Dims),
	}
	for j := range t.caps {
		t.caps[j] = prm.Width
	}
	t.dir = dirFile{
		st:      st,
		d:       prm.Dims,
		perPage: prm.NodeEntries(),
	}
	t.dir.buf.New = func() interface{} { b := make([]byte, st.PageSize()); return &b }
	if err := t.dir.ensure(1); err != nil {
		return nil, err
	}
	// Initialize the single element as an empty region of depth 0.
	op := t.dir.begin()
	e, err := op.get(0)
	if err != nil {
		return nil, err
	}
	*e = dirnode.Entry{Ptr: pagestore.NilPage, M: uint8(prm.Dims - 1)}
	op.markDirty(0)
	return t, op.flush()
}

// Len returns the number of stored keys.
func (t *Table) Len() int { return t.n }

// Depths returns a copy of the global depths H_j.
func (t *Table) Depths() []int { return append([]int(nil), t.depths...) }

// DirectoryElements returns σ: the number of directory elements, 2^{ΣH_j}.
func (t *Table) DirectoryElements() int { return int(t.dir.size) }

// DirectoryPages returns the number of disk pages the directory occupies,
// including the pages of the persisted page-table snapshot.
func (t *Table) DirectoryPages() int { return len(t.dir.pages) + len(t.tableChain) }

// Levels returns the number of directory levels (always 1; the common
// Index metric across schemes).
func (t *Table) Levels() int { return 1 }

// Params returns the table's configuration.
func (t *Table) Params() params.Params { return t.prm }

// UsePaperCostModel switches disk-access accounting for the directory to
// the paper's model: one access per directory *element* touched, rather
// than per directory page. The 1986 analysis treats the flat directory as
// a disk-resident array (§3: splitting resets O(M/(b+1)) pointers and
// costs that many directory accesses), which is what makes Table 3's
// insertion cost explode. Physical page I/O is unchanged; only the store's
// statistics gain the difference. The store must support synthetic
// accounting (pagestore.MemDisk does).
func (t *Table) UsePaperCostModel() error {
	a, ok := t.st.(interface{ Account(reads, writes uint64) })
	if !ok {
		return fmt.Errorf("mdeh: store %T does not support synthetic accounting", t.st)
	}
	t.dir.acct = a.Account
	return nil
}

// addrOf returns the directory address of key k and its tuple index.
func (t *Table) addrOf(k bitkey.Vector) (uint64, []uint64) {
	idx := make([]uint64, t.prm.Dims)
	for j := range idx {
		idx[j] = bitkey.G(k[j], t.depths[j], t.prm.Width)
	}
	return extarray.AddressCapped(idx, t.caps), idx
}

// Search looks up key k: one directory page read plus one data page read.
func (t *Table) Search(k bitkey.Vector) (uint64, bool, error) {
	if err := t.checkKey(k); err != nil {
		return 0, false, err
	}
	q, _ := t.addrOf(k)
	op := t.dir.begin()
	e, err := op.get(q)
	if err != nil {
		return 0, false, err
	}
	if e.Ptr == pagestore.NilPage {
		return 0, false, nil
	}
	p, err := t.pages.Read(e.Ptr)
	if err != nil {
		return 0, false, err
	}
	v, ok := p.Get(k)
	return v, ok, nil
}

// Insert stores (k, v); ErrDuplicate if k is already present.
func (t *Table) Insert(k bitkey.Vector, v uint64) error {
	if err := t.checkKey(k); err != nil {
		return err
	}
	for {
		op := t.dir.begin()
		q, idx := t.addrOf(k)
		e, err := op.get(q)
		if err != nil {
			return err
		}
		if e.Ptr == pagestore.NilPage {
			// Allocate a page for the whole nil region and reset the
			// pointer in every element sharing the region's file depths
			// (the expensive path of the paper's insertion algorithm).
			id, err := t.pages.Alloc()
			if err != nil {
				return err
			}
			p := datapage.New(t.prm.Dims)
			p.Insert(datapage.Record{Key: k.Clone(), Value: v})
			if err := t.pages.Write(id, p); err != nil {
				return err
			}
			err = t.forRegion(op, idx, e.H, func(ent *dirnode.Entry) {
				ent.Ptr = id
				ent.IsNode = false
			})
			if err != nil {
				return err
			}
			t.n++
			return op.flush()
		}
		p, err := t.pages.Read(e.Ptr)
		if err != nil {
			return err
		}
		if _, dup := p.Get(k); dup {
			return ErrDuplicate
		}
		if p.Len() < t.prm.Capacity {
			p.Insert(datapage.Record{Key: k.Clone(), Value: v})
			if err := t.pages.Write(e.Ptr, p); err != nil {
				return err
			}
			t.n++
			return op.flush()
		}
		// Split once, then retry the whole insertion (the paper's algorithm
		// likewise re-enters after restructuring). When the split doubled
		// the directory, split already flushed the op; otherwise the dirty
		// directory pages are flushed here.
		if _, err := t.split(op, q, idx, p); err != nil {
			return err
		}
		if err := op.flush(); err != nil {
			return err
		}
	}
}

// split performs one page split for the full page under element q.
// The caller retries the insert afterwards. Returns whether the directory
// was doubled (the op cache was flushed and must be rebuilt).
func (t *Table) split(op *dirOp, q uint64, idx []uint64, p *datapage.Page) (bool, error) {
	e, err := op.get(q)
	if err != nil {
		return false, err
	}
	m, ok := t.nextSplitDim(e)
	if !ok {
		return false, fmt.Errorf("mdeh: cannot split page: all %d dimensions exhausted at width %d", t.prm.Dims, t.prm.Width)
	}
	newh := int(e.H[m]) + 1
	if newh > t.depths[m] {
		// Doubling rewrites every directory page: flush the op first, then
		// let the caller restart the insertion against the deeper
		// directory (the paper's algorithm likewise re-enters after
		// restructuring).
		if err := op.flush(); err != nil {
			return false, err
		}
		if err := t.doubleDir(m); err != nil {
			return false, err
		}
		return true, nil
	}
	oldPtr, oldH := e.Ptr, e.H
	// Partition records by the new bit of dimension m into fresh
	// copy-on-write pages; the old page is freed only after the directory
	// update has been flushed, so a storage fault cannot lose records.
	ones := p.PartitionByBit(m, newh, t.prm.Width)
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
	zeroPtr, err := writeHalf(p)
	if err != nil {
		return false, err
	}
	onePtr, err := writeHalf(ones)
	if err != nil {
		return false, err
	}
	// Update the region's elements: the half with bit newh of dimension m
	// equal to 0 points to zeroPtr, the other half to onePtr; all get local
	// depth newh in dimension m and split dimension m.
	shift := uint(t.depths[m] - newh)
	err = t.forRegion(op, idx, oldH, func(ent *dirnode.Entry) {
		ent.H[m] = uint8(newh)
		ent.M = uint8(m)
	})
	if err != nil {
		return false, err
	}
	err = t.forRegionEach(op, idx, oldH, func(tuple []uint64, ent *dirnode.Entry) {
		if (tuple[m]>>shift)&1 == 0 {
			ent.Ptr = zeroPtr
		} else {
			ent.Ptr = onePtr
		}
		ent.IsNode = false
	})
	if err != nil {
		return false, err
	}
	if err := op.flush(); err != nil {
		return false, err
	}
	return false, t.pages.Free(oldPtr)
}

// nextSplitDim returns the next dimension to split for element e: cyclic
// from e.M, skipping dimensions whose local depth has reached the key
// width.
func (t *Table) nextSplitDim(e *dirnode.Entry) (int, bool) {
	d := t.prm.Dims
	for step := 1; step <= d; step++ {
		m := (int(e.M) + step) % d
		if int(e.H[m]) < t.prm.Width {
			return m, true
		}
	}
	return 0, false
}

// forRegion applies fn to every element of the region containing tuple idx
// at local depths h (the element itself included).
func (t *Table) forRegion(op *dirOp, idx []uint64, h dirnode.LocalDepths, fn func(*dirnode.Entry)) error {
	return t.forRegionEach(op, idx, h, func(_ []uint64, e *dirnode.Entry) { fn(e) })
}

// forRegionEach is forRegion with the element's tuple index supplied.
func (t *Table) forRegionEach(op *dirOp, idx []uint64, h dirnode.LocalDepths, fn func([]uint64, *dirnode.Entry)) error {
	d := t.prm.Dims
	base := make([]uint64, d)
	count := make([]uint64, d)
	for j := 0; j < d; j++ {
		free := uint(t.depths[j] - int(h[j]))
		base[j] = idx[j] >> free << free
		count[j] = uint64(1) << free
	}
	tuple := make([]uint64, d)
	copy(tuple, base)
	for {
		q := extarray.AddressCapped(tuple, t.caps)
		e, err := op.get(q)
		if err != nil {
			return err
		}
		fn(tuple, e)
		op.markDirty(q)
		// Odometer increment.
		j := d - 1
		for ; j >= 0; j-- {
			tuple[j]++
			if tuple[j] < base[j]+count[j] {
				break
			}
			tuple[j] = base[j]
		}
		if j < 0 {
			return nil
		}
	}
}

// doubleDir doubles the directory along dimension m: every element of the
// deeper directory inherits the element whose dimension-m index is its own
// shifted right by one (prefix semantics). The whole directory is read and
// rewritten, and the new half's pages are allocated — the linear-in-size
// cost that motivates the BMEH-tree.
func (t *Table) doubleDir(m int) error {
	if t.dir.size*2 > MaxDirectoryElements {
		return ErrDirectoryOverflow
	}
	if !extarray.CanDouble(t.depths, t.caps, m) {
		return fmt.Errorf("mdeh: doubling dimension %d violates the cyclic schedule (depths %v)", m+1, t.depths)
	}
	oldSize, oldPageCount := t.dir.size, uint64(len(t.dir.pages))
	old, err := t.dir.readAll()
	if err != nil {
		return err
	}
	// Compute the doubled directory (prefix shuffle new[..i_m..] =
	// old[..i_m>>1..]) and write it to freshly allocated pages; the
	// in-memory swap of the page table and depth vector is the commit, so
	// a storage fault mid-doubling leaves the old directory in force.
	newSize := t.dir.size * 2
	entries := make([]dirnode.Entry, newSize)
	for q := uint64(0); q < newSize; q++ {
		tuple := extarray.TupleCapped(q, t.caps)
		tuple[m] >>= 1
		src := extarray.AddressCapped(tuple, t.caps)
		entries[q] = old[src]
	}
	oldPages := t.dir.pages
	oldDepth := t.depths[m]
	t.dir.pages = nil
	t.dir.size = 0
	if err := t.dir.ensure(newSize); err != nil {
		t.dir.pages, t.dir.size = oldPages, oldSize
		return err
	}
	if err := t.dir.writeAll(entries); err != nil {
		freshPages := t.dir.pages
		t.dir.pages, t.dir.size = oldPages, oldSize
		for _, id := range freshPages {
			t.st.Free(id) // best effort; orphans only leak
		}
		return err
	}
	t.depths[m] = oldDepth + 1 // commit
	for _, id := range oldPages {
		if err := t.st.Free(id); err != nil {
			return err
		}
	}
	if t.dir.acct != nil {
		// Paper cost model: the rewrite reads every old element and writes
		// every new element.
		t.dir.acct(oldSize-oldPageCount, newSize-uint64(len(t.dir.pages)))
	}
	return nil
}

// Delete removes key k, returning whether it was present. Empty pages are
// freed immediately (their region becomes nil); buddy regions are merged
// when their pages fit together, and the directory is halved when no
// element needs the full depth of the last-doubled dimension.
func (t *Table) Delete(k bitkey.Vector) (bool, error) {
	if err := t.checkKey(k); err != nil {
		return false, err
	}
	op := t.dir.begin()
	q, idx := t.addrOf(k)
	e, err := op.get(q)
	if err != nil {
		return false, err
	}
	if e.Ptr == pagestore.NilPage {
		return false, nil
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
		if err := t.pages.Free(e.Ptr); err != nil {
			return false, err
		}
		err = t.forRegion(op, idx, e.H, func(ent *dirnode.Entry) { ent.Ptr = pagestore.NilPage })
		if err != nil {
			return false, err
		}
	} else {
		if err := t.pages.Write(e.Ptr, p); err != nil {
			return false, err
		}
		if err := t.tryMerge(op, idx, p); err != nil {
			return false, err
		}
	}
	if err := op.flush(); err != nil {
		return false, err
	}
	return true, t.contract()
}

// tryMerge repeatedly merges the region containing idx with its split
// buddy along the region's last-split dimension while the combined records
// fit in one page.
func (t *Table) tryMerge(op *dirOp, idx []uint64, p *datapage.Page) error {
	for {
		q := extarray.AddressCapped(idx, t.caps)
		e, err := op.get(q)
		if err != nil {
			return err
		}
		m := int(e.M)
		if e.H[m] == 0 {
			return nil
		}
		// Buddy region: flip bit h_m of dimension m.
		buddy := append([]uint64(nil), idx...)
		buddy[m] ^= uint64(1) << uint(t.depths[m]-int(e.H[m]))
		bq := extarray.AddressCapped(buddy, t.caps)
		be, err := op.get(bq)
		if err != nil {
			return err
		}
		if e.H != be.H || be.IsNode {
			return nil
		}
		mergedH := e.H
		mergedH[m]--
		prevM := (m + t.prm.Dims - 1) % t.prm.Dims
		switch {
		case be.Ptr == pagestore.NilPage:
			// Coarsen into the empty buddy region.
			keep := e.Ptr
			err = t.forRegion(op, idx, mergedH, func(ent *dirnode.Entry) {
				*ent = dirnode.Entry{Ptr: keep, H: mergedH, M: uint8(prevM)}
			})
			if err != nil {
				return err
			}
		case be.Ptr == e.Ptr:
			return nil // already shared (shouldn't happen with equal depths)
		default:
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
			keep := e.Ptr
			if err := t.pages.Write(keep, p); err != nil {
				return err
			}
			err = t.forRegion(op, idx, mergedH, func(ent *dirnode.Entry) {
				*ent = dirnode.Entry{Ptr: keep, H: mergedH, M: uint8(prevM)}
			})
			if err != nil {
				return err
			}
		}
		if p.Len() == 0 {
			return nil
		}
	}
}

// contract halves the directory along the last-doubled dimension while no
// element's local depth requires the current global depth.
func (t *Table) contract() error {
	for {
		m, ok := lastDoubled(t.depths, t.caps)
		if !ok {
			return nil
		}
		entries, err := t.dir.readAll()
		if err != nil {
			return err
		}
		for i := range entries {
			if int(entries[i].H[m]) >= t.depths[m] {
				return nil
			}
		}
		// Halve: element u of the shallower directory = element with
		// dimension-m index 2u (its 2u+1 twin is identical).
		t.depths[m]--
		newSize := t.dir.size / 2
		out := make([]dirnode.Entry, newSize)
		for q := uint64(0); q < newSize; q++ {
			tuple := extarray.TupleCapped(q, t.caps)
			tuple[m] <<= 1
			out[q] = entries[extarray.AddressCapped(tuple, t.caps)]
		}
		if err := t.dir.shrinkTo(newSize); err != nil {
			return err
		}
		if err := t.dir.writeAll(out); err != nil {
			return err
		}
	}
}

// Range calls fn for every record whose key lies in the axis-aligned box
// [lo_j, hi_j] for every dimension j, visiting each data page once. fn
// returning false stops the scan. Cost: O(n_R) page accesses where n_R is
// the number of directory cells covering the box.
func (t *Table) Range(lo, hi bitkey.Vector, fn func(k bitkey.Vector, v uint64) bool) error {
	if err := t.checkKey(lo); err != nil {
		return err
	}
	if err := t.checkKey(hi); err != nil {
		return err
	}
	d := t.prm.Dims
	lidx := make([]uint64, d)
	uidx := make([]uint64, d)
	for j := 0; j < d; j++ {
		if hi[j] < lo[j] {
			return nil
		}
		lidx[j] = bitkey.G(lo[j], t.depths[j], t.prm.Width)
		uidx[j] = bitkey.G(hi[j], t.depths[j], t.prm.Width)
	}
	seen := make(map[pagestore.PageID]bool)
	op := t.dir.begin()
	tuple := append([]uint64(nil), lidx...)
	for {
		q := extarray.AddressCapped(tuple, t.caps)
		e, err := op.get(q)
		if err != nil {
			return err
		}
		if e.Ptr != pagestore.NilPage && !seen[e.Ptr] {
			seen[e.Ptr] = true
			p, err := t.pages.Read(e.Ptr)
			if err != nil {
				return err
			}
			for _, r := range p.Records() {
				if inBox(r.Key, lo, hi) {
					if !fn(r.Key, r.Value) {
						return nil
					}
				}
			}
		}
		j := d - 1
		for ; j >= 0; j-- {
			tuple[j]++
			if tuple[j] <= uidx[j] {
				break
			}
			tuple[j] = lidx[j]
		}
		if j < 0 {
			return nil
		}
	}
}

// Validate checks the structural invariants of the whole table: region
// uniformity and that every record lies in the region of its element.
func (t *Table) Validate() error {
	entries, err := t.dir.readAll()
	if err != nil {
		return err
	}
	seenPages := make(map[pagestore.PageID]dirnode.LocalDepths)
	for q := range entries {
		e := &entries[q]
		for j := 0; j < t.prm.Dims; j++ {
			if int(e.H[j]) > t.depths[j] {
				return fmt.Errorf("mdeh: element %d local depth h_%d=%d out of range 0..%d", q, j+1, e.H[j], t.depths[j])
			}
		}
		if e.Ptr == pagestore.NilPage {
			continue
		}
		if prev, ok := seenPages[e.Ptr]; ok && prev != e.H {
			return fmt.Errorf("mdeh: page %d shared by elements with differing local depths", e.Ptr)
		}
		seenPages[e.Ptr] = e.H
		p, err := t.pages.Read(e.Ptr)
		if err != nil {
			return err
		}
		if p.Len() > t.prm.Capacity {
			return fmt.Errorf("mdeh: page %d overfull (%d > %d)", e.Ptr, p.Len(), t.prm.Capacity)
		}
		tuple := extarray.TupleCapped(uint64(q), t.caps)
		for _, r := range p.Records() {
			for j := 0; j < t.prm.Dims; j++ {
				want := tuple[j] >> uint(t.depths[j]-int(e.H[j]))
				got := bitkey.G(r.Key[j], int(e.H[j]), t.prm.Width)
				if got != want {
					return fmt.Errorf("mdeh: record %v misplaced in page %d (dim %d: prefix %d, want %d)", r.Key, e.Ptr, j+1, got, want)
				}
			}
		}
	}
	return nil
}

func (t *Table) checkKey(k bitkey.Vector) error {
	if len(k) != t.prm.Dims {
		return fmt.Errorf("mdeh: key dimensionality %d, want %d", len(k), t.prm.Dims)
	}
	if t.prm.Width < 64 {
		for j, c := range k {
			if uint64(c) >= 1<<uint(t.prm.Width) {
				return fmt.Errorf("mdeh: component %d exceeds %d-bit width", j+1, t.prm.Width)
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

// lastDoubled returns the dimension whose doubling was the schedule's most
// recent event given the current depths: the lexicographic max (t, z) over
// performed events (z, t ≤ depths[z]). Returns false when all depths are 0.
func lastDoubled(depths, caps []int) (int, bool) {
	_ = caps
	best, bt, found := 0, 0, false
	for z := range depths {
		if t := depths[z]; t > 0 && (!found || t > bt || t == bt) {
			best, bt, found = z, t, true
		}
	}
	return best, found
}
