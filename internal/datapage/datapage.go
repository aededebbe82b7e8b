// Package datapage defines the byte layout and in-memory manipulation of
// level-0 data pages. A data page stores up to b records; a record is a
// d-dimensional pseudo-key (w-bit components) plus a 64-bit payload (a row
// id or value). Records inside a page are kept sorted by key, which makes
// page images deterministic and duplicate detection a binary search.
//
// Lookup is the read-only view over that layout: the same binary search,
// run over the records in place in a page image, with no decode and no
// allocation. Everything else works on the decoded Page.
//
// Layout (big endian):
//
//	offset 0: count  uint16
//	then count records of (d × 8 bytes key components, 8 bytes value)
package datapage

import (
	"encoding/binary"
	"fmt"

	"bmeh/internal/bitkey"
)

// Record is one stored record.
type Record struct {
	Key   bitkey.Vector
	Value uint64
}

// recordSize returns the encoded size of one record for dimensionality d.
func recordSize(d int) int { return d*8 + 8 }

// Size returns the page bytes needed for capacity records of dimensionality d.
func Size(d, capacity int) int { return 2 + capacity*recordSize(d) }

// Page is the decoded form of a data page.
type Page struct {
	d    int
	recs []Record
}

// New returns an empty decoded page for dimensionality d.
func New(d int) *Page { return &Page{d: d} }

// recordCount checks the header of a page image for dimensionality d —
// the page holds the count, and all the records it counts — and returns
// the record count.
func recordCount(buf []byte, d int) (int, error) {
	if len(buf) < 2 {
		return 0, fmt.Errorf("datapage: short page (%d bytes)", len(buf))
	}
	n := int(binary.BigEndian.Uint16(buf[0:2]))
	if 2+n*recordSize(d) > len(buf) {
		return 0, fmt.Errorf("datapage: count %d overflows %d-byte page", n, len(buf))
	}
	return n, nil
}

// Decode parses a page image. The records slice is freshly allocated.
func Decode(buf []byte, d int) (*Page, error) {
	n, err := recordCount(buf, d)
	if err != nil {
		return nil, err
	}
	p := &Page{d: d, recs: make([]Record, n)}
	off := 2
	for i := 0; i < n; i++ {
		key := make(bitkey.Vector, d)
		for j := 0; j < d; j++ {
			key[j] = bitkey.Component(binary.BigEndian.Uint64(buf[off:]))
			off += 8
		}
		p.recs[i] = Record{Key: key, Value: binary.BigEndian.Uint64(buf[off:])}
		off += 8
	}
	return p, nil
}

// Lookup returns the value stored under key in the page image buf, by the
// binary search Find runs, over the records in place. The dimensionality
// is len(key). The image gets Decode's checks (a short page, a count that
// overflows it), so hostile bytes yield an error, never a panic or an
// out-of-range read. Nothing of buf is retained.
func Lookup(buf []byte, key bitkey.Vector) (uint64, bool, error) {
	n, err := recordCount(buf, len(key))
	if err != nil {
		return 0, false, err
	}
	rs := recordSize(len(key))
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		rec := buf[2+mid*rs : 2+(mid+1)*rs]
		switch compareAt(rec, key) {
		case -1:
			lo = mid + 1
		case 0:
			return binary.BigEndian.Uint64(rec[len(key)*8:]), true, nil
		default:
			hi = mid
		}
	}
	return 0, false, nil
}

// compareAt is Vector.Compare of the encoded key at the start of rec
// against key.
func compareAt(rec []byte, key bitkey.Vector) int {
	for j, c := range key {
		if x := bitkey.Component(binary.BigEndian.Uint64(rec[j*8:])); x != c {
			if x < c {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Encode writes the page image into buf, which must be at least
// Size(d, len(records)) bytes. It returns the number of bytes written.
func (p *Page) Encode(buf []byte) (int, error) {
	need := Size(p.d, len(p.recs))
	if len(buf) < need {
		return 0, fmt.Errorf("datapage: buffer %d bytes < needed %d", len(buf), need)
	}
	binary.BigEndian.PutUint16(buf[0:2], uint16(len(p.recs)))
	off := 2
	for _, r := range p.recs {
		if len(r.Key) != p.d {
			return 0, fmt.Errorf("datapage: record key dimensionality %d != %d", len(r.Key), p.d)
		}
		for j := 0; j < p.d; j++ {
			binary.BigEndian.PutUint64(buf[off:], uint64(r.Key[j]))
			off += 8
		}
		binary.BigEndian.PutUint64(buf[off:], r.Value)
		off += 8
	}
	return off, nil
}

// Clone returns a copy of p with its own record slice. Key vectors are
// shared: no Page operation mutates a key in place (records are only
// inserted, removed, or moved between pages), so a shallow copy is enough
// for copy-on-write callers.
func (p *Page) Clone() *Page {
	return &Page{d: p.d, recs: append([]Record(nil), p.recs...)}
}

// Len returns the number of records in the page.
func (p *Page) Len() int { return len(p.recs) }

// Records returns the page's records (shared slice; do not mutate).
func (p *Page) Records() []Record { return p.recs }

// Find returns the index of key and whether it is present. The search is
// hand-rolled three-way binary search: it sits on the per-insert hot path,
// where sort.Search's closure calls and its extra equality probe at the
// end are measurable.
func (p *Page) Find(key bitkey.Vector) (int, bool) {
	lo, hi := 0, len(p.recs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch p.recs[mid].Key.Compare(key) {
		case -1:
			lo = mid + 1
		case 0:
			return mid, true
		default:
			hi = mid
		}
	}
	return lo, false
}

// Get returns the value stored under key.
func (p *Page) Get(key bitkey.Vector) (uint64, bool) {
	if i, ok := p.Find(key); ok {
		return p.recs[i].Value, true
	}
	return 0, false
}

// Insert adds a record in sorted position. It returns false if the key is
// already present (no change). Capacity is not enforced here; callers check
// Len() against b and split first.
func (p *Page) Insert(r Record) bool {
	i, ok := p.Find(r.Key)
	if ok {
		return false
	}
	p.InsertAt(i, r)
	return true
}

// InsertAt inserts r at position i, which the caller obtained from a Find
// that reported the key absent. It skips Insert's own search, for callers
// that already probed the page; the records stay sorted only if i is that
// insertion point.
func (p *Page) InsertAt(i int, r Record) {
	p.recs = append(p.recs, Record{})
	copy(p.recs[i+1:], p.recs[i:])
	p.recs[i] = r
}

// Set overwrites the value of an existing key, or inserts it. It reports
// whether the key was newly inserted.
func (p *Page) Set(r Record) bool {
	if i, ok := p.Find(r.Key); ok {
		p.recs[i].Value = r.Value
		return false
	}
	return p.Insert(r)
}

// Delete removes key and reports whether it was present.
func (p *Page) Delete(key bitkey.Vector) bool {
	i, ok := p.Find(key)
	if !ok {
		return false
	}
	p.recs = append(p.recs[:i], p.recs[i+1:]...)
	return true
}

// PartitionByBit splits the page's records by bit number bitPos (1-based
// from the most significant of width) of key component dim (0-based):
// records with the bit 0 stay in p, records with the bit 1 move to the
// returned page. This is the page-splitting step of every scheme: bitPos is
// the new local depth of dimension dim, counted in the page's own (possibly
// shifted) coordinate frame.
func (p *Page) PartitionByBit(dim, bitPos, width int) *Page {
	ones := &Page{d: p.d}
	zeros := p.recs[:0]
	for _, r := range p.recs {
		if bitkey.Bit(r.Key[dim], bitPos, width) == 1 {
			ones.recs = append(ones.recs, r)
		} else {
			zeros = append(zeros, r)
		}
	}
	p.recs = zeros
	return ones
}

// Merge moves all records of q into p (used by deletion's page merging).
// Records are assumed disjoint; duplicates are rejected with an error.
func (p *Page) Merge(q *Page) error {
	for _, r := range q.recs {
		if !p.Insert(r) {
			return fmt.Errorf("datapage: merge found duplicate key %v", r.Key)
		}
	}
	q.recs = nil
	return nil
}

// SortCheck verifies the sorted-and-unique invariant; used by tests and the
// integrity checker.
func (p *Page) SortCheck() error {
	for i := 1; i < len(p.recs); i++ {
		if !p.recs[i-1].Key.Less(p.recs[i].Key) {
			return fmt.Errorf("datapage: records %d,%d out of order", i-1, i)
		}
	}
	return nil
}
