package dirnode

import (
	"encoding/binary"
	"fmt"

	"bmeh/internal/pagestore"
)

// EncodeEntry writes one directory element into buf (EntrySize(d) bytes).
// It is used both by Node.Encode and by the flat MDEH directory, whose
// pages are packed arrays of elements with no node header.
func EncodeEntry(buf []byte, e *Entry, d int) error {
	if len(buf) < EntrySize(d) {
		return fmt.Errorf("dirnode: entry buffer %d bytes < %d", len(buf), EntrySize(d))
	}
	p := uint32(e.Ptr)
	if p&nodeFlag != 0 {
		return fmt.Errorf("dirnode: page id %d overflows pointer encoding", e.Ptr)
	}
	if e.IsNode {
		p |= nodeFlag
	}
	binary.BigEndian.PutUint32(buf[0:4], p)
	if len(e.H) != d {
		return fmt.Errorf("dirnode: entry has %d local depths, want %d", len(e.H), d)
	}
	for j := 0; j < d; j++ {
		if e.H[j] < 0 || e.H[j] > 255 {
			return fmt.Errorf("dirnode: local depth h_%d = %d out of range", j+1, e.H[j])
		}
		buf[4+j] = byte(e.H[j])
	}
	if e.M < 0 || e.M >= d {
		return fmt.Errorf("dirnode: split dimension %d out of range", e.M)
	}
	buf[4+d] = byte(e.M)
	return nil
}

// DecodeEntry parses one directory element from buf.
func DecodeEntry(buf []byte, d int) (Entry, error) {
	if len(buf) < EntrySize(d) {
		return Entry{}, fmt.Errorf("dirnode: entry buffer %d bytes < %d", len(buf), EntrySize(d))
	}
	e := Entry{H: make([]int, d), M: int(buf[4+d])}
	e.Ptr, e.IsNode = decodePtr(buf)
	for j := 0; j < d; j++ {
		e.H[j] = int(buf[4+j])
	}
	return e, nil
}

// decodePtr parses the pointer field at the start of an encoded element:
// the page id and whether it refers to a directory node.
func decodePtr(buf []byte) (pagestore.PageID, bool) {
	p := binary.BigEndian.Uint32(buf[0:4])
	return pagestore.PageID(p &^ nodeFlag), p&nodeFlag != 0
}
