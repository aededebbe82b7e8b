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
	copy(buf[4:4+d], e.H[:d])
	if int(e.M) >= d {
		return fmt.Errorf("dirnode: split dimension %d out of range", e.M)
	}
	buf[4+d] = e.M
	return nil
}

// DecodeEntry parses one directory element from buf.
func DecodeEntry(buf []byte, d int) (Entry, error) {
	if len(buf) < EntrySize(d) {
		return Entry{}, fmt.Errorf("dirnode: entry buffer %d bytes < %d", len(buf), EntrySize(d))
	}
	return decodeEntry(buf, d), nil
}

// decodeEntry parses one directory element from buf, which holds at least
// EntrySize(d) bytes.
func decodeEntry(buf []byte, d int) Entry {
	p := binary.BigEndian.Uint32(buf[0:4])
	e := Entry{Ptr: pagestore.PageID(p &^ nodeFlag), IsNode: p&nodeFlag != 0, M: buf[4+d]}
	copy(e.H[:d], buf[4:4+d])
	return e
}
