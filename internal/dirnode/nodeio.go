package dirnode

import (
	"fmt"
	"sync"

	"bmeh/internal/bitkey"
	"bmeh/internal/pagestore"
)

// IO reads and writes directory nodes through a page store. Scratch
// buffers come from an internal pool, so any number of concurrent readers
// may share one IO (writers are serialized by the owning index).
//
// Over a store that serves zero-copy slices (pagestore.SliceReader — a
// file store with a read view), Read decodes straight out of the store's
// memory with no page copy; Decode copies every entry out of the raw
// bytes, and Route copies out the one element it reads, so nothing
// retains or writes the slice past the call.
type IO struct {
	st  pagestore.Store
	sr  pagestore.SliceReader // non-nil: the zero-copy read path
	d   int
	buf sync.Pool
}

// NewIO returns a node reader/writer for dimensionality d over st.
func NewIO(st pagestore.Store, d int) *IO {
	io := &IO{st: st, d: d}
	if sr, ok := st.(pagestore.SliceReader); ok {
		io.sr = sr
	}
	io.buf.New = func() interface{} { b := make([]byte, st.PageSize()); return &b }
	return io
}

// Read fetches and decodes the node stored in page id (one disk read).
func (io *IO) Read(id pagestore.PageID) (*Node, error) {
	bp := io.buf.Get().(*[]byte)
	defer io.buf.Put(bp)
	page, err := io.page(id, *bp)
	if err != nil {
		return nil, err
	}
	n, err := Decode(page, io.d)
	if err != nil {
		return nil, fmt.Errorf("dirnode: decoding node page %d: %w", id, err)
	}
	return n, nil
}

// Route fetches the node stored in page id (one disk read) and runs Route
// on its image for the shifted key v: the element is read in place, out
// of the store's memory or the pooled copy, so a successful call
// allocates nothing.
func (io *IO) Route(id pagestore.PageID, v bitkey.Vector, width int, xi []int) (pagestore.PageID, bool, LocalDepths, error) {
	bp := io.buf.Get().(*[]byte)
	defer io.buf.Put(bp)
	page, err := io.page(id, *bp)
	if err != nil {
		return pagestore.NilPage, false, LocalDepths{}, err
	}
	ptr, isNode, h, err := Route(page, v, width, xi)
	if err != nil {
		return pagestore.NilPage, false, h, fmt.Errorf("dirnode: routing through node page %d: %w", id, err)
	}
	return ptr, isNode, h, nil
}

// page reads page id: the store's zero-copy window onto it, or buf (one
// page) holding a copy.
func (io *IO) page(id pagestore.PageID, buf []byte) ([]byte, error) {
	var err error
	if io.sr != nil {
		buf, err = io.sr.ReadSlice(id, buf)
	} else {
		err = io.st.Read(id, buf)
	}
	if err != nil {
		return nil, fmt.Errorf("dirnode: reading node page %d: %w", id, err)
	}
	return buf, nil
}

// Write encodes and stores the node into page id (one disk write).
func (io *IO) Write(id pagestore.PageID, n *Node) error {
	bp := io.buf.Get().(*[]byte)
	defer io.buf.Put(bp)
	w, err := n.Encode(*bp)
	if err != nil {
		return fmt.Errorf("dirnode: encoding node page %d: %w", id, err)
	}
	if err := io.st.Write(id, (*bp)[:w]); err != nil {
		return fmt.Errorf("dirnode: writing node page %d: %w", id, err)
	}
	return nil
}

// Alloc allocates a fresh directory page.
func (io *IO) Alloc() (pagestore.PageID, error) {
	return io.st.Alloc(pagestore.KindDirectory)
}

// Free releases a directory page.
func (io *IO) Free(id pagestore.PageID) error { return io.st.Free(id) }
