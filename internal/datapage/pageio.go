package datapage

import (
	"fmt"
	"sync"

	"bmeh/internal/bitkey"
	"bmeh/internal/pagestore"
)

// IO reads and writes data pages through a page store. Scratch buffers
// come from an internal pool, so any number of concurrent readers may
// share one IO (writers are serialized by the owning index).
//
// Over a store that serves zero-copy slices (pagestore.SliceReader — a
// file store with a read view), Read decodes straight out of the store's
// memory with no page copy. That is safe because Decode fully copies
// every record out of the raw bytes, Lookup copies out the one value it
// finds, and the owning index never commits (rewriting mapped slots)
// while a reader is reading.
type IO struct {
	st  pagestore.Store
	sr  pagestore.SliceReader // non-nil: the zero-copy read path
	d   int
	buf sync.Pool
}

// NewIO returns a data-page reader/writer for dimensionality d over st.
func NewIO(st pagestore.Store, d int) *IO {
	io := &IO{st: st, d: d}
	if sr, ok := st.(pagestore.SliceReader); ok {
		io.sr = sr
	}
	io.buf.New = func() interface{} { b := make([]byte, st.PageSize()); return &b }
	return io
}

// Read fetches and decodes the data page stored in page id (one disk read).
func (io *IO) Read(id pagestore.PageID) (*Page, error) {
	bp := io.buf.Get().(*[]byte)
	defer io.buf.Put(bp)
	page, err := io.page(id, *bp)
	if err != nil {
		return nil, err
	}
	p, err := Decode(page, io.d)
	if err != nil {
		return nil, fmt.Errorf("datapage: decoding page %d: %w", id, err)
	}
	return p, nil
}

// Lookup fetches the data page stored in page id (one disk read) and runs
// Lookup on its image: the records are searched in place, in the store's
// memory or the pooled copy, so a successful call allocates nothing.
func (io *IO) Lookup(id pagestore.PageID, key bitkey.Vector) (uint64, bool, error) {
	bp := io.buf.Get().(*[]byte)
	defer io.buf.Put(bp)
	page, err := io.page(id, *bp)
	if err != nil {
		return 0, false, err
	}
	v, ok, err := Lookup(page, key)
	if err != nil {
		return 0, false, fmt.Errorf("datapage: searching page %d: %w", id, err)
	}
	return v, ok, nil
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
		return nil, fmt.Errorf("datapage: reading page %d: %w", id, err)
	}
	return buf, nil
}

// Write encodes and stores the page into page id (one disk write).
func (io *IO) Write(id pagestore.PageID, p *Page) error {
	bp := io.buf.Get().(*[]byte)
	defer io.buf.Put(bp)
	w, err := p.Encode(*bp)
	if err != nil {
		return fmt.Errorf("datapage: encoding page %d: %w", id, err)
	}
	if err := io.st.Write(id, (*bp)[:w]); err != nil {
		return fmt.Errorf("datapage: writing page %d: %w", id, err)
	}
	return nil
}

// Alloc allocates a fresh data page.
func (io *IO) Alloc() (pagestore.PageID, error) {
	return io.st.Alloc(pagestore.KindData)
}

// Free releases a data page.
func (io *IO) Free(id pagestore.PageID) error { return io.st.Free(id) }
