package core

import (
	"sync"
	"sync/atomic"

	"bmeh/internal/latch"
	"bmeh/internal/pagestore"
)

// latchTable maps PageIDs to latch objects, creating them on demand. A
// latch's lifetime is the table's lifetime: freed and reallocated ids reuse
// the same latch object, which is harmless (a latch carries no page state)
// and keeps the identity rule simple — one latch per PageID, ever.
//
// PageIDs are small dense integers (stores allocate them sequentially and
// recycle frees), so the table is a slice indexed by id, not a map: the
// lookup that every latch acquisition on every descent pays becomes two
// loads. The slice grows copy-on-write under mu; readers only ever load
// the current array and its slots atomically, so lookups are lock-free.
type latchTable struct {
	mu  sync.Mutex // serializes growth and installs
	arr atomic.Pointer[[]atomic.Pointer[latch.Latch]]
}

func (lt *latchTable) init() {
	s := make([]atomic.Pointer[latch.Latch], 0)
	lt.arr.Store(&s)
}

// of returns the latch for id, creating it if this is the first request.
func (lt *latchTable) of(id pagestore.PageID) *latch.Latch {
	i := int(id)
	s := *lt.arr.Load()
	if i < len(s) {
		if l := s[i].Load(); l != nil {
			return l
		}
	}
	return lt.ofSlow(i)
}

// ofSlow installs a fresh latch for index i, growing the table as needed.
func (lt *latchTable) ofSlow(i int) *latch.Latch {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	s := *lt.arr.Load()
	if i >= len(s) {
		n := len(s) * 2
		if n < i+1 {
			n = i + 1
		}
		if n < 64 {
			n = 64
		}
		grown := make([]atomic.Pointer[latch.Latch], n)
		for j := range s {
			grown[j].Store(s[j].Load())
		}
		lt.arr.Store(&grown)
		s = grown
	}
	if l := s[i].Load(); l != nil { // raced with another slow-path install
		return l
	}
	l := new(latch.Latch)
	s[i].Store(l)
	return l
}

// heldLatch records one latch held by a descent, with enough identity to
// skip re-acquisition and to release selectively.
type heldLatch struct {
	id pagestore.PageID
	l  *latch.Latch
}

// latchSet is the ordered list of exclusive latches a single insert descent
// holds, outermost
// first. It lives inside the pooled descentCtx so steady-state descents do
// not allocate: the held slice is reset to length zero between descents and
// its backing array is reused.
type latchSet struct {
	t    *Tree
	held []heldLatch
}

// holds reports whether the set already holds the latch for id.
func (ls *latchSet) holds(id pagestore.PageID) bool {
	for i := range ls.held {
		if ls.held[i].id == id {
			return true
		}
	}
	return false
}

// lock acquires the latch for id exclusively at the given rank, unless the
// set already holds it, and records the hold.
func (ls *latchSet) lock(id pagestore.PageID, rank int) {
	if ls.holds(id) {
		return
	}
	l := ls.t.latches.of(id)
	l.Lock(rank)
	ls.held = append(ls.held, heldLatch{id: id, l: l})
}

// releaseAllExcept releases every held latch except the one for keep. The
// crab step: once a child is split-safe the whole ancestor path is let go.
func (ls *latchSet) releaseAllExcept(keep pagestore.PageID) {
	kept := ls.held[:0]
	for i := range ls.held {
		h := ls.held[i]
		if h.id == keep {
			kept = append(kept, h)
			continue
		}
		h.l.Unlock()
	}
	ls.held = kept
}

// releaseAll releases every held latch, innermost first.
func (ls *latchSet) releaseAll() {
	for i := len(ls.held) - 1; i >= 0; i-- {
		ls.held[i].l.Unlock()
	}
	ls.held = ls.held[:0]
}
