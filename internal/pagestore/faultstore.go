package pagestore

import (
	"errors"
	"sync"
)

// ErrInjected is the error produced by a FaultStore when its countdown
// expires.
var ErrInjected = errors.New("pagestore: injected fault")

// FaultMode selects what a FaultStore does when its countdown expires.
type FaultMode int

const (
	// FaultError fails the operation cleanly (default).
	FaultError FaultMode = iota
	// FaultTorn applies to the faulting Write only: the page is written
	// with its second half corrupted — modeling a torn page handed up by
	// a buggy device or transport — and the operation still reports
	// ErrInjected. Non-write operations fall back to FaultError.
	FaultTorn
)

// FaultStore wraps a Store and fails an operation after a configurable
// number of successful accesses. The test suite uses it to verify that
// index implementations surface storage errors instead of panicking or
// corrupting their in-memory state.
//
// Faults can be aimed: TargetKinds restricts both the countdown and the
// failure to operations touching pages of the given kinds, so a test can
// fault directory traffic while data-page traffic flows untouched (or
// vice versa). Torn mode additionally garbles the failing write's payload
// instead of suppressing it.
type FaultStore struct {
	mu      sync.Mutex
	inner   Store
	left    int64 // remaining successful operations; < 0 disarms
	mode    FaultMode
	targets map[Kind]bool // nil or empty: every kind counts
}

// NewFaultStore wraps inner; the store fails after `after` successful
// operations (Alloc/Free/Read/Write each count as one).
func NewFaultStore(inner Store, after int64) *FaultStore {
	return &FaultStore{inner: inner, left: after}
}

// Arm resets the countdown (mode FaultError).
func (f *FaultStore) Arm(after int64) { f.ArmMode(after, FaultError) }

// ArmMode resets the countdown with an explicit fault mode.
func (f *FaultStore) ArmMode(after int64, mode FaultMode) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.left = after
	f.mode = mode
}

// Disarm stops injecting faults.
func (f *FaultStore) Disarm() { f.Arm(-1) }

// TargetKinds restricts fault injection to operations on pages of the
// given kinds. With no arguments, every operation is eligible again.
func (f *FaultStore) TargetKinds(kinds ...Kind) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(kinds) == 0 {
		f.targets = nil
		return
	}
	f.targets = make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		f.targets[k] = true
	}
}

// tick consumes one countdown step for an operation on a page of the
// given kind. It reports whether the fault fires and in which mode;
// untargeted kinds neither consume the countdown nor fault.
func (f *FaultStore) tick(kind Kind) (bool, FaultMode) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.left < 0 {
		return false, FaultError
	}
	if f.targets != nil && !f.targets[kind] {
		return false, FaultError
	}
	if f.left == 0 {
		return true, f.mode
	}
	f.left--
	return false, FaultError
}

// kindOf looks up a page's kind for targeting, defaulting to KindFree on
// lookup failure (the operation itself will surface the real error).
func (f *FaultStore) kindOf(id PageID) Kind {
	k, err := f.inner.KindOf(id)
	if err != nil {
		return KindFree
	}
	return k
}

// PageSize implements Store.
func (f *FaultStore) PageSize() int { return f.inner.PageSize() }

// Alloc implements Store.
func (f *FaultStore) Alloc(kind Kind) (PageID, error) {
	if fire, _ := f.tick(kind); fire {
		return NilPage, ErrInjected
	}
	return f.inner.Alloc(kind)
}

// Free implements Store.
func (f *FaultStore) Free(id PageID) error {
	if fire, _ := f.tick(f.kindOf(id)); fire {
		return ErrInjected
	}
	return f.inner.Free(id)
}

// Read implements Store.
func (f *FaultStore) Read(id PageID, buf []byte) error {
	if fire, _ := f.tick(f.kindOf(id)); fire {
		return ErrInjected
	}
	return f.inner.Read(id, buf)
}

// ReadSlice implements SliceReader, so fault injection covers the
// zero-copy read path: the countdown ticks exactly as for Read, and the
// slice comes from the inner store's own SliceReader when it has one (a
// plain Read into buf otherwise, keeping the wrapper usable over any
// Store). Slice-lifetime rules are the inner store's.
func (f *FaultStore) ReadSlice(id PageID, buf []byte) ([]byte, error) {
	if fire, _ := f.tick(f.kindOf(id)); fire {
		return nil, ErrInjected
	}
	if sr, ok := f.inner.(SliceReader); ok {
		return sr.ReadSlice(id, buf)
	}
	if err := f.inner.Read(id, buf); err != nil {
		return nil, err
	}
	return buf[:f.inner.PageSize()], nil
}

// AccountRead implements ReadAccounter: a logical read consumes the
// countdown and can fault exactly like a physical one, so decoded-cache
// hits stay inside the fault-injection envelope.
func (f *FaultStore) AccountRead(id PageID) error {
	if fire, _ := f.tick(f.kindOf(id)); fire {
		return ErrInjected
	}
	if ra, ok := f.inner.(ReadAccounter); ok {
		return ra.AccountRead(id)
	}
	return nil
}

// Write implements Store.
func (f *FaultStore) Write(id PageID, data []byte) error {
	fire, mode := f.tick(f.kindOf(id))
	if fire {
		if mode == FaultTorn {
			torn := append([]byte(nil), data...)
			for i := len(torn) / 2; i < len(torn); i++ {
				torn[i] ^= 0xA5
			}
			f.inner.Write(id, torn) // best effort: the damage is the point
		}
		return ErrInjected
	}
	return f.inner.Write(id, data)
}

// KindOf implements Store.
func (f *FaultStore) KindOf(id PageID) (Kind, error) { return f.inner.KindOf(id) }

// Stats implements Store.
func (f *FaultStore) Stats() Stats { return f.inner.Stats() }

// ResetStats implements Store.
func (f *FaultStore) ResetStats() { f.inner.ResetStats() }

// Allocated implements Store.
func (f *FaultStore) Allocated() map[Kind]int { return f.inner.Allocated() }

// Close implements Store.
func (f *FaultStore) Close() error { return f.inner.Close() }
