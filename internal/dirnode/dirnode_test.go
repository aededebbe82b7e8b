package dirnode

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"bmeh/internal/pagestore"
)

func TestNewNode(t *testing.T) {
	n := New(2, 1)
	if n.Size() != 1 || n.SumDepths() != 0 || n.Level != 1 {
		t.Fatalf("fresh node: size=%d sum=%d level=%d", n.Size(), n.SumDepths(), n.Level)
	}
	if n.Entries[0].M != 1 {
		t.Fatalf("initial split phase M = %d, want d-1 = 1", n.Entries[0].M)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIndexTupleRoundTrip(t *testing.T) {
	n := New(3, 1)
	n.Double(0)
	n.Double(1)
	n.Double(0)
	n.Double(2)
	// Depths (2,1,1): 16 entries.
	if n.Size() != 16 {
		t.Fatalf("size = %d", n.Size())
	}
	for q := 0; q < n.Size(); q++ {
		idx := n.Tuple(q)
		if got := n.Index(idx); got != q {
			t.Fatalf("Index(Tuple(%d)) = %d (tuple %v)", q, got, idx)
		}
	}
}

func TestDoublePrefixSemantics(t *testing.T) {
	n := New(2, 1)
	n.Double(0)
	n.Entries[n.Index([]uint64{0, 0})].Ptr = 10
	n.Entries[n.Index([]uint64{1, 0})].Ptr = 20
	n.Double(0)
	// Old i_0 = 0 covers new 0,1; old 1 covers new 2,3.
	for i, want := range map[uint64]pagestore.PageID{0: 10, 1: 10, 2: 20, 3: 20} {
		if got := n.At([]uint64{i, 0}).Ptr; got != want {
			t.Errorf("cell (%d,0) = %d, want %d", i, got, want)
		}
		_ = want
		_ = i
	}
	n.Double(1)
	if n.At([]uint64{3, 0}).Ptr != 20 || n.At([]uint64{3, 1}).Ptr != 20 {
		t.Error("doubling dim 2 should duplicate across the new bit")
	}
}

func TestBuddies(t *testing.T) {
	n := New(2, 1)
	n.Double(0)
	n.Double(1)
	n.Double(0) // depths (2,1), 8 entries
	// Region with h = (1, 0): all cells with i_0 in {2,3} (prefix 1), any i_1.
	q := n.Index([]uint64{2, 0})
	e := &n.Entries[q]
	e.Ptr = 42
	e.H = LocalDepths{1, 0}
	buddies := n.Buddies(q)
	if len(buddies) != 4 {
		t.Fatalf("region size %d, want 4", len(buddies))
	}
	for _, b := range buddies {
		idx := n.Tuple(b)
		if idx[0]>>1 != 1 {
			t.Errorf("buddy %v outside region", idx)
		}
	}
	// Full-depth region: only itself.
	e.H = LocalDepths{2, 1}
	if got := n.Buddies(q); len(got) != 1 || got[0] != q {
		t.Errorf("full-depth buddies = %v", got)
	}
}

func randomNode(rng *rand.Rand, d int) *Node {
	n := New(d, 1+rng.Intn(3))
	total := 0
	for total < 6 {
		m := rng.Intn(d)
		n.Double(m)
		total++
	}
	// Assign region structure: walk entries, assign aligned regions.
	ptr := pagestore.PageID(100)
	for q := 0; q < n.Size(); q++ {
		if n.Entries[q].Ptr != pagestore.NilPage {
			continue
		}
		// Pick local depths at most the global depths, aligned at q.
		var h LocalDepths
		idx := n.Tuple(q)
		ok := true
		for j := 0; j < d; j++ {
			h[j] = uint8(rng.Intn(n.Depths[j] + 1))
			shift := uint(n.Depths[j] - int(h[j]))
			if idx[j]>>shift<<shift != idx[j] {
				ok = false
			}
		}
		region := func(h LocalDepths) []int {
			var cells []int
			for p := 0; p < n.Size(); p++ {
				pi := n.Tuple(p)
				in := true
				for j := 0; j < d; j++ {
					shift := uint(n.Depths[j] - int(h[j]))
					if pi[j]>>shift != idx[j]>>shift {
						in = false
						break
					}
				}
				if in {
					cells = append(cells, p)
				}
			}
			return cells
		}
		cells := region(h)
		for _, p := range cells {
			if !ok || n.Entries[p].Ptr != pagestore.NilPage {
				// Misaligned or overlapping an earlier region: fall back to
				// a singleton region.
				for j := 0; j < d; j++ {
					h[j] = uint8(n.Depths[j])
				}
				cells = region(h)
				break
			}
		}
		isNode := rng.Intn(2) == 0
		m := uint8(rng.Intn(d))
		for _, p := range cells {
			n.Entries[p] = Entry{Ptr: ptr, IsNode: isNode, H: h, M: m}
		}
		ptr++
	}
	return n
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64, dRaw uint8) bool {
		d := int(dRaw%3) + 1
		rng := rand.New(rand.NewSource(seed))
		n := randomNode(rng, d)
		if err := n.Validate(); err != nil {
			return false
		}
		buf := make([]byte, HeaderSize(d)+n.Size()*EntrySize(d))
		w, err := n.Encode(buf)
		if err != nil {
			return false
		}
		if w != len(buf) {
			return false
		}
		m, err := Decode(buf, d)
		if err != nil {
			return false
		}
		if m.Level != n.Level || m.Size() != n.Size() {
			return false
		}
		for q := range n.Entries {
			if n.Entries[q] != m.Entries[q] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEncodeRejectsBadEntries(t *testing.T) {
	n := New(2, 1)
	n.Entries[0].H = LocalDepths{1, 0} // local depth above global depth 0
	buf := make([]byte, 256)
	if _, err := n.Encode(buf); err == nil {
		t.Fatal("Encode accepted h > H")
	}
	n = New(2, 1)
	n.Entries[0].M = 5
	if _, err := n.Encode(buf); err == nil {
		t.Fatal("Encode accepted out-of-range M")
	}
	n = New(2, 1)
	n.Entries[0].Ptr = pagestore.PageID(1 << 31)
	if _, err := n.Encode(buf); err == nil {
		t.Fatal("Encode accepted overflowing page id")
	}
}

func TestDecodeRejectsCorruptHeader(t *testing.T) {
	buf := make([]byte, 64)
	buf[1], buf[2] = 40, 40 // ΣH = 80: implausible
	if _, err := Decode(buf, 2); err == nil {
		t.Fatal("Decode accepted implausible depths")
	}
	if _, err := Decode([]byte{1}, 2); err == nil {
		t.Fatal("Decode accepted short page")
	}
}

func TestValidateCatchesBrokenRegions(t *testing.T) {
	n := New(2, 1)
	n.Double(0)
	n.Entries[0] = Entry{Ptr: 5}
	n.Entries[1] = Entry{Ptr: 6} // same region, different ptr
	if err := n.Validate(); err == nil {
		t.Fatal("Validate accepted inconsistent region")
	}
}

func TestIORoundTrip(t *testing.T) {
	st := pagestore.NewMemDisk(PageBytes(2, 6))
	io := NewIO(st, 2)
	id, err := io.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	n := randomNode(rand.New(rand.NewSource(4)), 2)
	if err := io.Write(id, n); err != nil {
		t.Fatal(err)
	}
	m, err := io.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != n.Size() || m.Level != n.Level {
		t.Fatalf("round trip mismatch: %d/%d entries", m.Size(), n.Size())
	}
}

func TestEntryCodecStandalone(t *testing.T) {
	e := Entry{Ptr: 12345, IsNode: true, H: LocalDepths{3, 0, 7}, M: 2}
	buf := make([]byte, EntrySize(3))
	if err := EncodeEntry(buf, &e, 3); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEntry(buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestPageBytes(t *testing.T) {
	// φ = 6, d = 2: 3-byte header + 64 × 7-byte entries.
	if got := PageBytes(2, 6); got != 3+64*7 {
		t.Fatalf("PageBytes(2,6) = %d", got)
	}
}

// fullNode returns a valid node of dimensionality 2 with 64 elements.
func fullNode() *Node {
	n := New(2, 2)
	for i := 0; i < 6; i++ {
		n.Double(i % 2)
	}
	for q := range n.Entries {
		n.Entries[q].Ptr = pagestore.PageID(10 + q)
		n.Entries[q].H = LocalDepths{3, 3}
	}
	return n
}

// TestCloneAndDecodeAllocs pins the cost of copying and decoding a node:
// the node (with its depths) and one element array, whatever the node's
// size.
func TestCloneAndDecodeAllocs(t *testing.T) {
	n := fullNode()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageBytes(2, 6))
	if _, err := n.Encode(buf); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { _ = n.Clone() }); a > 2 {
		t.Errorf("Clone of a %d-element node: %.0f allocations, want ≤ 2", n.Size(), a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if _, err := Decode(buf, 2); err != nil {
			t.Fatal(err)
		}
	}); a > 2 {
		t.Errorf("Decode of a %d-element node: %.0f allocations, want ≤ 2", n.Size(), a)
	}
}

// TestCloneIsIndependent mutates every part of a clone and checks that the
// source still encodes to its original image.
func TestCloneIsIndependent(t *testing.T) {
	n := fullNode()
	want := make([]byte, PageBytes(2, 6))
	if _, err := n.Encode(want); err != nil {
		t.Fatal(err)
	}
	c := n.Clone()
	c.Level++
	c.Depths[0]--
	for q := range c.Entries {
		e := &c.Entries[q]
		e.Ptr++
		e.H[0]--
		e.H[1] = 0
		e.IsNode = !e.IsNode
		e.M = 1 - e.M
	}
	c.Double(1)
	got := make([]byte, len(want))
	if _, err := n.Encode(got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("mutating a clone changed the source node")
	}
}

// TestEntryHoldsNoPointer keeps Entry a plain value: an element array must
// stay one allocation the garbage collector never scans, and a node copy
// one slice copy.
func TestEntryHoldsNoPointer(t *testing.T) {
	var walk func(reflect.Type) bool
	walk = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if walk(ty.Field(i).Type) {
					return true
				}
			}
			return false
		case reflect.Array:
			return walk(ty.Elem())
		case reflect.Ptr, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func,
			reflect.Interface, reflect.String, reflect.UnsafePointer:
			return true
		}
		return false
	}
	if ty := reflect.TypeOf(Entry{}); walk(ty) {
		t.Fatalf("%v holds a pointer", ty)
	}
	if s := reflect.TypeOf(Entry{}).Size(); s != 16 {
		t.Errorf("Entry is %d bytes, want 16", s)
	}
}
