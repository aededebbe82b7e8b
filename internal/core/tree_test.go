package core

import (
	"fmt"
	"testing"

	"bmeh/internal/bitkey"
	"bmeh/internal/pagestore"
	"bmeh/internal/params"
	"bmeh/internal/workload"
)

func newTree(t testing.TB, prm params.Params) (*Tree, *pagestore.MemDisk) {
	t.Helper()
	st := pagestore.NewMemDisk(PageBytes(prm))
	tr, err := New(st, prm)
	if err != nil {
		t.Fatal(err)
	}
	return tr, st
}

// paperKeys is Table 1 of the paper: 22 two-dimensional binary-encoded keys
// (4-bit first component, 3-bit second component).
func paperKeys() []bitkey.Vector {
	lits := [][2]string{
		{"1110", "010"}, {"1011", "101"}, {"0101", "101"}, {"1100", "101"},
		{"0001", "111"}, {"0010", "100"}, {"0100", "010"}, {"0111", "100"},
		{"0001", "001"}, {"0110", "010"}, {"1000", "110"}, {"0111", "001"},
		{"0011", "000"}, {"1100", "000"}, {"1001", "011"}, {"1101", "001"},
		{"0011", "100"}, {"1110", "011"}, {"0111", "011"}, {"0001", "010"},
		{"1001", "001"}, {"0110", "011"},
	}
	keys := make([]bitkey.Vector, len(lits))
	for i, l := range lits {
		keys[i] = bitkey.MustParseVector(32, l[0], l[1])
	}
	return keys
}

// TestPaperExample runs the §4.3 example: ξ1 = ξ2 = 2, page capacity b = 2,
// the 22 keys of Table 1. It validates the structure after every insert and
// checks that all keys remain findable throughout.
func TestPaperExample(t *testing.T) {
	prm := params.Params{Dims: 2, Width: 32, Capacity: 2, Xi: []int{2, 2}}
	tr, _ := newTree(t, prm)
	keys := paperKeys()
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatalf("insert K%d: %v", i+1, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("after K%d: %v", i+1, err)
		}
		for j := 0; j <= i; j++ {
			v, ok, err := tr.Search(keys[j])
			if err != nil || !ok || v != uint64(j) {
				t.Fatalf("after K%d: K%d lost (v=%d ok=%v err=%v)", i+1, j+1, v, ok, err)
			}
		}
	}
	if tr.Levels() < 2 {
		t.Errorf("tree should have grown multiple levels, has %d", tr.Levels())
	}
	t.Logf("paper example: levels=%d nodes=%d σ=%d", tr.Levels(), tr.Nodes(), tr.DirectoryElements())
}

func TestUniformBulk(t *testing.T) {
	for _, d := range []int{2, 3} {
		d := d
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			prm := params.Default(d, 8)
			tr, _ := newTree(t, prm)
			gen := workload.Uniform(d, 11)
			keys := gen.Take(4000)
			for i, k := range keys {
				if err := tr.Insert(k, uint64(i)); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			for i, k := range keys {
				v, ok, err := tr.Search(k)
				if err != nil || !ok || v != uint64(i) {
					t.Fatalf("search %d: v=%d ok=%v err=%v", i, v, ok, err)
				}
			}
			for i := 0; i < 200; i++ {
				if _, ok, _ := tr.Search(gen.Absent()); ok {
					t.Fatal("found absent key")
				}
			}
			if err := tr.Insert(keys[0], 9); err != ErrDuplicate {
				t.Fatalf("duplicate insert: %v", err)
			}
		})
	}
}

func TestNormalBulk(t *testing.T) {
	prm := params.Default(2, 8)
	tr, _ := newTree(t, prm)
	gen := workload.Normal(2, 1<<30, 1<<28, 13)
	keys := gen.Take(4000)
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		v, ok, err := tr.Search(k)
		if err != nil || !ok || v != uint64(i) {
			t.Fatalf("search %d: v=%d ok=%v err=%v", i, v, ok, err)
		}
	}
}

// TestBalancedSearchCost checks the paper's central property: with the root
// pinned, every successful exact-match search costs exactly
// (levels − 1) node reads + 1 data-page read.
func TestBalancedSearchCost(t *testing.T) {
	prm := params.Default(2, 8)
	tr, st := newTree(t, prm)
	gen := workload.Uniform(2, 5)
	keys := gen.Take(5000)
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := uint64(tr.Levels()) // (levels-1) nodes + 1 page
	st.ResetStats()
	for _, k := range keys[:500] {
		if _, ok, err := tr.Search(k); !ok || err != nil {
			t.Fatal("search failed")
		}
	}
	s := st.Stats()
	if s.Writes != 0 {
		t.Errorf("searches wrote %d pages", s.Writes)
	}
	if s.Reads != 500*want {
		t.Errorf("500 searches cost %d reads; want exactly %d (%d each: tree is balanced)",
			s.Reads, 500*want, want)
	}
}

// TestInsertReadsPathOncePerDescent pins the ρ accounting of Tables 2–4:
// an insertion reads its root-to-page path once per descent, and it
// descends once per restructuring step plus once to commit, as the paper's
// BMEH_Insert does. An insert that takes one in-node page split therefore
// reads the path exactly twice.
func TestInsertReadsPathOncePerDescent(t *testing.T) {
	prm := params.Default(2, 8)
	tr, st := newTree(t, prm)
	gen := workload.Uniform(2, 7)
	for i, k := range gen.Take(5000) {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	levels := tr.Levels()
	path := uint64(levels) // (levels-1) nodes + 1 page; the root is pinned
	for _, k := range gen.Take(5000) {
		if !splitsOnceInNode(t, tr, k) {
			continue
		}
		st.ResetStats()
		if err := tr.Insert(k, 0); err != nil {
			t.Fatal(err)
		}
		s := st.Stats()
		if tr.Levels() != levels || s.Frees != 1 {
			t.Fatalf("insert was not one in-node page split: levels %d→%d, %d frees", levels, tr.Levels(), s.Frees)
		}
		if s.Reads != 2*path {
			t.Fatalf("insert with one page split read %d pages; want %d (the %d-page path once per descent, two descents)",
				s.Reads, 2*path, path)
		}
		return
	}
	t.Fatal("no key found whose insert takes exactly one in-node page split")
}

// splitsOnceInNode reports whether inserting k takes exactly one
// restructuring step: its page is full, the split stays inside the leaf
// node, and k's half is non-empty with room, so the re-entered descent
// commits. It reads through the store; callers reset the counters after.
func splitsOnceInNode(t *testing.T, tr *Tree, k bitkey.Vector) bool {
	t.Helper()
	d, w := tr.prm.Dims, tr.prm.Width
	v := k.Clone()
	strip := make([]int, d)
	node := tr.rc.load().node
	for {
		e := &node.Entries[tr.nodeIndex(node, v)]
		if e.Ptr == pagestore.NilPage {
			return false
		}
		if e.IsNode {
			for j := 0; j < d; j++ {
				strip[j] += int(e.H[j])
				v[j] = bitkey.LeftShift(v[j], int(e.H[j]), w)
			}
			var err error
			if node, err = tr.readNode(e.Ptr); err != nil {
				t.Fatal(err)
			}
			continue
		}
		p, err := tr.readPage(e.Ptr)
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := p.Get(k); dup || p.Len() < tr.prm.Capacity {
			return false
		}
		m, ok := tr.nextSplitDim(e, strip)
		if !ok || int(e.H[m])+1 > node.Depths[m] {
			return false
		}
		bitPos := strip[m] + int(e.H[m]) + 1
		same := 0
		for _, r := range p.Records() {
			if bitkey.Bit(r.Key[m], bitPos, w) == bitkey.Bit(k[m], bitPos, w) {
				same++
			}
		}
		return same > 0 && same < tr.prm.Capacity
	}
}

func TestDeleteAll(t *testing.T) {
	prm := params.Default(2, 4)
	tr, st := newTree(t, prm)
	gen := workload.Uniform(2, 99)
	keys := gen.Take(1500)
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		ok, err := tr.Delete(k)
		if err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		if !ok {
			t.Fatalf("delete %d: not found", i)
		}
		if i%250 == 0 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("after delete %d: %v", i, err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := st.Allocated()[pagestore.KindData]; n != 0 {
		t.Errorf("%d data pages leaked", n)
	}
	if tr.Levels() != 1 {
		t.Errorf("tree height %d after deleting everything, want 1", tr.Levels())
	}
	if tr.Nodes() != 1 {
		t.Errorf("%d nodes after deleting everything, want 1", tr.Nodes())
	}
	// Index remains usable.
	for i, k := range keys[:50] {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteReadsPathOncePerDescent is the delete-side twin of
// TestInsertReadsPathOncePerDescent. A delete descends once and decides
// every reversal on the way back up, so one that leaves the tree's height
// and node count alone reads at most 2·levels pages: its path once
// (levels−1 nodes and the page; the root is pinned), the buddy page it
// merges with, and one sibling node per ancestor.
func TestDeleteReadsPathOncePerDescent(t *testing.T) {
	prm := params.Default(2, 8)
	tr, st := newTree(t, prm)
	keys := workload.Uniform(2, 7).Take(5000)
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	merges := 0
	for i, k := range keys[:3000] {
		levels, nodes := tr.Levels(), tr.Nodes()
		st.ResetStats()
		if ok, err := tr.Delete(k); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
		s := st.Stats()
		if tr.Levels() != levels || tr.Nodes() != nodes {
			continue
		}
		if s.Reads > uint64(2*levels) {
			t.Fatalf("delete %d read %d pages at %d levels (%d frees); want at most %d",
				i, s.Reads, levels, s.Frees, 2*levels)
		}
		if s.Frees >= 2 {
			merges++
		}
	}
	if merges == 0 {
		t.Fatal("no delete merged a page pair")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertDeleteInterleaved(t *testing.T) {
	prm := params.Params{Dims: 2, Width: 32, Capacity: 4, Xi: []int{2, 2}}
	tr, _ := newTree(t, prm)
	gen := workload.Clustered(2, 4, 1<<24, 3)
	keys := gen.Take(1200)
	live := make(map[int]bool)
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
		live[i] = true
		if i%3 == 2 {
			victim := i - 2
			ok, err := tr.Delete(keys[victim])
			if err != nil || !ok {
				t.Fatalf("delete %d: ok=%v err=%v", victim, ok, err)
			}
			delete(live, victim)
		}
		if i%200 == 199 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range live {
		v, ok, err := tr.Search(keys[i])
		if err != nil || !ok || v != uint64(i) {
			t.Fatalf("live key %d lost", i)
		}
	}
	if tr.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(live))
	}
}

func TestRangeQuery(t *testing.T) {
	prm := params.Params{Dims: 2, Width: 32, Capacity: 4, Xi: []int{3, 3}}
	tr, _ := newTree(t, prm)
	var want int
	for x := uint64(0); x < 32; x++ {
		for y := uint64(0); y < 32; y++ {
			k := bitkey.Vector{bitkey.Component(x << 26), bitkey.Component(y << 26)}
			if err := tr.Insert(k, x*32+y); err != nil {
				t.Fatal(err)
			}
			if x >= 7 && x <= 19 && y >= 3 && y <= 28 {
				want++
			}
		}
	}
	lo := bitkey.Vector{bitkey.Component(7 << 26), bitkey.Component(3 << 26)}
	hi := bitkey.Vector{bitkey.Component(19 << 26), bitkey.Component(28 << 26)}
	got := 0
	seen := make(map[uint64]bool)
	err := tr.Range(lo, hi, func(k bitkey.Vector, v uint64) bool {
		if seen[v] {
			t.Fatalf("record %d delivered twice", v)
		}
		seen[v] = true
		got++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("range returned %d records, want %d", got, want)
	}
	// Early stop.
	n := 0
	if err := tr.Range(lo, hi, func(bitkey.Vector, uint64) bool { n++; return n < 5 }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("early stop delivered %d records, want 5", n)
	}
}

// TestRangeMatchesBruteForce cross-checks Range against a linear scan on
// random boxes over a skewed dataset.
func TestRangeMatchesBruteForce(t *testing.T) {
	prm := params.Default(2, 8)
	tr, _ := newTree(t, prm)
	gen := workload.Normal(2, 1<<30, 1<<28, 17)
	keys := gen.Take(2500)
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	rng := workload.Uniform(2, 23)
	for trial := 0; trial < 25; trial++ {
		a, b := rng.Next(), rng.Next()
		lo := make(bitkey.Vector, 2)
		hi := make(bitkey.Vector, 2)
		for j := 0; j < 2; j++ {
			lo[j], hi[j] = a[j], b[j]
			if lo[j] > hi[j] {
				lo[j], hi[j] = hi[j], lo[j]
			}
		}
		want := make(map[uint64]bool)
		for i, k := range keys {
			if inBox(k, lo, hi) {
				want[uint64(i)] = true
			}
		}
		got := make(map[uint64]bool)
		err := tr.Range(lo, hi, func(k bitkey.Vector, v uint64) bool {
			if got[v] {
				t.Fatalf("trial %d: duplicate delivery of %d", trial, v)
			}
			got[v] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d records, want %d", trial, len(got), len(want))
		}
		for v := range want {
			if !got[v] {
				t.Fatalf("trial %d: record %d missing", trial, v)
			}
		}
	}
}

// TestNoiseBurst exercises the §3 degeneration pattern that motivates the
// hierarchical directory: bursts of keys differing only in low-order bits.
func TestNoiseBurst(t *testing.T) {
	prm := params.Default(2, 8)
	tr, _ := newTree(t, prm)
	gen := workload.NoiseBurst(2, 50, 6, 29)
	keys := gen.Take(2000)
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if v, ok, _ := tr.Search(k); !ok || v != uint64(i) {
			t.Fatalf("key %d lost", i)
		}
	}
}

// TestQuadtreeMode exercises the conclusion's extension: ξ_j = 1 for every
// dimension yields a balanced binary quadtree (d = 2).
func TestQuadtreeMode(t *testing.T) {
	prm := params.Params{Dims: 2, Width: 32, Capacity: 4, Xi: []int{1, 1}}
	tr, _ := newTree(t, prm)
	gen := workload.Uniform(2, 31)
	keys := gen.Take(800)
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if v, ok, _ := tr.Search(k); !ok || v != uint64(i) {
			t.Fatalf("key %d lost", i)
		}
	}
	if tr.Levels() < 3 {
		t.Errorf("quadtree mode should build a deep tree, got %d levels", tr.Levels())
	}
}

// TestWorstCaseSplits drives the Theorem 2 adversarial pattern: b+1 keys
// agreeing on all but the last compared bit, forcing the maximal chain of
// node splits, and checks the structure survives and stays balanced.
func TestWorstCaseSplits(t *testing.T) {
	prm := params.Params{Dims: 2, Width: 12, Capacity: 2, Xi: []int{2, 2}}
	tr, _ := newTree(t, prm)
	// Keys share the first 11 bits in both dimensions; the last bit of
	// dimension 1 differs. Capacity 2 forces splitting down to full depth.
	base1 := bitkey.MustParse("11010011010", 12)
	base2 := bitkey.MustParse("10110100101", 12)
	for i := 0; i < 3; i++ {
		k := bitkey.Vector{base1 | bitkey.Component(i&1), base2 | bitkey.Component(i>>1)}
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Theorem bound: ℓ = ⌈w·d/φ⌉ levels at most.
	if got, max := tr.Levels(), prm.MaxLevels(); got > max {
		t.Errorf("tree height %d exceeds Theorem 2 bound ℓ = %d", got, max)
	}
	for i := 0; i < 3; i++ {
		k := bitkey.Vector{base1 | bitkey.Component(i&1), base2 | bitkey.Component(i>>1)}
		if v, ok, _ := tr.Search(k); !ok || v != uint64(i) {
			t.Fatalf("adversarial key %d lost", i)
		}
	}
}

// TestMonotoneInserts stresses the everyday pathological workload: strictly
// increasing keys (timestamps, auto-increment ids). All activity stays on
// the current maximum; the balanced directory must keep growing linearly
// and stay intact, where the flat directory overflows (see
// mdeh.TestOverflowGuard for the contrast).
func TestMonotoneInserts(t *testing.T) {
	prm := params.Default(2, 8)
	tr, _ := newTree(t, prm)
	gen := workload.Sequential(2, 0, 977, 1)
	keys := gen.Take(6000)
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if v, ok, _ := tr.Search(k); !ok || v != uint64(i) {
			t.Fatalf("key %d lost", i)
		}
	}
	// Directory stays linear in n: far below one element per key would be
	// impossible, but hundreds per key would signal degeneration.
	if sigma := tr.DirectoryElements(); sigma > 40*len(keys) {
		t.Errorf("monotone inserts degenerate the directory: σ = %d for %d keys", sigma, len(keys))
	}
	t.Logf("monotone: σ=%d levels=%d nodes=%d", tr.DirectoryElements(), tr.Levels(), tr.Nodes())
}
