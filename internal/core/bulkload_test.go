package core

import (
	"fmt"
	"testing"

	"bmeh/internal/bitkey"
	"bmeh/internal/pagestore"
	"bmeh/internal/params"
	"bmeh/internal/workload"
)

// sliceIter adapts a key slice to the BulkLoad iterator contract, valuing
// record i as base+i.
func sliceIter(keys []bitkey.Vector, base uint64) func() (bitkey.Vector, uint64, bool, error) {
	i := 0
	return func() (bitkey.Vector, uint64, bool, error) {
		if i >= len(keys) {
			return nil, 0, false, nil
		}
		k, v := keys[i], base+uint64(i)
		i++
		return k, v, true, nil
	}
}

func TestZcodeRoundTrip(t *testing.T) {
	for _, d := range []int{1, 2, 3, 4} {
		z := newZcodec(d, 32)
		gen := workload.Uniform(d, int64(d))
		code := make([]uint64, z.k)
		back := make(bitkey.Vector, d)
		for _, k := range gen.Take(500) {
			z.encode(k, code)
			z.decode(code, back)
			for j := range k {
				if back[j] != k[j] {
					t.Fatalf("d=%d: key %v decoded as %v", d, k, back)
				}
			}
		}
	}
}

// TestBulkLoadBasic bulk-loads uniform keys into an empty tree for two and
// three dimensions (the latter exercises the multi-word z-code path) and
// checks structure, content and stats.
func TestBulkLoadBasic(t *testing.T) {
	for _, d := range []int{2, 3} {
		d := d
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			prm := params.Default(d, 8)
			tr, _ := newTree(t, prm)
			gen := workload.Uniform(d, 21)
			keys := gen.Take(4000)
			st, err := tr.BulkLoad(sliceIter(keys, 0), BulkOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if st.Loaded != int64(len(keys)) || st.Duplicates != 0 {
				t.Fatalf("stats: %+v", st)
			}
			if tr.Len() != len(keys) {
				t.Fatalf("Len=%d want %d", tr.Len(), len(keys))
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
			if st.Levels != tr.Levels() || st.DirNodes != int64(tr.Nodes()) {
				t.Fatalf("stats disagree with tree: %+v levels=%d nodes=%d", st, tr.Levels(), tr.Nodes())
			}
		})
	}
}

// TestBulkLoadMatchesInsert checks that at symmetric ξ the bulk build
// leaves the directory insertion leaves: as many nodes, as many levels.
func TestBulkLoadMatchesInsert(t *testing.T) {
	for _, b := range []int{8, 32} {
		for _, dist := range []struct {
			name string
			gen  *workload.Generator
		}{
			{"uniform", workload.Uniform(2, 1)},
			{"normal", workload.Normal(2, 1<<30, 1<<28, 1)},
		} {
			keys := dist.gen.Take(40000)
			t.Run(fmt.Sprintf("%s/b=%d", dist.name, b), func(t *testing.T) {
				prm := params.Default(2, b)
				inc, _ := newTree(t, prm)
				for i, k := range keys {
					if err := inc.Insert(k, uint64(i)); err != nil {
						t.Fatal(err)
					}
				}
				bulk, _ := newTree(t, prm)
				st, err := bulk.BulkLoad(sliceIter(keys, 0), BulkOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if err := bulk.Validate(); err != nil {
					t.Fatal(err)
				}
				if bulk.Nodes() != inc.Nodes() || bulk.Levels() != inc.Levels() {
					t.Fatalf("bulk: %d nodes, %d levels; insert: %d nodes, %d levels",
						bulk.Nodes(), bulk.Levels(), inc.Nodes(), inc.Levels())
				}
				if st.DirNodes != int64(bulk.Nodes()) {
					t.Fatalf("BulkStats.DirNodes=%d, tree has %d nodes", st.DirNodes, bulk.Nodes())
				}
			})
		}
	}
}

// TestBulkLoadAccessBound is the §4 property test: the bulk-built tree is
// as tall as the incrementally built one on the same keys, and every
// exact-match search costs exactly (levels−1) node reads + 1 page read.
func TestBulkLoadAccessBound(t *testing.T) {
	prm := params.Default(2, 8)
	gen := workload.Uniform(2, 5)
	keys := gen.Take(5000)

	inc, _ := newTree(t, prm)
	for i, k := range keys {
		if err := inc.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	bulk, st := newTree(t, prm)
	if _, err := bulk.BulkLoad(sliceIter(keys, 0), BulkOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := bulk.Validate(); err != nil {
		t.Fatal(err)
	}
	if bulk.Levels() != inc.Levels() {
		t.Fatalf("bulk tree has %d levels, incremental %d", bulk.Levels(), inc.Levels())
	}
	want := uint64(bulk.Levels()) // (levels−1) node reads + 1 page read
	st.ResetStats()
	for _, k := range keys[:500] {
		if _, ok, err := bulk.Search(k); !ok || err != nil {
			t.Fatal("search failed")
		}
	}
	s := st.Stats()
	if s.Reads != 500*want {
		t.Fatalf("500 searches cost %d reads; want exactly %d (%d each)", s.Reads, 500*want, want)
	}
}

// TestBulkLoadDuplicates checks both dedup rules: within the stream the
// first occurrence wins, and against resident records the resident value
// wins — matching Insert's ErrDuplicate semantics.
func TestBulkLoadDuplicates(t *testing.T) {
	prm := params.Default(2, 8)
	tr, _ := newTree(t, prm)
	gen := workload.Uniform(2, 7)
	keys := gen.Take(1000)

	// Seed 100 keys incrementally with distinctive values.
	for i := 0; i < 100; i++ {
		if err := tr.Insert(keys[i], 1_000_000+uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Stream all 1000 keys, with the first 50 repeated once more at the end.
	stream := append(append([]bitkey.Vector(nil), keys...), keys[:50]...)
	st, err := tr.BulkLoad(sliceIter(stream, 0), BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 100 stream keys collided with resident ones, 50 with earlier stream
	// positions.
	if st.Duplicates != 150 {
		t.Fatalf("Duplicates=%d want 150", st.Duplicates)
	}
	if st.Loaded != int64(len(stream))-150 {
		t.Fatalf("Loaded=%d want %d", st.Loaded, len(stream)-150)
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len=%d want 1000", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		v, ok, err := tr.Search(k)
		if err != nil || !ok {
			t.Fatalf("key %d lost: ok=%v err=%v", i, ok, err)
		}
		want := uint64(i)
		if i < 100 {
			want = 1_000_000 + uint64(i) // resident value survived
		}
		if v != want {
			t.Fatalf("key %d: v=%d want %d", i, v, want)
		}
	}
}

// TestBulkLoadEmpty covers the empty-input edge cases: loading nothing
// into an empty tree and loading nothing into a populated one (a pure
// rebuild).
func TestBulkLoadEmpty(t *testing.T) {
	prm := params.Default(2, 8)
	tr, _ := newTree(t, prm)
	if _, err := tr.BulkLoad(sliceIter(nil, 0), BulkOptions{}); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || tr.Levels() != 1 {
		t.Fatalf("empty load: Len=%d Levels=%d", tr.Len(), tr.Levels())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}

	gen := workload.Uniform(2, 3)
	keys := gen.Take(700)
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := tr.BulkLoad(sliceIter(nil, 0), BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Loaded != 0 || tr.Len() != len(keys) {
		t.Fatalf("rebuild: %+v Len=%d", st, tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		v, ok, err := tr.Search(k)
		if err != nil || !ok || v != uint64(i) {
			t.Fatalf("key %d after rebuild: v=%d ok=%v err=%v", i, v, ok, err)
		}
	}
}

// TestBulkLoadSpill forces the external-merge path with a tiny memory
// budget and checks the result matches the in-memory one.
func TestBulkLoadSpill(t *testing.T) {
	prm := params.Default(2, 8)
	tr, _ := newTree(t, prm)
	gen := workload.Uniform(2, 17)
	keys := gen.Take(6000)
	// ~1024 records per run (the sorter's floor) → several runs.
	st, err := tr.BulkLoad(sliceIter(keys, 0), BulkOptions{MemoryBudget: 1, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if st.SpillRuns < 2 {
		t.Fatalf("SpillRuns=%d; budget should have forced a spill", st.SpillRuns)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(keys) {
		t.Fatalf("Len=%d want %d", tr.Len(), len(keys))
	}
	for i, k := range keys {
		v, ok, err := tr.Search(k)
		if err != nil || !ok || v != uint64(i) {
			t.Fatalf("search %d: v=%d ok=%v err=%v", i, v, ok, err)
		}
	}
}

// TestBulkLoadThenMutate checks the bulk-built structure composes with the
// incremental write path: inserts and deletes after a bulk load keep every
// invariant, and deleting every key reverses the build down to the empty
// one-node tree, as it reverses insertion.
func TestBulkLoadThenMutate(t *testing.T) {
	prm := params.Default(2, 8)
	tr, st := newTree(t, prm)
	gen := workload.Uniform(2, 29)
	keys := gen.Take(3000)
	if _, err := tr.BulkLoad(sliceIter(keys[:2000], 0), BulkOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 2000; i < 3000; i++ {
		if err := tr.Insert(keys[i], uint64(i)); err != nil {
			t.Fatalf("insert after bulk: %v", err)
		}
	}
	for i := 0; i < 500; i++ {
		if ok, err := tr.Delete(keys[i]); err != nil || !ok {
			t.Fatalf("delete after bulk: ok=%v err=%v", ok, err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2500 {
		t.Fatalf("Len=%d want 2500", tr.Len())
	}
	for i := 500; i < 3000; i++ {
		v, ok, err := tr.Search(keys[i])
		if err != nil || !ok || v != uint64(i) {
			t.Fatalf("key %d: v=%d ok=%v err=%v", i, v, ok, err)
		}
	}
	for i := 500; i < 3000; i++ {
		if ok, err := tr.Delete(keys[i]); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || tr.Levels() != 1 || tr.Nodes() != 1 {
		t.Fatalf("after deleting every key: Len=%d Levels=%d Nodes=%d, want 0, 1, 1", tr.Len(), tr.Levels(), tr.Nodes())
	}
	if n := st.Allocated()[pagestore.KindData]; n != 0 {
		t.Fatalf("%d data pages still allocated after deleting every key", n)
	}
}

// TestBulkLoadPaperExample bulk-loads the paper's Table 1 keys under the
// §4.3 parameters and checks the result against the same invariants the
// incremental example satisfies.
func TestBulkLoadPaperExample(t *testing.T) {
	prm := params.Params{Dims: 2, Width: 32, Capacity: 2, Xi: []int{2, 2}}
	tr, _ := newTree(t, prm)
	keys := paperKeys()
	// Table 1 holds no duplicate keys, so all 22 load.
	st, err := tr.BulkLoad(sliceIter(keys, 0), BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Loaded != int64(len(keys)) {
		t.Fatalf("stats: %+v", st)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		v, ok, err := tr.Search(k)
		if err != nil || !ok || v != uint64(i) {
			t.Fatalf("K%d: v=%d ok=%v err=%v", i+1, v, ok, err)
		}
	}
}

// FuzzBulkLoadMatchesInsert builds one tree by Insert and one by BulkLoad
// from the same fuzzed keys and requires the same records, clean
// invariants on both, and the same directory: as many nodes and levels.
// The first byte picks the page capacity b ∈ {2, 4, 8}; every further
// four bytes make a 2-d key whose components vary in their top and
// bottom bytes, so small inputs reach deep, lopsided tries.
func FuzzBulkLoadMatchesInsert(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 1, 2, 3, 4, 1, 2, 3, 4, 255, 0, 255, 0, 128, 7, 64, 9, 0, 1, 0, 2, 0, 3, 0, 4})
	seed := make([]byte, 1, 1+4*300)
	for _, k := range workload.Uniform(2, 3).Take(300) {
		seed = append(seed, byte(k[0]>>24), byte(k[0]), byte(k[1]>>24), byte(k[1]))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		prm := params.Default(2, []int{2, 4, 8}[data[0]%3])
		data = data[1:]
		if len(data) > 4*1024 {
			data = data[:4*1024]
		}
		var keys []bitkey.Vector
		for ; len(data) >= 4; data = data[4:] {
			keys = append(keys, bitkey.Vector{
				bitkey.Component(data[0])<<24 | bitkey.Component(data[1]),
				bitkey.Component(data[2])<<24 | bitkey.Component(data[3]),
			})
		}
		inc, _ := newTree(t, prm)
		want := make(map[[2]bitkey.Component]uint64)
		for i, k := range keys {
			err := inc.Insert(k, uint64(i))
			if err == ErrDuplicate {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			want[[2]bitkey.Component{k[0], k[1]}] = uint64(i)
		}
		bulk, _ := newTree(t, prm)
		if _, err := bulk.BulkLoad(sliceIter(keys, 0), BulkOptions{}); err != nil {
			t.Fatal(err)
		}
		for name, tr := range map[string]*Tree{"insert": inc, "bulk": bulk} {
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if tr.Len() != len(want) {
				t.Fatalf("%s: Len=%d want %d", name, tr.Len(), len(want))
			}
			for k, v := range want {
				got, ok, err := tr.Search(bitkey.Vector{k[0], k[1]})
				if err != nil || !ok || got != v {
					t.Fatalf("%s: key %v: v=%d ok=%v err=%v, want %d", name, k, got, ok, err, v)
				}
			}
		}
		if bulk.Nodes() != inc.Nodes() || bulk.Levels() != inc.Levels() {
			t.Fatalf("bulk: %d nodes, %d levels; insert: %d nodes, %d levels",
				bulk.Nodes(), bulk.Levels(), inc.Nodes(), inc.Levels())
		}
	})
}
