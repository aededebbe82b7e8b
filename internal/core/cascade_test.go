package core

import (
	"slices"
	"testing"

	"bmeh/internal/bitkey"
	"bmeh/internal/pagestore"
	"bmeh/internal/params"
	"bmeh/internal/workload"
)

// TestCascadeSplits pins the K-D-B downward-split behaviour. Under the
// paper's symmetric ξ configurations the cyclic split discipline keeps
// every element's local depths within one of balanced, so node splits
// never meet a plane-crossing (h_m = 0) region; under an asymmetric ξ the
// short dimension exhausts early and crossing regions are routine. The
// cascade must fire there, keep the structure strictly tree-shaped, and
// lose no records.
func TestCascadeSplits(t *testing.T) {
	asym := params.Params{Dims: 2, Width: 32, Capacity: 2, Xi: []int{3, 1}}
	st := pagestore.NewMemDisk(PageBytes(asym))
	tr, err := New(st, asym)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.Uniform(2, 6)
	keys := gen.Take(4000)
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tr.Cascades() == 0 {
		t.Fatal("asymmetric ξ should force downward cascade splits; none happened")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		v, ok, err := tr.Search(k)
		if err != nil || !ok || v != uint64(i) {
			t.Fatalf("key %d lost after cascades (v=%d ok=%v err=%v)", i, v, ok, err)
		}
	}
	// Full reversal still works after cascade-created structures.
	for i, k := range keys {
		ok, err := tr.Delete(k)
		if err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Nodes() != 1 || tr.Levels() != 1 {
		t.Errorf("tree did not collapse after delete-all: nodes=%d levels=%d", tr.Nodes(), tr.Levels())
	}
	if n := st.Allocated()[pagestore.KindData]; n != 0 {
		t.Errorf("%d data pages leaked", n)
	}
}

// TestSymmetricXiNeverCascades documents the balance property: the paper's
// symmetric configurations never produce plane-crossing regions, also when
// inserts refill the nil regions that deletes and node splits leave above
// leaf level. The node materialized there must continue the region's
// cyclic split order; restarting it at dimension 0 breaks the balance.
func TestSymmetricXiNeverCascades(t *testing.T) {
	for _, cfg := range []params.Params{
		params.Default(2, 8),
		{Dims: 2, Width: 32, Capacity: 2, Xi: []int{1, 1}},
		{Dims: 3, Width: 32, Capacity: 2, Xi: []int{1, 1, 1}},
	} {
		st := pagestore.NewMemDisk(PageBytes(cfg))
		tr, err := New(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.Clustered(cfg.Dims, 3, 1<<22, 9)
		keys := gen.Take(3000)
		for i, k := range keys {
			if err := tr.Insert(k, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if got := tr.Cascades(); got != 0 {
			t.Errorf("ξ=%v: %d cascades under symmetric configuration", cfg.Xi, got)
		}
		// Delete the keys whose first component lies below a quantile,
		// then insert them again.
		firsts := make([]bitkey.Component, len(keys))
		for i, k := range keys {
			firsts[i] = k[0]
		}
		slices.Sort(firsts)
		for _, frac := range []int{2, 4, 8} {
			below := firsts[len(firsts)/frac]
			before := tr.Cascades()
			for _, k := range keys {
				if k[0] < below {
					if ok, err := tr.Delete(k); err != nil || !ok {
						t.Fatalf("ξ=%v: delete: ok=%v err=%v", cfg.Xi, ok, err)
					}
				}
			}
			for i, k := range keys {
				if k[0] < below {
					if err := tr.Insert(k, uint64(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got := tr.Cascades() - before; got != 0 {
				t.Errorf("ξ=%v: %d cascades reinserting below the 1/%d quantile", cfg.Xi, got, frac)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSplitsLeaveNoEmptyNode checks that a node split gives a half that
// holds no live region no page: fault-free inserts leave no all-nil node
// below the root.
func TestSplitsLeaveNoEmptyNode(t *testing.T) {
	for _, tc := range []struct {
		name string
		prm  params.Params
		gen  *workload.Generator
		n    int
	}{
		{"uniform", params.Default(2, 4), workload.Uniform(2, 99), 1500},
		{"noise", params.Default(2, 8), workload.NoiseBurst(2, 50, 16, 1), 20000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, _ := newTree(t, tc.prm)
			for i, k := range tc.gen.Take(tc.n) {
				if err := tr.Insert(k, uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			var ids []pagestore.PageID
			err := tr.ForEachPageRef(func(id pagestore.PageID, isNode bool) {
				if isNode {
					ids = append(ids, id)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			empty := 0
			for _, id := range ids {
				n, err := tr.readNode(id)
				if err != nil {
					t.Fatal(err)
				}
				if allNil(n) {
					empty++
				}
			}
			if empty != 0 {
				t.Errorf("%d of %d non-root nodes hold only nil regions", empty, len(ids))
			}
			if tr.Nodes() != len(ids)+1 {
				t.Errorf("node counter %d, walk found %d + root", tr.Nodes(), len(ids))
			}
		})
	}
}
