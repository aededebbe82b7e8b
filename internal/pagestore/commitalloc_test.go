//go:build !race

// The race detector randomly drops sync.Pool entries, so allocation
// counts are checked in normal builds only.

package pagestore

import "testing"

// TestCommitAllocsIndependentOfSize: a commit of 64 staged pages makes no
// more allocations than a commit of one, apart from the staged images
// themselves (one per Write): frames are encoded straight into the log's
// buffer and every home slot reuses one slot buffer.
func TestCommitAllocsIndependentOfSize(t *testing.T) {
	const ps = 128
	d, err := CreateFileDiskFiles(NewMemFile(), NewMemFile(), ps)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ids := make([]PageID, 64)
	for i := range ids {
		if ids[i], err = d.Alloc(KindData); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, ps)
	commit := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			for _, id := range ids[:n] {
				if err := d.Write(id, data); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := commit(1), commit(len(ids))
	t.Logf("allocations: commit of 1 page %v, of %d pages %v", one, len(ids), many)
	if many-one > float64(len(ids)-1) {
		t.Fatalf("a commit of %d pages makes %v allocations, of 1 page %v: more than the %d extra staged images", len(ids), many, one, len(ids)-1)
	}
}
