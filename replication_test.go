package bmeh

import (
	"path/filepath"
	"testing"

	"bmeh/internal/pagestore"
)

// TestReplicaApplyKeepsDecodedCaches seeds a replica from a primary's
// snapshot, warms the replica's decoded caches, then applies one small
// batch. Re-reading every key afterwards may touch the store only for the
// pages the batch rewrote and the re-pinned root: every other decoded node
// and page must survive the apply.
func TestReplicaApplyKeepsDecodedCaches(t *testing.T) {
	dir := t.TempDir()
	primary, err := Create(filepath.Join(dir, "primary.bmeh"), Options{Dims: 2, PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	const n = 2000
	key := func(i int) Key { return Key{uint64(i) * 2654435761 % (1 << 32), uint64(i)} }
	for i := 0; i < n; i++ {
		if err := primary.Insert(key(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}

	var snap []pagestore.Frame
	seq, pageCount, err := primary.ReplSnapshot(func(id pagestore.PageID, kind pagestore.Kind, data []byte) error {
		snap = append(snap, pagestore.Frame{ID: id, Kind: kind, Data: append([]byte(nil), data...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	target, err := NewReplicaTarget(filepath.Join(dir, "replica.bmeh"))
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	if err := target.ApplyReplSnapshot(seq, primary.ReplPageSize(), pageCount, snap); err != nil {
		t.Fatal(err)
	}
	replica := target.Index()

	var batches [][]pagestore.Frame
	var seqs []uint64
	if err := primary.SetReplPublisher(func(seq uint64, frames []pagestore.Frame) {
		seqs, batches = append(seqs, seq), append(batches, frames)
	}); err != nil {
		t.Fatal(err)
	}
	readAll := func(want int) {
		t.Helper()
		for i := 0; i < want; i++ {
			if v, ok, err := replica.Get(key(i)); err != nil || !ok || v != uint64(i) {
				t.Fatalf("replica Get %d: %d %v %v", i, v, ok, err)
			}
		}
	}
	readAll(n) // warm the decoded caches
	if err := primary.Insert(key(n), n); err != nil {
		t.Fatal(err)
	}
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(batches) != 1 {
		t.Fatalf("primary published %d batches, want 1", len(batches))
	}

	before := replica.Stats().Reads
	if err := target.ApplyReplSegment(seqs[0], batches[0]); err != nil {
		t.Fatal(err)
	}
	readAll(n + 1)
	reads := replica.Stats().Reads - before
	if limit := uint64(len(batches[0])) + 1; reads > limit {
		t.Fatalf("re-reading %d keys after a %d-frame batch read the store %d times, want ≤ %d", n+1, len(batches[0]), reads, limit)
	}
}
