package local

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bmeh"
	"bmeh/client"
	"bmeh/internal/cluster"
)

// testKeys deals n distinct 2-d keys spread across the whole Morton
// space (high bits of both components vary, so prefixes cover all four
// quadrants).
func testKeys(n int) []bmeh.Key {
	keys := make([]bmeh.Key, n)
	rnd := uint64(0x9e3779b97f4a7c15)
	for i := range keys {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		keys[i] = bmeh.Key{rnd & 0xffffffff, (rnd >> 32) & 0xffffffff}
	}
	return keys
}

// TestClusterBasic: routed writes land on the right shards, routed reads
// and scatter-gather ranges see all of them.
func TestClusterBasic(t *testing.T) {
	c, err := Start(t.TempDir(), Options{Shards: 2, Replicas: 1, Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	r, err := client.DialRouter(c.Seeds(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	keys := testKeys(400)
	for i, k := range keys {
		if err := r.Put(k, uint64(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Routed reads prefer a replica, which applies its primary's commits
	// asynchronously: a read racing the last commit's delivery may miss
	// it. Wait until every replica has applied its primary's last commit.
	for i, sh := range c.shards {
		seq := sh.primary.ix.ReplCommitSeq()
		for _, rp := range sh.replicas {
			if !rp.rep.AwaitSeq(seq, 10*time.Second) {
				t.Fatalf("shard %d: replica never applied commit %d", i, seq)
			}
		}
	}
	for i, k := range keys {
		v, ok, err := r.Get(k)
		if err != nil || !ok || v != uint64(i) {
			t.Fatalf("get %d: v=%d ok=%v err=%v", i, v, ok, err)
		}
	}
	n, err := r.Len()
	if err != nil || n != uint64(len(keys)) {
		t.Fatalf("Len = %d (%v), want %d", n, err, len(keys))
	}

	// Both shards actually hold data (the keyspace is spread).
	sts, err := r.ShardStats()
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range sts {
		if st.Records == 0 {
			t.Fatalf("shard %d holds no records", i)
		}
		if !st.Clustered {
			t.Fatalf("shard %d does not know it is clustered", i)
		}
	}

	// Full-box scatter-gather returns everything in pseudo-key order.
	kvs, more, err := r.Range(bmeh.Key{0, 0}, bmeh.Key{1<<32 - 1, 1<<32 - 1}, 0)
	if err != nil || more {
		t.Fatalf("range: more=%v err=%v", more, err)
	}
	if len(kvs) != len(keys) {
		t.Fatalf("range saw %d records, want %d", len(kvs), len(keys))
	}
	dims, width := r.Geometry()
	for i := 1; i < len(kvs); i++ {
		if cluster.CompareKeys(kvs[i-1].Key, kvs[i].Key, dims, width) >= 0 {
			t.Fatalf("merged range output out of pseudo-key order at %d", i)
		}
	}
}

// TestClusterSplitOnline: a hot-shard split under live GET traffic loses
// no reads and no records; writes routed during the split land.
func TestClusterSplitOnline(t *testing.T) {
	c, err := Start(t.TempDir(), Options{Shards: 1, Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	r, err := client.DialRouter(c.Seeds(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	keys := testKeys(600)
	for i, k := range keys {
		if err := r.Put(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Live GET traffic through the split, counting failures.
	var (
		stop     atomic.Bool
		gets     atomic.Uint64
		failures atomic.Uint64
		wg       sync.WaitGroup
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := seed; !stop.Load(); i++ {
				k := keys[i%len(keys)]
				v, ok, err := r.Get(k)
				gets.Add(1)
				if err != nil || !ok || v != uint64(i%len(keys)) {
					failures.Add(1)
				}
			}
		}(w * 13)
	}

	if err := c.Split(0); err != nil {
		stop.Store(true)
		wg.Wait()
		t.Fatalf("split: %v", err)
	}
	// Keep reading through the post-flip window, then stop.
	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if f := failures.Load(); f != 0 {
		t.Fatalf("%d of %d GETs failed through the split", f, gets.Load())
	}
	if g := gets.Load(); g == 0 {
		t.Fatal("no GETs issued during the split")
	}
	if c.Shards() != 2 {
		t.Fatalf("shards after split = %d, want 2", c.Shards())
	}

	// Every record is still reachable, exactly once.
	n, err := r.Len()
	if err != nil || n != uint64(len(keys)) {
		t.Fatalf("Len after split = %d (%v), want %d", n, err, len(keys))
	}
	for i, k := range keys {
		v, ok, err := r.Get(k)
		if err != nil || !ok || v != uint64(i) {
			t.Fatalf("get %d after split: v=%d ok=%v err=%v", i, v, ok, err)
		}
	}
	kvs, _, err := r.Range(bmeh.Key{0, 0}, bmeh.Key{1<<32 - 1, 1<<32 - 1}, 0)
	if err != nil || len(kvs) != len(keys) {
		t.Fatalf("range after split: %d records (%v), want %d", len(kvs), err, len(keys))
	}

	// Writes routed after the split land on the new topology.
	extra := bmeh.Key{0xdeadbeef, 0xcafef00d}
	if err := r.Put(extra, 4242); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := r.Get(extra); !ok || v != 4242 {
		t.Fatalf("post-split put lost: v=%d ok=%v", v, ok)
	}
}
