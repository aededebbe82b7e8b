package main

// Process-level cluster e2e: real server processes (the test binary
// re-execs itself in child mode) joined by real TCP, a router driving
// traffic, and kill -9 landing on a shard primary mid-stream. Reads
// must keep flowing off the shard's replica with zero errors, the
// restarted primary must recover its WAL and rejoin, and after clean
// shutdowns every store must be Fsck-clean with primary and replica
// byte-identical per shard.

import (
	"bytes"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bmeh"
	"bmeh/client"
)

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		childMain()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// e2eKeys deals n distinct 2-d keys spread across the whole Morton
// space so both shards of a 2-shard cluster hold data.
func e2eKeys(n int) []bmeh.Key {
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

func nodeSeq(t *testing.T, addr string) uint64 {
	t.Helper()
	cl, err := client.Dial(addr, client.Options{PoolSize: 1, RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st.CommitSeq
}

func awaitNodeSeq(t *testing.T, addr string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if got := nodeSeq(t, addr); got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %s stuck below seq %d", addr, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterProcessKillPrimary: 2 shards × 1 replica as real
// processes; kill -9 one shard primary while routed GETs stream.
func TestClusterProcessKillPrimary(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e test")
	}
	c, err := launch(os.Args[0], launchOptions{
		Shards: 2, Replicas: 1, Dir: t.TempDir(),
		Capacity: 16, SnapMaxPinAge: time.Minute,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			c.killAll()
		}
	}()

	r, err := client.DialRouter(c.Seeds(), client.Options{
		PoolSize: 2, Retries: 5, RequestTimeout: 5 * time.Second,
		RedialBackoff: 20 * time.Millisecond, RedialBackoffMax: 200 * time.Millisecond,
		HealthInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	keys := e2eKeys(400)
	for i, k := range keys {
		if err := r.Put(k, uint64(i)); err != nil {
			t.Fatalf("seed put %d: %v", i, err)
		}
	}

	// Readers must never fail: the dark shard's replica carries them.
	var gets, getErrs atomic.Uint64
	var firstGetErr atomic.Value
	stopRead := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := seed; ; i++ {
				select {
				case <-stopRead:
					return
				default:
				}
				k := keys[i%len(keys)]
				v, ok, err := r.Get(k)
				gets.Add(1)
				if err != nil || !ok || v != uint64(i%len(keys)) {
					getErrs.Add(1)
					if err != nil {
						firstGetErr.CompareAndSwap(nil, err)
					}
				}
			}
		}(w * 31)
	}
	// A writer hammers fresh keys so the SIGKILL lands mid group-commit;
	// its errors while one shard is dark are expected.
	var puts, putErrs atomic.Uint64
	stopWrite := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopWrite:
				return
			default:
			}
			k := bmeh.Key{uint64(i)<<8 | 0x5, uint64(i*2654435761) & 0xffffffff}
			if err := r.Put(k, uint64(i)); err == nil {
				puts.Add(1)
			} else {
				putErrs.Add(1)
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()

	time.Sleep(500 * time.Millisecond) // steady state, commits flowing
	c.shards[0].primary.kill()
	time.Sleep(500 * time.Millisecond) // shard 0 dark, reads on its replica
	if err := c.restartPrimary(0); err != nil {
		t.Fatalf("restart primary: %v", err)
	}
	time.Sleep(500 * time.Millisecond) // recovered primary takes writes again
	close(stopWrite)
	close(stopRead)
	wg.Wait()

	if g := gets.Load(); g == 0 {
		t.Fatal("no GETs issued across the kill")
	}
	if e := getErrs.Load(); e != 0 {
		t.Fatalf("GET availability: %d of %d reads failed (first err: %v)",
			e, gets.Load(), firstGetErr.Load())
	}
	if puts.Load() == 0 {
		t.Fatal("no puts succeeded")
	}

	// Seeded records all survive the crash and recovery.
	for i, k := range keys {
		v, ok, err := r.Get(k)
		if err != nil || !ok || v != uint64(i) {
			t.Fatalf("get %d after recovery: v=%d ok=%v err=%v", i, v, ok, err)
		}
	}

	// Converge each shard's replica to its primary, then shut down
	// cleanly — replicas first.
	for i, sh := range c.shards {
		cl, err := client.Dial(sh.primary.addr, client.Options{PoolSize: 1, RequestTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		// The first syncs may still hit the redial backoff window of the
		// restarted endpoint.
		deadline := time.Now().Add(10 * time.Second)
		for {
			if err := cl.Sync(); err == nil {
				break
			} else if time.Now().After(deadline) {
				t.Fatalf("sync shard %d: %v", i, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
		cl.Close()
		awaitNodeSeq(t, sh.replicas[0].addr, nodeSeq(t, sh.primary.addr))
	}
	shards := c.shards
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	closed = true

	// Every store Fsck-clean; primary and replica byte-identical.
	for i, sh := range shards {
		for _, p := range []*proc{sh.primary, sh.replicas[0]} {
			rep, err := bmeh.Fsck(p.path)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("fsck %s: %v", p.path, rep.Problems)
			}
		}
		pb, err := os.ReadFile(sh.primary.path)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := os.ReadFile(sh.replicas[0].path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pb, rb) {
			t.Fatalf("shard %d stores diverged: primary %d bytes, replica %d bytes", i, len(pb), len(rb))
		}
	}
}

// TestClusterProcessShardIdentity: every node of a launched cluster
// reports its shard identity over STATS — the wire surface bmehcli
// stats -connect renders.
func TestClusterProcessShardIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e test")
	}
	c, err := launch(os.Args[0], launchOptions{
		Shards: 2, Replicas: 1, Dir: t.TempDir(), Capacity: 16, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	m := c.Map()
	for i, sh := range c.shards {
		lo, hi := m.Range(i)
		addrs := append([]string{sh.primary.addr}, sh.replicas[0].addr)
		for _, addr := range addrs {
			cl, err := client.Dial(addr, client.Options{PoolSize: 1, RequestTimeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			st, err := cl.Stats()
			cl.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !st.Clustered {
				t.Fatalf("node %s not clustered", addr)
			}
			if st.ShardID != i || st.ShardLo != lo || st.ShardHi != hi {
				t.Fatalf("node %s identity = shard %d [%#x,%#x), want shard %d [%#x,%#x)",
					addr, st.ShardID, st.ShardLo, st.ShardHi, i, lo, hi)
			}
			if st.ShardMapEpoch != m.Epoch {
				t.Fatalf("node %s epoch = %d, want %d", addr, st.ShardMapEpoch, m.Epoch)
			}
		}
	}
}
