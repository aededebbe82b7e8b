package server_test

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"bmeh"
	"bmeh/client"
	"bmeh/internal/cluster"
	"bmeh/internal/server"
	"bmeh/internal/wire"
)

// loadIter yields n distinct records.
func loadIter(n uint64) func() (bmeh.KV, bool, error) {
	i := uint64(0)
	return func() (bmeh.KV, bool, error) {
		if i >= n {
			return bmeh.KV{}, false, nil
		}
		i++
		return bmeh.KV{Key: bmeh.Key{i, i ^ 0x9e3779b9}, Value: i}, true, nil
	}
}

// TestLoadEndToEnd streams a bulk load through the wire protocol on both
// backends and checks the committed index serves it.
func TestLoadEndToEnd(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			ix := newIndex(t, backend)
			defer ix.Close()
			_, addr := startServer(t, ix, server.Config{})
			cl, err := client.Dial(addr, client.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			// A few resident records: the load folds them in, and stream
			// records duplicating their keys are dropped.
			if err := cl.Put(bmeh.Key{1, 1 ^ 0x9e3779b9}, 9999); err != nil {
				t.Fatal(err)
			}

			const n = 10000
			st, err := cl.Load(loadIter(n), client.LoadOptions{ChunkSize: 512})
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if st.Loaded != n-1 || st.Duplicates != 1 {
				t.Fatalf("stats: %+v", st)
			}
			if st.Chunks == 0 {
				t.Fatalf("no chunks recorded: %+v", st)
			}

			// The resident record kept its value; streamed records landed.
			if v, ok, err := cl.Get(bmeh.Key{1, 1 ^ 0x9e3779b9}); err != nil || !ok || v != 9999 {
				t.Fatalf("resident after load: %d %v %v", v, ok, err)
			}
			for i := uint64(2); i <= n; i += 997 {
				v, ok, err := cl.Get(bmeh.Key{i, i ^ 0x9e3779b9})
				if err != nil || !ok || v != i {
					t.Fatalf("get %d: %d %v %v", i, v, ok, err)
				}
			}
			stats, err := cl.Stats()
			if err != nil || stats.Records != n {
				t.Fatalf("stats: %+v %v", stats, err)
			}
		})
	}
}

// startDroppingProxy forwards TCP to backend, killing the first
// connection that carries dropAfter bytes client→server; later
// connections pass cleanly. It simulates a network failure mid-stream.
func startDroppingProxy(t *testing.T, backend string, dropAfter int64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var dropped atomic.Bool
	go func() {
		for {
			cc, err := ln.Accept()
			if err != nil {
				return
			}
			sc, err := net.Dial("tcp", backend)
			if err != nil {
				cc.Close()
				continue
			}
			var once sync.Once
			kill := func() { once.Do(func() { cc.Close(); sc.Close() }) }
			go func() {
				n, _ := io.CopyN(sc, cc, dropAfter)
				if n == dropAfter && dropped.CompareAndSwap(false, true) {
					kill()
					return
				}
				io.Copy(sc, cc)
				kill()
			}()
			go func() {
				io.Copy(cc, sc)
				kill()
			}()
		}
	}()
	return ln.Addr().String()
}

// TestLoadResume drops the load stream's connection mid-flight and
// checks the client resumes the server-side session — no records lost,
// none doubled, the iterator never rewound.
func TestLoadResume(t *testing.T) {
	ix := newIndex(t, "mem")
	defer ix.Close()
	_, addr := startServer(t, ix, server.Config{})
	// Kill whichever connection first carries ~12 KiB upstream — a few
	// chunks into the load stream.
	proxy := startDroppingProxy(t, addr, 12<<10)
	cl, err := client.Dial(proxy, client.Options{Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 20000
	st, err := cl.Load(loadIter(n), client.LoadOptions{ChunkSize: 64, Window: 4})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if st.Resumes == 0 {
		t.Fatalf("expected at least one resume: %+v", st)
	}
	if st.Loaded != n || st.Duplicates != 0 {
		t.Fatalf("stats: %+v", st)
	}
	for i := uint64(1); i <= n; i += 1237 {
		v, ok, err := cl.Get(bmeh.Key{i, i ^ 0x9e3779b9})
		if err != nil || !ok || v != i {
			t.Fatalf("get %d after resume: %d %v %v", i, v, ok, err)
		}
	}
}

// TestLoadIteratorErrorAborts checks a failing iterator aborts the
// session server-side: the pre-load state stands and a fresh load on the
// same server works.
func TestLoadIteratorErrorAborts(t *testing.T) {
	ix := newIndex(t, "mem")
	defer ix.Close()
	_, addr := startServer(t, ix, server.Config{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Put(bmeh.Key{500000, 1}, 7); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("source failed")
	i := uint64(0)
	_, err = cl.Load(func() (bmeh.KV, bool, error) {
		if i >= 3000 {
			return bmeh.KV{}, false, boom
		}
		i++
		return bmeh.KV{Key: bmeh.Key{i, i}, Value: i}, true, nil
	}, client.LoadOptions{ChunkSize: 128})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("want iterator error, got %v", err)
	}

	// Nothing from the failed stream is visible; the resident record is.
	stats, err := cl.Stats()
	if err != nil || stats.Records != 1 {
		t.Fatalf("after abort: %+v %v", stats, err)
	}
	st, err := cl.Load(loadIter(1000), client.LoadOptions{})
	if err != nil || st.Loaded != 1000 {
		t.Fatalf("fresh load after abort: %+v %v", st, err)
	}
}

// nextLoadFrame reads one response frame, returning its id, status, and
// the body after the status byte (LOAD responses carry payload there).
func (rc *rawConn) nextLoadFrame() (uint64, wire.Status, []byte) {
	rc.t.Helper()
	fr, err := rc.r.Next()
	if err != nil {
		rc.t.Fatal(err)
	}
	st, body, err := wire.DecodeStatus(fr.Payload)
	if err != nil {
		rc.t.Fatal(err)
	}
	return fr.ID, st, body
}

// TestLoadChunkAfterCommitRejected pipelines a chunk with the next
// expected sequence behind LOAD_COMMIT. The server must refuse the late
// chunk with StatusErr — before the fix it sent on the channel the
// commit had closed and panicked the whole process.
func TestLoadChunkAfterCommitRejected(t *testing.T) {
	ix := newIndex(t, "mem")
	defer ix.Close()
	_, addr := startServer(t, ix, server.Config{})
	rc := dialRaw(t, addr)

	id := rc.write(wire.OpLoadBegin, wire.AppendLoadBeginReq(nil, 0))
	gotID, st, body := rc.nextLoadFrame()
	if gotID != id || st != wire.StatusOK {
		t.Fatalf("begin: id %d status %v", gotID, st)
	}
	session, _, err := wire.DecodeLoadBeginRespBody(body)
	if err != nil {
		t.Fatal(err)
	}

	kvs := []wire.KV{{Key: []uint64{1, 2}, Value: 3}}
	chunk1 := rc.write(wire.OpLoadChunk, wire.AppendLoadChunkReq(nil, session, 1, kvs))
	if gotID, st, _ := rc.nextLoadFrame(); gotID != chunk1 || st != wire.StatusOK {
		t.Fatalf("chunk 1: id %d status %v", gotID, st)
	}

	// The reader dispatches frames in order: the commit closes the
	// session's intake, then the late chunk (seq 2 == nextSeq) arrives.
	commitID := rc.write(wire.OpLoadCommit, wire.AppendLoadCommitReq(nil, session))
	lateID := rc.write(wire.OpLoadChunk, wire.AppendLoadChunkReq(nil, session, 2, kvs))

	// The commit responds asynchronously, so the two responses may
	// arrive in either order.
	got := map[uint64]wire.Status{}
	for len(got) < 2 {
		id, st, _ := rc.nextLoadFrame()
		got[id] = st
	}
	if got[commitID] != wire.StatusOK {
		t.Fatalf("commit status %v", got[commitID])
	}
	if got[lateID] != wire.StatusErr {
		t.Fatalf("late chunk status %v, want StatusErr", got[lateID])
	}

	// The server survived and committed the load.
	if st := rc.roundTrip(wire.OpGet, wire.AppendGetReq(nil, []uint64{1, 2})); st != wire.StatusOK {
		t.Fatalf("get after late chunk: %v", st)
	}
}

// TestLoadReadOnly checks a replica refuses to open a load session.
func TestLoadReadOnly(t *testing.T) {
	ix := newIndex(t, "mem")
	defer ix.Close()
	_, addr := startServer(t, ix, server.Config{ReadOnly: true})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Load(loadIter(10), client.LoadOptions{}); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("want ErrReadOnly, got %v", err)
	}
}

// TestLoadRefusesForeignKeys checks a clustered node refuses a load that
// carries a key outside its pseudo-key range: the whole load fails and
// stores nothing, while a load of owned keys still commits.
func TestLoadRefusesForeignKeys(t *testing.T) {
	ix := newIndex(t, "mem")
	defer ix.Close()
	shard := cluster.NewShardState(2, 32)
	m, err := cluster.Uniform([]cluster.Node{{Primary: "a"}, {Primary: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := shard.Adopt(0, m); !ok {
		t.Fatal("shard map not adopted")
	}
	_, addr := startServer(t, ix, server.Config{Shard: shard})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := ix.Insert(bmeh.Key{7, 7}, 7); err != nil {
		t.Fatal(err)
	}

	// Shard 0 of two owns the prefixes whose top bit — the top bit of
	// component 0 — is clear.
	owned := loadIter(1000)
	n := 0
	mixed := func() (bmeh.KV, bool, error) {
		n++
		if n == 600 {
			return bmeh.KV{Key: bmeh.Key{1<<31 | 5, 5}, Value: 5}, true, nil
		}
		return owned()
	}
	if _, err := cl.Load(mixed, client.LoadOptions{ChunkSize: 128}); err == nil {
		t.Fatal("load with a foreign key committed")
	}
	if ix.Len() != 1 {
		t.Fatalf("Len=%d after the refused load, want 1", ix.Len())
	}

	st, err := cl.Load(loadIter(1000), client.LoadOptions{ChunkSize: 128})
	if err != nil {
		t.Fatalf("load of owned keys: %v", err)
	}
	if st.Loaded != 1000 || ix.Len() != 1001 {
		t.Fatalf("owned load: %+v, Len=%d", st, ix.Len())
	}
}
