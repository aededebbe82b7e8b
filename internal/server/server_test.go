package server_test

import (
	"bufio"
	"context"
	"errors"
	"net"
	"path/filepath"
	"testing"
	"time"

	"bmeh"
	"bmeh/client"
	"bmeh/internal/server"
	"bmeh/internal/wire"
)

// newIndex builds a Dims=2 index on the requested backend ("mem" or
// "file"), with a cache and group commit the way a production server
// would run.
func newIndex(t *testing.T, backend string) *bmeh.Index {
	t.Helper()
	opts := bmeh.Options{
		Dims:       2,
		SyncPolicy: bmeh.SyncPolicy{Interval: 200 * time.Microsecond, MaxBatch: 64},
	}
	switch backend {
	case "mem":
		ix, err := bmeh.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	case "file":
		ix, err := bmeh.Create(filepath.Join(t.TempDir(), "ix.bmeh"), opts)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	default:
		t.Fatalf("unknown backend %q", backend)
		return nil
	}
}

// startServer serves ix on a loopback listener and returns the address.
// The server (not the index) is shut down at test cleanup.
func startServer(t *testing.T, ix *bmeh.Index, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv := server.New(ix, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil && !errors.Is(err, server.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func TestServerEndToEnd(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			ix := newIndex(t, backend)
			defer ix.Close()
			_, addr := startServer(t, ix, server.Config{})
			cl, err := client.Dial(addr, client.Options{PoolSize: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			// PUT + GET.
			if err := cl.Put(bmeh.Key{1, 2}, 100); err != nil {
				t.Fatalf("put: %v", err)
			}
			if err := cl.Put(bmeh.Key{3, 4}, 200); err != nil {
				t.Fatalf("put: %v", err)
			}
			v, ok, err := cl.Get(bmeh.Key{1, 2})
			if err != nil || !ok || v != 100 {
				t.Fatalf("get: %d %v %v", v, ok, err)
			}
			if _, ok, err := cl.Get(bmeh.Key{9, 9}); err != nil || ok {
				t.Fatalf("absent get: %v %v", ok, err)
			}

			// Duplicate PUT surfaces bmeh.ErrDuplicate.
			if err := cl.Put(bmeh.Key{1, 2}, 101); !errors.Is(err, bmeh.ErrDuplicate) {
				t.Fatalf("duplicate put: %v", err)
			}
			if v, _, _ := cl.Get(bmeh.Key{1, 2}); v != 100 {
				t.Fatalf("duplicate overwrote: %d", v)
			}

			// BATCH counts inserts, skips duplicates.
			n, err := cl.Batch([]bmeh.KV{
				{Key: bmeh.Key{5, 6}, Value: 300},
				{Key: bmeh.Key{1, 2}, Value: 999}, // dup
				{Key: bmeh.Key{7, 8}, Value: 400},
			})
			if err != nil || n != 2 {
				t.Fatalf("batch: %d %v", n, err)
			}

			// RANGE over everything, then a box.
			kvs, more, err := cl.Range(bmeh.Key{0, 0}, bmeh.Key{100, 100}, 0)
			if err != nil || more || len(kvs) != 4 {
				t.Fatalf("range: %d kvs, more=%v, %v", len(kvs), more, err)
			}
			kvs, _, err = cl.Range(bmeh.Key{3, 4}, bmeh.Key{5, 6}, 0)
			if err != nil || len(kvs) != 2 {
				t.Fatalf("box range: %d kvs, %v", len(kvs), err)
			}
			// Truncation: limit 1 must set the continuation flag.
			kvs, more, err = cl.Range(bmeh.Key{0, 0}, bmeh.Key{100, 100}, 1)
			if err != nil || !more || len(kvs) != 1 {
				t.Fatalf("limited range: %d kvs, more=%v, %v", len(kvs), more, err)
			}

			// DEL present and absent.
			if ok, err := cl.Delete(bmeh.Key{3, 4}); err != nil || !ok {
				t.Fatalf("delete: %v %v", ok, err)
			}
			if ok, err := cl.Delete(bmeh.Key{3, 4}); err != nil || ok {
				t.Fatalf("re-delete: %v %v", ok, err)
			}

			// SYNC.
			if err := cl.Sync(); err != nil {
				t.Fatalf("sync: %v", err)
			}

			// STATS reflects the geometry and the record count.
			st, err := cl.Stats()
			if err != nil {
				t.Fatalf("stats: %v", err)
			}
			if st.Dims != 2 || st.Scheme != bmeh.SchemeBMEH || st.Records != 3 {
				t.Fatalf("stats: %+v", st)
			}

			// A key of the wrong dimensionality is a remote error, not a
			// dropped connection.
			var re client.RemoteError
			if _, _, err := cl.Get(bmeh.Key{1}); !errors.As(err, &re) {
				t.Fatalf("dims mismatch: %v", err)
			}
			if _, _, err := cl.Get(bmeh.Key{1, 2}); err != nil {
				t.Fatalf("connection unusable after remote error: %v", err)
			}
		})
	}
}

// TestPipelining drives the wire protocol directly: many requests
// written back to back before any response is read, responses matched
// by ID in whatever order they arrive.
func TestPipelining(t *testing.T) {
	ix := newIndex(t, "mem")
	defer ix.Close()
	_, addr := startServer(t, ix, server.Config{})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	r := wire.NewReader(bufio.NewReader(nc), 0)
	collect := func(want int) (map[uint64]wire.Status, map[uint64]uint64, []uint64) {
		t.Helper()
		got := make(map[uint64]wire.Status, want)
		values := make(map[uint64]uint64)
		order := make([]uint64, 0, want)
		for len(got) < want {
			fr, err := r.Next()
			if err != nil {
				t.Fatalf("after %d responses: %v", len(got), err)
			}
			st, body, err := wire.DecodeStatus(fr.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := got[fr.ID]; dup {
				t.Fatalf("response ID %d repeated", fr.ID)
			}
			got[fr.ID] = st
			order = append(order, fr.ID)
			if fr.Op == wire.OpGet.Response() && st == wire.StatusOK {
				v, err := wire.DecodeGetRespBody(body)
				if err != nil {
					t.Fatal(err)
				}
				values[fr.ID] = v
			}
		}
		return got, values, order
	}

	// Phase 1: 64 PUTs and a SYNC, all written before reading one
	// response. The PUTs complete when the coalescer's shared batch
	// commits; the SYNC runs concurrently — completion order is free.
	const n = 64
	var buf []byte
	for i := 0; i < n; i++ {
		buf = wire.AppendFrame(buf, wire.Frame{
			Op: wire.OpPut, ID: uint64(i),
			Payload: wire.AppendPutReq(nil, []uint64{uint64(i), uint64(i)}, uint64(1000+i)),
		})
	}
	buf = wire.AppendFrame(buf, wire.Frame{Op: wire.OpSync, ID: 9999})
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	got, _, _ := collect(n + 1)
	for i := 0; i < n; i++ {
		if got[uint64(i)] != wire.StatusOK {
			t.Fatalf("PUT %d: status %d", i, got[uint64(i)])
		}
	}
	if got[9999] != wire.StatusOK {
		t.Fatalf("SYNC: status %d", got[9999])
	}

	// Phase 2: with every PUT acknowledged, pipelined GETs observe them
	// (acknowledged writes are visible to any later request; a GET
	// pipelined behind an *unacknowledged* PUT has no such guarantee —
	// see the package comment on ordering).
	buf = buf[:0]
	for i := 0; i < n; i++ {
		buf = wire.AppendFrame(buf, wire.Frame{
			Op: wire.OpGet, ID: uint64(10000 + i),
			Payload: wire.AppendGetReq(nil, []uint64{uint64(i), uint64(i)}),
		})
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	got, values, order := collect(n)
	for i := 0; i < n; i++ {
		id := uint64(10000 + i)
		if got[id] != wire.StatusOK || values[id] != uint64(1000+i) {
			t.Fatalf("GET %d: status %d value %d", i, got[id], values[id])
		}
	}
	// The protocol permits out-of-order completion; log what happened
	// rather than assert — ordering is legal either way.
	inOrder := true
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inOrder = false
			break
		}
	}
	t.Logf("GET responses in submission order: %v", inOrder)
}

// TestDecodeErrorClosesConn: a frame with a corrupted checksum makes the
// server drop the connection (the stream cannot be trusted), without
// taking the server down.
func TestDecodeErrorClosesConn(t *testing.T) {
	ix := newIndex(t, "mem")
	defer ix.Close()
	_, addr := startServer(t, ix, server.Config{})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	frame := wire.AppendFrame(nil, wire.Frame{Op: wire.OpGet, ID: 1, Payload: wire.AppendGetReq(nil, []uint64{1, 2})})
	frame[len(frame)-1] ^= 0xff // corrupt payload → CRC mismatch
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered a corrupt frame")
	}

	// The server still serves new connections.
	cl, err := client.Dial(addr, client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.Get(bmeh.Key{1, 2}); err != nil {
		t.Fatalf("server unusable after corrupt frame: %v", err)
	}
}

// TestDrainAndRestart is the serving-layer recovery contract: graceful
// shutdown leaves a WAL-clean file, a restarted server sees every
// acknowledged write, and recovery reports the shutdown as clean.
func TestDrainAndRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.bmeh")
	opts := bmeh.Options{
		Dims:       2,
		SyncPolicy: bmeh.SyncPolicy{Interval: 200 * time.Microsecond, MaxBatch: 64},
	}
	ix, err := bmeh.Create(path, opts)
	if err != nil {
		t.Fatal(err)
	}

	srv := server.New(ix, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	cl, err := client.Dial(ln.Addr().String(), client.Options{PoolSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := cl.Put(bmeh.Key{uint64(i), uint64(i % 17)}, uint64(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	// Drain: acknowledged writes must be durable and the WAL reset.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("Serve: %v", err)
	}
	cl.Close()
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: clean recovery, all data present, serving again.
	ix2, err := bmeh.Open(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if rec := ix2.Recovery(); !rec.CleanShutdown() {
		t.Fatalf("recovery not clean: %+v", rec)
	}
	if ix2.Len() != n {
		t.Fatalf("restart lost records: %d of %d", ix2.Len(), n)
	}
	_, addr2 := startServer(t, ix2, server.Config{})
	cl2, err := client.Dial(addr2, client.Options{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	for i := 0; i < n; i += 37 {
		v, ok, err := cl2.Get(bmeh.Key{uint64(i), uint64(i % 17)})
		if err != nil || !ok || v != uint64(i) {
			t.Fatalf("restarted get %d: %d %v %v", i, v, ok, err)
		}
	}
}

// TestDrainCompletesInFlight: requests pipelined before the drain begins
// are answered, not dropped.
func TestDrainCompletesInFlight(t *testing.T) {
	ix := newIndex(t, "mem")
	defer ix.Close()
	srv := server.New(ix, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	cl, err := client.Dial(ln.Addr().String(), client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const n = 256
	calls := make([]*client.Call, n)
	for i := 0; i < n; i++ {
		calls[i] = cl.PutAsync(bmeh.Key{uint64(i), 0}, uint64(i))
	}
	// Drain only guarantees answers for requests the server has received;
	// wait for the first ack so the stream is demonstrably in flight.
	if err := calls[0].Wait(); err != nil {
		t.Fatalf("first put: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("Serve: %v", err)
	}
	acked := 0
	for _, call := range calls {
		if call.Wait() == nil {
			acked++
		}
	}
	// Everything the server read before the drain deadline is answered;
	// everything acknowledged must be in the index.
	if ix.Len() < acked {
		t.Fatalf("%d acks but %d records", acked, ix.Len())
	}
	if acked == 0 {
		t.Fatal("no puts were acknowledged before drain")
	}
	t.Logf("acked %d/%d puts across drain", acked, n)
}
