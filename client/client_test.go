package client_test

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"bmeh"
	"bmeh/client"
	"bmeh/internal/server"
	"bmeh/internal/wire"
)

func newServer(t *testing.T) (*server.Server, *bmeh.Index, string, chan error) {
	t.Helper()
	ix, err := bmeh.New(bmeh.Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	srv := server.New(ix, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	})
	return srv, ix, ln.Addr().String(), done
}

func TestDialFailure(t *testing.T) {
	// A port nothing listens on: Dial must fail fast with a *ConnError.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var ce *client.ConnError
	if _, err := client.Dial(addr, client.Options{DialTimeout: 2 * time.Second}); !errors.As(err, &ce) {
		t.Fatalf("dial to closed port: %v", err)
	}
}

// flakyListener accepts connections; the first `drops` of them are torn
// down right after the first request frame arrives (the classic
// restart-under-load shape), later ones answer every GET with NotFound
// and every PUT with OK.
func flakyListener(t *testing.T, drops int) (addr string, accepted *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted = new(atomic.Int64)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			n := accepted.Add(1)
			go func(nc net.Conn, kill bool) {
				defer nc.Close()
				r := wire.NewReader(bufio.NewReader(nc), 0)
				for {
					fr, err := r.Next()
					if err != nil {
						return
					}
					if kill {
						return // connection dies with the request unanswered
					}
					var st wire.Status
					switch fr.Op {
					case wire.OpGet:
						st = wire.StatusNotFound
					default:
						st = wire.StatusOK
					}
					resp := wire.AppendFrame(nil, wire.Frame{
						Op: fr.Op.Response(), ID: fr.ID,
						Payload: wire.AppendStatus(nil, st, ""),
					})
					if _, err := nc.Write(resp); err != nil {
						return
					}
				}
			}(nc, int(n) <= drops)
		}
	}()
	return ln.Addr().String(), accepted
}

// TestRetryIdempotentOnly: a GET whose connection dies mid-flight is
// retried on a fresh connection; a PUT in the same situation is not —
// the caller gets the *ConnError and owns the ambiguity.
func TestRetryIdempotentOnly(t *testing.T) {
	addr, accepted := flakyListener(t, 1)
	cl, err := client.Dial(addr, client.Options{
		PoolSize: 1, Retries: 2, RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Conn 1 dies on the GET; the retry dials conn 2 and succeeds.
	if _, ok, err := cl.Get(bmeh.Key{1, 2}); err != nil || ok {
		t.Fatalf("retried get: ok=%v err=%v", ok, err)
	}
	if got := accepted.Load(); got != 2 {
		t.Fatalf("connections used for retried GET: %d, want 2", got)
	}

	// Fresh flaky endpoint: the PUT must NOT be retried.
	addr, accepted = flakyListener(t, 1)
	cl2, err := client.Dial(addr, client.Options{
		PoolSize: 1, Retries: 2, RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	var ce *client.ConnError
	if err := cl2.Put(bmeh.Key{1, 2}, 7); !errors.As(err, &ce) {
		t.Fatalf("put on dying conn: %v", err)
	}
	if got := accepted.Load(); got != 1 {
		t.Fatalf("connections used for failed PUT: %d, want 1 (no retry)", got)
	}
	// The pool recovers for the next idempotent call.
	if _, _, err := cl2.Get(bmeh.Key{1, 2}); err != nil {
		t.Fatalf("get after failed put: %v", err)
	}
}

// TestRequestTimeout: a server that accepts but never answers trips the
// per-request deadline; the failure is a retryable *ConnError and the
// configured retries are consumed.
func TestRequestTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int64
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			// Swallow bytes, never respond.
			go func(nc net.Conn) {
				defer nc.Close()
				buf := make([]byte, 4096)
				for {
					if _, err := nc.Read(buf); err != nil {
						return
					}
				}
			}(nc)
		}
	}()
	cl, err := client.Dial(ln.Addr().String(), client.Options{
		PoolSize: 1, Retries: 1, RequestTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	_, _, err = cl.Get(bmeh.Key{1, 2})
	var ce *client.ConnError
	if !errors.As(err, &ce) {
		t.Fatalf("silent server: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	if got := accepted.Load(); got != 2 {
		t.Fatalf("attempts against silent server: %d, want 2 (1 + 1 retry)", got)
	}
}

// TestServerRestartMidPipeline: a pipeline of async calls is severed by
// a forced server stop; every call completes (no hangs), the client
// redials after the server returns, and idempotent sync calls succeed
// again.
func TestServerRestartMidPipeline(t *testing.T) {
	ix, err := bmeh.New(bmeh.Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := server.New(ix, server.Config{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	cl, err := client.Dial(addr, client.Options{
		PoolSize: 1, Retries: 3, RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Put(bmeh.Key{0, 0}, 42); err != nil {
		t.Fatal(err)
	}

	// Pipeline a burst, then yank the server with an already-expired
	// context (forced close, no drain courtesy).
	calls := make([]*client.Call, 200)
	for i := range calls {
		if i%2 == 0 {
			calls[i] = cl.PutAsync(bmeh.Key{uint64(i + 1), 1}, uint64(i))
		} else {
			calls[i] = cl.GetAsync(bmeh.Key{0, 0})
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srv.Shutdown(ctx)
	<-done

	succeeded, failed := 0, 0
	deadline := time.After(10 * time.Second)
	for _, call := range calls {
		select {
		case <-call.Done():
		case <-deadline:
			t.Fatal("async call hung across server restart")
		}
		if call.Err != nil {
			var ce *client.ConnError
			var re client.RemoteError
			if !errors.As(call.Err, &ce) && !errors.As(call.Err, &re) {
				t.Fatalf("unexpected error kind: %v", call.Err)
			}
			failed++
		} else {
			succeeded++
		}
	}
	t.Logf("across restart: %d completed, %d failed", succeeded, failed)

	// Restart on the same address; the pool redials transparently for
	// the next (retryable) call.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten: %v", err)
	}
	srv2 := server.New(ix, server.Config{})
	done2 := make(chan error, 1)
	go func() { done2 <- srv2.Serve(ln2) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv2.Shutdown(ctx)
		<-done2
	}()

	v, ok, err := cl.Get(bmeh.Key{0, 0})
	if err != nil || !ok || v != 42 {
		t.Fatalf("get after restart: %d %v %v", v, ok, err)
	}
}

func TestClientClosed(t *testing.T) {
	_, _, addr, _ := newServer(t)
	cl, err := client.Dial(addr, client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if _, _, err := cl.Get(bmeh.Key{1, 2}); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("get on closed client: %v", err)
	}
}

// TestAsyncPipelineDepth: one goroutine keeps many GETs in flight and
// they all come back correct — the pipelined happy path.
func TestAsyncPipelineDepth(t *testing.T) {
	_, ix, addr, _ := newServer(t)
	for i := 0; i < 512; i++ {
		if err := ix.Insert(bmeh.Key{uint64(i), uint64(i)}, uint64(i*3)); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := client.Dial(addr, client.Options{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	calls := make([]*client.Call, 512)
	for i := range calls {
		calls[i] = cl.GetAsync(bmeh.Key{uint64(i), uint64(i)})
	}
	for i, call := range calls {
		if err := call.Wait(); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !call.Found || call.Value != uint64(i*3) {
			t.Fatalf("get %d: found=%v value=%d", i, call.Found, call.Value)
		}
	}
}
