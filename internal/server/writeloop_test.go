package server

// White-box tests for the connection writer: queued responses leave in
// shared writes, and frames too large to batch are written as they are,
// without the batch buffer growing to hold them.

import (
	"bufio"
	"context"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bmeh"
	"bmeh/client"
	"bmeh/internal/repl"
	"bmeh/internal/wire"
)

// writeCounter tallies the Write calls made on every connection a
// countingListener accepts, and the largest one. Each Write first waits
// out delay.
type writeCounter struct {
	calls, largest atomic.Int64
	delay          time.Duration
}

type countingListener struct {
	net.Listener
	w *writeCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: nc, w: l.w}, nil
}

type countingConn struct {
	net.Conn
	w *writeCounter
}

func (c countingConn) Write(b []byte) (int, error) {
	c.w.calls.Add(1)
	time.Sleep(c.w.delay)
	for n := int64(len(b)); ; {
		cur := c.w.largest.Load()
		if n <= cur || c.w.largest.CompareAndSwap(cur, n) {
			break
		}
	}
	return c.Conn.Write(b)
}

// serveCounting serves ix with cfg behind a countingListener whose
// writes each take at least delay, until the test ends.
func serveCounting(t *testing.T, ix *bmeh.Index, cfg Config, delay time.Duration) (*Server, string, *writeCounter) {
	t.Helper()
	s := New(ix, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := &writeCounter{delay: delay}
	go s.Serve(countingListener{Listener: ln, w: w})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ln.Addr().String(), w
}

// TestWriterCoalescesResponses: 32 goroutines pipelining GETs over one
// connection get their answers in far fewer writes than responses — the
// writer drains what is queued into one write instead of one per frame.
// Each write takes a millisecond, a socket slower than the reader, so
// responses queue behind every write whatever the relative speed of this
// machine's lookups and syscalls (an instrumented build answers GETs
// more slowly than a write syscall takes).
func TestWriterCoalescesResponses(t *testing.T) {
	ix, err := bmeh.New(bmeh.Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.Insert(bmeh.Key{1, 2}, 3); err != nil {
		t.Fatal(err)
	}
	_, addr, w := serveCounting(t, ix, Config{}, time.Millisecond)
	cl, err := client.Dial(addr, client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const callers, perCaller = 32, 500
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				if _, _, err := cl.Get(bmeh.Key{1, 2}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	perResponse := float64(w.calls.Load()) / (callers * perCaller)
	t.Logf("%d writes for %d responses (%.3f per response)", w.calls.Load(), callers*perCaller, perResponse)
	if perResponse > 0.2 {
		t.Fatalf("%.3f writes per response, want ≤ 0.2", perResponse)
	}
}

// TestWriterLargeFramesUnbatched: a snapshot of several MiB streamed over
// REPL travels in chunks far above the batch cap; each leaves in a write
// of its own size, and the connection's batch buffer never outgrows the
// cap.
func TestWriterLargeFramesUnbatched(t *testing.T) {
	ix, err := bmeh.Create(filepath.Join(t.TempDir(), "ix.bmeh"), bmeh.Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	i := uint64(0)
	next := func() (bmeh.KV, bool, error) {
		i++
		return bmeh.KV{Key: bmeh.Key{i, i * 7}, Value: i}, i <= 100_000, nil
	}
	if _, err := ix.BulkLoad(next, bmeh.BulkOptions{}); err != nil {
		t.Fatal(err)
	}
	// A hub created after the commits holds no history, so a subscriber
	// from sequence 0 is seeded by snapshot.
	hub := repl.NewHub(ix, repl.HubOptions{HeartbeatInterval: -1})
	defer hub.Close()
	const maxPayload = 1 << 20
	s, addr, w := serveCounting(t, ix, Config{Hub: hub, MaxPayload: maxPayload}, 0)

	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := nc.Write(wire.AppendFrame(nil, wire.Frame{Op: wire.OpReplSubscribe, ID: 1, Payload: wire.AppendSeq(nil, 0)})); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(bufio.NewReader(nc), maxPayload)
	if fr, err := r.Next(); err != nil || fr.Op != wire.OpReplSubscribe.Response() {
		t.Fatalf("subscribe answer: %v %v", fr.Op, err)
	}
	var snapBytes, chunks int
	for done := false; !done; {
		fr, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		_, body, err := wire.DecodeStatus(fr.Payload)
		if err != nil {
			t.Fatal(err)
		}
		m, err := wire.DecodeReplMsgBody(body)
		if err != nil {
			t.Fatal(err)
		}
		snapBytes += len(fr.Payload)
		if m.Kind == wire.ReplSnapPages {
			chunks++
		}
		done = m.Kind == wire.ReplSnapEnd
	}
	t.Logf("snapshot of %d bytes in %d chunks", snapBytes, chunks)
	if snapBytes < 4<<20 || chunks < 4 {
		t.Fatalf("snapshot of %d bytes in %d chunks, want several MiB in several chunks", snapBytes, chunks)
	}
	if got := w.largest.Load(); got <= writeBatchBytes {
		t.Fatalf("largest write %d bytes, want a whole chunk above the %d-byte batch cap", got, writeBatchBytes)
	}

	var c *conn
	s.mu.Lock()
	for sc := range s.conns {
		c = sc
	}
	s.mu.Unlock()
	if c == nil {
		t.Fatal("subscriber's connection is not registered")
	}
	nc.Close()
	<-c.writerDone
	if cap(c.wbuf) > writeBatchBytes {
		t.Fatalf("writer kept a %d-byte batch buffer, cap is %d", cap(c.wbuf), writeBatchBytes)
	}
}
