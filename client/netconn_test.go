package client

// White-box tests for one pipelined connection's write path.

import (
	"net"
	"sync"
	"testing"
	"time"

	"bmeh/internal/wire"
)

// gatedConn is a net.Conn whose first Write blocks until release is
// closed. It records every Write; reads block until Close.
type gatedConn struct {
	net.Conn // nil: only the methods below are used
	release  chan struct{}
	closed   chan struct{}
	once     sync.Once

	mu     sync.Mutex
	writes [][]byte
}

func (c *gatedConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	first := len(c.writes) == 0
	c.writes = append(c.writes, append([]byte(nil), b...))
	c.mu.Unlock()
	if first {
		<-c.release
	}
	return len(b), nil
}

func (c *gatedConn) Read([]byte) (int, error) {
	<-c.closed
	return 0, net.ErrClosed
}

func (c *gatedConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// TestLastSenderFlushes: while the first sender's write is stuck, 31 more
// senders queue behind it; once it returns, the last of them flushes for
// all, so the 32 frames reach the socket in two writes, not 32.
func TestLastSenderFlushes(t *testing.T) {
	gc := &gatedConn{release: make(chan struct{}), closed: make(chan struct{})}
	cn := newNetConn(gc, 0)
	defer cn.fail(&ConnError{Err: net.ErrClosed})
	const senders = 32
	var wg sync.WaitGroup
	send := func() {
		defer wg.Done()
		cn.send(wire.OpGet, wire.AppendGetReq(nil, []uint64{1, 2}), 0)
	}
	wg.Add(1)
	go send()
	for deadline := time.Now().Add(10 * time.Second); ; {
		gc.mu.Lock()
		stuck := len(gc.writes) == 1
		gc.mu.Unlock()
		if stuck {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first sender never wrote")
		}
		time.Sleep(100 * time.Microsecond)
	}
	wg.Add(senders - 1)
	for i := 1; i < senders; i++ {
		go send()
	}
	for deadline := time.Now().Add(10 * time.Second); cn.senders.Load() < senders-1; {
		if time.Now().After(deadline) {
			t.Fatalf("%d senders queued, want %d", cn.senders.Load(), senders-1)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(gc.release)
	wg.Wait()

	gc.mu.Lock()
	defer gc.mu.Unlock()
	frames := 0
	for _, w := range gc.writes {
		for len(w) > 0 {
			_, n, err := wire.DecodeFrame(w, 0)
			if err != nil {
				t.Fatal(err)
			}
			w = w[n:]
			frames++
		}
	}
	if frames != senders || len(gc.writes) > 2 {
		t.Fatalf("%d frames in %d writes, want %d frames in ≤ 2", frames, len(gc.writes), senders)
	}
}
