package server

// White-box tests for the write queue: requests queued while a commit is
// in flight share the next commit, whatever their opcode, and every
// acknowledged write is durable without a clean close.

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bmeh"
	"bmeh/client"
)

// HoldCommits lets the external tests of this package hold a commit.
var HoldCommits = holdCommits

// holdCommits parks an ix.Scan callback until release is called (or the
// test ends). The scan holds the index lock shared and Sync needs it
// exclusive, so the next commit waits for the release — and once a commit
// waits, so does every other call that takes the lock (GET, DEL, STATS).
// The index must hold at least one record.
func holdCommits(t *testing.T, ix *bmeh.Index) (release func()) {
	t.Helper()
	parked, unpark := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- ix.Scan(func(bmeh.Key, uint64) bool {
			close(parked)
			<-unpark
			return false
		})
	}()
	select {
	case <-parked:
	case err := <-done:
		t.Fatalf("scan returned without parking (empty index?): %v", err)
	}
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(unpark)
			if err := <-done; err != nil {
				t.Errorf("held scan: %v", err)
			}
		})
	}
	t.Cleanup(release)
	return release
}

// serveIndex serves ix on a loopback listener until the test ends.
func serveIndex(t *testing.T, ix *bmeh.Index) (*Server, string) {
	t.Helper()
	s := New(ix, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ln.Addr().String()
}

// dialN opens n single-connection clients.
func dialN(t *testing.T, addr string, n int) []*client.Client {
	t.Helper()
	cls := make([]*client.Client, n)
	for i := range cls {
		cl, err := client.Dial(addr, client.Options{PoolSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		cls[i] = cl
	}
	return cls
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// copyIndexFiles copies the index file and its WAL as they are on disk
// now, which is what a reboot after a crash at this instant would find.
func copyIndexFiles(t *testing.T, path string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), filepath.Base(path))
	for _, suffix := range []string{"", ".wal"} {
		b, err := os.ReadFile(path + suffix)
		if err == nil {
			err = os.WriteFile(dst+suffix, b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestWriteQueueSharesOneCommit: with a commit in flight, a PUT, a
// duplicate PUT, a BATCH and a SYNC queued from four connections all ride
// the one commit that follows it; each gets its own answer, and every
// acknowledged key is durable without a clean close.
func TestWriteQueueSharesOneCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ix.bmeh")
	ix, err := bmeh.Create(path, bmeh.Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	if _, err := ix.InsertBatch([]bmeh.KV{{Key: bmeh.Key{1, 1}, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	s, addr := serveIndex(t, ix)
	cls := dialN(t, addr, 4)

	// Park the queue inside one request's answer, so that the next batch
	// forms from what is queued meanwhile: maxBatch requests fill it to
	// the cap (queued requests always join, however late the queue runs
	// against its window). Hold that batch's commit; everything queued
	// after it waits for the next one. The batch writes one key, so that
	// its commit is not empty.
	parked, unpark := make(chan struct{}), make(chan struct{})
	s.co.enqueue(writeReq{done: func([]bool, error) {
		close(parked)
		<-unpark
	}})
	<-parked
	seq0 := ix.ReplCommitSeq()
	release := holdCommits(t, ix)
	var held atomic.Int64
	for i := 0; i < maxBatch; i++ {
		var kvs []bmeh.KV
		if i == 0 {
			kvs = []bmeh.KV{{Key: bmeh.Key{5, 5}, Value: 5}}
		}
		s.co.enqueue(writeReq{kvs: kvs, done: func(_ []bool, err error) {
			if err != nil {
				t.Errorf("held batch: %v", err)
			}
			held.Add(1)
		}})
	}
	close(unpark)

	put := cls[0].PutAsync(bmeh.Key{2, 2}, 2)
	dupPut := cls[1].PutAsync(bmeh.Key{1, 1}, 9)
	type batchResult struct {
		n   int
		err error
	}
	batchDone, syncDone := make(chan batchResult, 1), make(chan error, 1)
	go func() {
		n, err := cls[2].Batch([]bmeh.KV{
			{Key: bmeh.Key{3, 3}, Value: 3},
			{Key: bmeh.Key{1, 1}, Value: 9}, // duplicate
			{Key: bmeh.Key{4, 4}, Value: 4},
		})
		batchDone <- batchResult{n, err}
	}()
	go func() { syncDone <- cls[3].Sync() }()
	// The channel is FIFO, so the held batch takes exactly the maxBatch
	// requests ahead of these four; four left queued means it has.
	waitFor(t, "the held batch to take its requests and four more to queue", func() bool { return len(s.co.ch) == 4 })
	release()

	if err := put.Wait(); err != nil {
		t.Errorf("PUT: %v", err)
	}
	if err := dupPut.Wait(); !errors.Is(err, bmeh.ErrDuplicate) {
		t.Errorf("duplicate PUT: %v, want ErrDuplicate", err)
	}
	if r := <-batchDone; r.err != nil || r.n != 2 {
		t.Errorf("BATCH: %d inserted, %v; want 2", r.n, r.err)
	}
	if err := <-syncDone; err != nil {
		t.Errorf("SYNC: %v", err)
	}
	if got := held.Load(); got != maxBatch {
		t.Errorf("held batch answered %d of %d requests", got, maxBatch)
	}
	if got := ix.ReplCommitSeq() - seq0; got != 2 {
		t.Errorf("commit sequence advanced by %d, want 2 (the held commit and one shared)", got)
	}

	re, err := bmeh.Open(copyIndexFiles(t, path), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for k, want := range map[[2]uint64]uint64{{1, 1}: 1, {2, 2}: 2, {3, 3}: 3, {4, 4}: 4, {5, 5}: 5} {
		v, ok, err := re.Get(bmeh.Key{k[0], k[1]})
		if err != nil || !ok || v != want {
			t.Errorf("after reopen, key %v: %d %v %v; want %d", k, v, ok, err, want)
		}
	}
}

// TestWriteQueueClosedIndex: on a closed index, PUT, BATCH and SYNC each
// answer with an error instead of hanging or reporting success.
func TestWriteQueueClosedIndex(t *testing.T) {
	ix, err := bmeh.Create(filepath.Join(t.TempDir(), "ix.bmeh"), bmeh.Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, addr := serveIndex(t, ix)
	cl := dialN(t, addr, 1)[0]
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	var re client.RemoteError
	if err := cl.Put(bmeh.Key{1, 1}, 1); !errors.As(err, &re) {
		t.Errorf("PUT on a closed index: %v, want a remote error", err)
	}
	if _, err := cl.Batch([]bmeh.KV{{Key: bmeh.Key{2, 2}, Value: 2}}); !errors.As(err, &re) {
		t.Errorf("BATCH on a closed index: %v, want a remote error", err)
	}
	if err := cl.Sync(); !errors.As(err, &re) {
		t.Errorf("SYNC on a closed index: %v, want a remote error", err)
	}
}
