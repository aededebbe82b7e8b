package bmeh

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

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

// replicaOver seeds a replica index over the given main and log files
// from a snapshot of a primary holding n keys (replicaKey(0..n-1)), and
// installs a publisher on the primary that collects every later batch.
func replicaOver(t *testing.T, main, wal pagestore.File, n int) (primary, replica *Index, batches func() ([]uint64, [][]pagestore.Frame)) {
	t.Helper()
	primary, err := Create(filepath.Join(t.TempDir(), "primary.bmeh"), Options{Dims: 2, PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	for i := 0; i < n; i++ {
		if err := primary.Insert(replicaKey(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var snap []pagestore.Frame
	seq, _, err := primary.ReplSnapshot(func(id pagestore.PageID, kind pagestore.Kind, data []byte) error {
		snap = append(snap, pagestore.Frame{ID: id, Kind: kind, Data: append([]byte(nil), data...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fd, err := pagestore.CreateFileDiskFiles(main, wal, primary.ReplPageSize())
	if err != nil {
		t.Fatal(err)
	}
	if err := fd.ApplySnapshot(seq, snap); err != nil {
		t.Fatal(err)
	}
	if replica, err = openOn(fd, "replica", Options{}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seqs []uint64
	var frames [][]pagestore.Frame
	if err := primary.SetReplPublisher(func(seq uint64, fr []pagestore.Frame) {
		mu.Lock()
		defer mu.Unlock()
		seqs, frames = append(seqs, seq), append(frames, fr)
	}); err != nil {
		t.Fatal(err)
	}
	return primary, replica, func() ([]uint64, [][]pagestore.Frame) {
		mu.Lock()
		defer mu.Unlock()
		return seqs, frames
	}
}

func replicaKey(i int) Key { return Key{uint64(i) * 2654435761 % (1 << 32), uint64(i)} }

// parkFile is a File whose next Sync, once armed, reports on parked and
// then waits until the release function arm returned is called.
type parkFile struct {
	pagestore.File
	parked chan struct{}
	mu     sync.Mutex
	gate   chan struct{}
}

func newParkFile() *parkFile {
	return &parkFile{File: pagestore.NewMemFile(), parked: make(chan struct{}, 1)}
}

func (f *parkFile) arm(t *testing.T) (release func()) {
	gate := make(chan struct{})
	f.mu.Lock()
	f.gate = gate
	f.mu.Unlock()
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return release
}

func (f *parkFile) Sync() error {
	f.mu.Lock()
	gate := f.gate
	f.gate = nil
	f.mu.Unlock()
	if gate != nil {
		f.parked <- struct{}{}
		<-gate
	}
	return f.File.Sync()
}

// TestReplicaReadsDuringApply parks a replica's apply in its log fsync,
// then in its checkpoint's main-file fsync. Both times replica reads
// return at once and the replica still reports the previous batch; after
// release it reports the new one and its log is back to its bare header.
func TestReplicaReadsDuringApply(t *testing.T) {
	const n = 500
	main, wal := newParkFile(), newParkFile()
	primary, replica, batches := replicaOver(t, main, wal, n)
	// A cleanup, not a defer: on failure it runs after the parked fsyncs
	// are released.
	t.Cleanup(func() { replica.Close() })
	if err := primary.Insert(replicaKey(n), n); err != nil {
		t.Fatal(err)
	}
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}
	seqs, frames := batches()
	if len(seqs) != 1 {
		t.Fatalf("primary published %d batches, want 1", len(seqs))
	}
	seq := seqs[0]
	if got := replica.ReplCommitSeq(); got != seq-1 {
		t.Fatalf("replica at seq %d before the apply, want %d", got, seq-1)
	}

	waitParked := func(f *parkFile, what string) {
		t.Helper()
		select {
		case <-f.parked:
		case <-time.After(10 * time.Second):
			t.Fatalf("the apply never reached the %s", what)
		}
	}
	readsReturn := func(phase string, records int) {
		t.Helper()
		got := make(chan error, 1)
		go func() {
			if v, ok, err := replica.Get(replicaKey(7)); err != nil || !ok || v != 7 {
				got <- errors.New("Get of an old key failed")
				return
			}
			count := 0
			err := replica.Range(Key{0, 0}, Key{1<<32 - 1, 1<<32 - 1}, func(Key, uint64) bool { count++; return true })
			if err == nil && count != records {
				err = fmt.Errorf("Range saw %d records, want %d", count, records)
			}
			got <- err
		}()
		select {
		case err := <-got:
			if err != nil {
				t.Fatalf("%s: %v", phase, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s: replica reads blocked for 1 s", phase)
		}
		if got := replica.ReplCommitSeq(); got != seq-1 {
			t.Fatalf("%s: replica reports seq %d, want %d", phase, got, seq-1)
		}
	}

	releaseLog := wal.arm(t)
	done := make(chan error, 1)
	go func() { done <- replica.ApplyReplSegment(seq, frames[0]) }()
	waitParked(wal, "log fsync")
	readsReturn("log fsync parked", n) // the previous batch's tree
	releaseMain := main.arm(t)
	releaseLog()
	waitParked(main, "checkpoint's main-file fsync")
	readsReturn("checkpoint fsync parked", n+1) // the batch is home
	releaseMain()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the apply never finished")
	}
	if got := replica.ReplCommitSeq(); got != seq {
		t.Fatalf("replica reports seq %d after the apply, want %d", got, seq)
	}
	if size, _ := wal.Size(); size != 16 {
		t.Fatalf("replica log holds %d bytes after the apply, want its 16-byte header", size)
	}
	if v, ok, err := replica.Get(replicaKey(n)); err != nil || !ok || v != n {
		t.Fatalf("replica Get of the new key: %d %v %v", v, ok, err)
	}
}

// failWriteFile is a MemFile whose next WriteAt, once armed, fails.
type failWriteFile struct {
	*pagestore.MemFile
	mu       sync.Mutex
	failNext bool
}

var errWriteFailed = errors.New("injected write failure")

func (f *failWriteFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	fail := f.failNext
	f.failNext = false
	f.mu.Unlock()
	if fail {
		return 0, errWriteFailed
	}
	return f.MemFile.WriteAt(p, off)
}

// TestReplicaApplyFailurePoisons fails a replicated batch after it was
// logged — a home write fails, or the replicated header does not load —
// and resends it. The resend must fail with the first failure, which
// poisoned the store, instead of logging the batch twice or passing as a
// duplicate, and a reopen of the files must land on the batch.
func TestReplicaApplyFailurePoisons(t *testing.T) {
	const n = 300
	for _, homeWrite := range []bool{true, false} {
		main := &failWriteFile{MemFile: pagestore.NewMemFile()}
		wal := pagestore.NewMemFile()
		primary, replica, batches := replicaOver(t, main, wal, n)
		if err := primary.Insert(replicaKey(n), n); err != nil {
			t.Fatal(err)
		}
		if err := primary.Sync(); err != nil {
			t.Fatal(err)
		}
		seqs, frames := batches()
		seq, batch := seqs[0], frames[0]
		if homeWrite {
			main.mu.Lock()
			main.failNext = true
			main.mu.Unlock()
		} else {
			// The index header follows the store's 32-byte page header on
			// the meta page (the batch's last frame); an unknown kind tag
			// fails the reload.
			batch = append([]pagestore.Frame(nil), batch...)
			meta := &batch[len(batch)-1]
			meta.Data = append([]byte(nil), meta.Data...)
			meta.Data[32] = 'X'
		}
		first := replica.ApplyReplSegment(seq, batch)
		if first == nil || (homeWrite && !errors.Is(first, errWriteFailed)) {
			t.Fatalf("homeWrite=%v: failed apply returned %v", homeWrite, first)
		}
		if err := replica.ApplyReplSegment(seq, batch); err == nil || err.Error() != first.Error() {
			t.Fatalf("homeWrite=%v: resent batch returned %v, want the poisoning failure %v", homeWrite, err, first)
		}
		replica.Close()
		fd, err := pagestore.OpenFileDiskFiles(main.MemFile, wal)
		if err != nil {
			t.Fatalf("homeWrite=%v: reopen: %v", homeWrite, err)
		}
		if got := fd.CommitSeq(); got != seq {
			t.Fatalf("homeWrite=%v: reopened replica at seq %d, want %d", homeWrite, got, seq)
		}
		if !homeWrite {
			fd.Close()
			continue
		}
		re, err := openOn(fd, "replica", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if v, ok, err := re.Get(replicaKey(n)); err != nil || !ok || v != n {
			t.Fatalf("reopened replica Get of the batch's key: %d %v %v", v, ok, err)
		}
		re.Close()
	}
}
