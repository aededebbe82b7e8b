package pagestore

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestSyncPolicyEnabled(t *testing.T) {
	if (SyncPolicy{}).Enabled() {
		t.Fatal("zero policy reports enabled")
	}
	if !(SyncPolicy{Interval: time.Millisecond}).Enabled() {
		t.Fatal("interval policy reports disabled")
	}
	if !(SyncPolicy{MaxBatch: 2}).Enabled() {
		t.Fatal("batch policy reports disabled")
	}
}

// TestGroupCommitterCoalesces checks that concurrent Sync calls share
// commits and that every caller observes state staged before its call.
func TestGroupCommitterCoalesces(t *testing.T) {
	var mu sync.Mutex
	staged, committed := 0, 0
	gc := NewGroupCommitter(SyncPolicy{Interval: 2 * time.Millisecond, MaxBatch: 64}, func() error {
		mu.Lock()
		defer mu.Unlock()
		committed = staged
		return nil
	})
	const callers = 32
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			staged++
			mine := staged
			mu.Unlock()
			if err := gc.Sync(); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			ok := committed >= mine
			mu.Unlock()
			if !ok {
				t.Errorf("Sync returned before staged state %d was committed", mine)
			}
		}()
	}
	wg.Wait()
	syncs, commits := gc.Counts()
	if syncs != callers {
		t.Fatalf("syncs = %d, want %d", syncs, callers)
	}
	if commits == 0 || commits > syncs {
		t.Fatalf("commits = %d out of %d syncs", commits, syncs)
	}
	t.Logf("coalesced %d syncs into %d commits", syncs, commits)
}

// TestGroupCommitterPropagatesError checks every group member sees the
// leader's commit error.
func TestGroupCommitterPropagatesError(t *testing.T) {
	wantErr := fmt.Errorf("disk on fire")
	gc := NewGroupCommitter(SyncPolicy{Interval: 5 * time.Millisecond}, func() error {
		return wantErr
	})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := gc.Sync(); err != wantErr {
				t.Errorf("Sync error = %v, want %v", err, wantErr)
			}
		}()
	}
	wg.Wait()
}

// TestFileDiskGroupCommitDurability runs concurrent writers each syncing
// their own page through a GroupCommitter wrapped around the FileDisk's
// commit (the shape bmeh.Index uses), then reopens the surviving bytes:
// every synced page must be durable.
func TestFileDiskGroupCommitDurability(t *testing.T) {
	main, wal := NewMemFile(), NewMemFile()
	fd, err := CreateFileDiskFiles(main, wal, 128)
	if err != nil {
		t.Fatal(err)
	}
	gc := NewGroupCommitter(SyncPolicy{Interval: time.Millisecond, MaxBatch: 8}, fd.Sync)
	const writers = 8
	ids := make([]PageID, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		id, err := fd.Alloc(KindData)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, 8)
			binary.BigEndian.PutUint64(buf, uint64(i)+1)
			if err := fd.Write(ids[i], buf); err != nil {
				t.Error(err)
				return
			}
			if err := gc.Sync(); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	syncs, commits := gc.Counts()
	if syncs != writers {
		t.Fatalf("syncs = %d, want %d", syncs, writers)
	}
	t.Logf("%d syncs, %d commits", syncs, commits)
	// Reopen WITHOUT Close: only Sync-acknowledged state may count.
	fd2, err := OpenFileDiskFiles(main, wal)
	if err != nil {
		t.Fatal(err)
	}
	defer fd2.Close()
	buf := make([]byte, 128)
	for i, id := range ids {
		if err := fd2.Read(id, buf); err != nil {
			t.Fatalf("page %d: %v", id, err)
		}
		if got := binary.BigEndian.Uint64(buf); got != uint64(i)+1 {
			t.Fatalf("page %d holds %d, want %d", id, got, i+1)
		}
	}
}
