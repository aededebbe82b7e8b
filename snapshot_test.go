package bmeh

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSnapshotFrozenView: a snapshot keeps serving the exact state it
// pinned while the live index churns past it.
func TestSnapshotFrozenView(t *testing.T) {
	ix, err := New(Options{Dims: 2, PageCapacity: 8, WriteMode: WriteModeCOW})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	keys := randKeys(1500, 2, 41)
	half := len(keys) / 2
	for i, k := range keys[:half] {
		if err := ix.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := ix.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	epoch := snap.Epoch()

	// Churn the live tree: delete a third of the pinned keys, insert the
	// rest of the keyspace, overwriting nothing the snapshot holds.
	for i := 0; i < half; i += 3 {
		if ok, err := ix.Delete(keys[i]); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	for i, k := range keys[half:] {
		if err := ix.Insert(k, uint64(half+i)); err != nil {
			t.Fatal(err)
		}
	}

	if snap.Len() != half {
		t.Fatalf("snapshot Len = %d, want %d", snap.Len(), half)
	}
	if snap.Epoch() != epoch {
		t.Fatalf("snapshot epoch moved: %d -> %d", epoch, snap.Epoch())
	}
	for i, k := range keys[:half] {
		v, ok, err := snap.Get(k)
		if err != nil || !ok || v != uint64(i) {
			t.Fatalf("snapshot get %d: v=%d ok=%v err=%v", i, v, ok, err)
		}
	}
	for _, k := range keys[half:] {
		if _, ok, _ := snap.Get(k); ok {
			t.Fatalf("snapshot sees key %v inserted after the pin", k)
		}
	}
	// A full-box Range covers exactly the pinned records.
	n := 0
	err = snap.Range(Key{0, 0}, Key{math.MaxUint32, math.MaxUint32}, func(Key, uint64) bool {
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != half {
		t.Fatalf("snapshot range saw %d records, want %d", n, half)
	}

	st := ix.SnapshotStats()
	if !st.COW || st.PinnedEpochs != 1 {
		t.Fatalf("implausible stats with one open snapshot: %+v", st)
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	st = ix.SnapshotStats()
	if st.PinnedEpochs != 0 || st.ReclaimablePages != 0 {
		t.Fatalf("pages left unreclaimed after last close: %+v", st)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotConsistencyUnderWriter: snapshots taken while a writer
// saturates the index always see an internally consistent cut — the
// record count of a full scan equals Len at the pin, for every snapshot.
// Run under -race this also exercises the epoch-reclamation fences.
func TestSnapshotConsistencyUnderWriter(t *testing.T) {
	ix, err := New(Options{Dims: 2, PageCapacity: 8, WriteMode: WriteModeCOW})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	keys := randKeys(3000, 2, 43)
	for i, k := range keys[:1000] {
		if err := ix.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var writer sync.WaitGroup
	writer.Add(1)
	go func() { // saturating writer: rolling insert/delete window
		defer writer.Done()
		for i := 1000; !stop.Load(); i++ {
			k := keys[i%len(keys)]
			if _, ok, _ := ix.Get(k); ok {
				if _, err := ix.Delete(k); err != nil {
					t.Error(err)
					return
				}
			} else if err := ix.Insert(k, uint64(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	lo, hi := Key{0, 0}, Key{math.MaxUint32, math.MaxUint32}
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for iter := 0; iter < 30; iter++ {
				snap, err := ix.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				want := snap.Len()
				got := 0
				if err := snap.Range(lo, hi, func(Key, uint64) bool { got++; return true }); err != nil {
					t.Error(err)
				} else if got != want {
					t.Errorf("iter %d: range saw %d records, snapshot Len = %d", iter, got, want)
				}
				snap.Close()
			}
		}()
	}
	readers.Wait()
	stop.Store(true)
	writer.Wait()
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	// With every snapshot closed nothing may stay pinned or pending, and
	// the writer's commits must have gone through the COW root swap.
	st := ix.SnapshotStats()
	if st.PinnedEpochs != 0 || st.ReclaimablePages != 0 {
		t.Fatalf("leak: %d pinned epochs, %d reclaimable pages after all snapshots closed", st.PinnedEpochs, st.ReclaimablePages)
	}
	if st.Epoch == 0 {
		t.Fatal("epoch never advanced: commits bypassed the COW root swap")
	}
}

// TestSnapshotWriteToBackup: an online backup taken from a pinned
// snapshot while a writer keeps committing opens as a normal index file
// holding exactly the snapshot's records, and passes Fsck.
func TestSnapshotWriteToBackup(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "live.bmeh")
	ix, err := Create(path, Options{Dims: 2, PageCapacity: 8, CacheFrames: 128, WriteMode: WriteModeCOW})
	if err != nil {
		t.Fatal(err)
	}
	keys := randKeys(2000, 2, 47)
	half := len(keys) / 2
	for i, k := range keys[:half] {
		if err := ix.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := ix.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Keep a writer committing while the backup streams.
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := half; !stop.Load() && i < len(keys); i++ {
			if err := ix.Insert(keys[i], uint64(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	bakPath := filepath.Join(dir, "backup.bmeh")
	f, err := os.Create(bakPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.WriteTo(f); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	<-done
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Fsck(bakPath)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("backup fsck: %v", rep.Problems)
	}
	bak, err := Open(bakPath, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer bak.Close()
	if bak.Len() != half {
		t.Fatalf("backup Len = %d, want the snapshot's %d", bak.Len(), half)
	}
	for i, k := range keys[:half] {
		v, ok, err := bak.Get(k)
		if err != nil || !ok || v != uint64(i) {
			t.Fatalf("backup get %d: v=%d ok=%v err=%v", i, v, ok, err)
		}
	}
	for _, k := range keys[half : half+100] {
		if _, ok, _ := bak.Get(k); ok {
			t.Fatalf("backup contains key %v committed after the pin", k)
		}
	}
	if err := bak.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCOWPersistence: a COW index survives close/reopen — the
// deferred free list persisted in the header is reclaimed on open, and
// the reopened index keeps answering correctly in either write mode.
func TestSnapshotCOWPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.bmeh")
	keys := randKeys(1200, 2, 53)
	ix, err := Create(path, Options{Dims: 2, PageCapacity: 8, CacheFrames: 128, WriteMode: WriteModeCOW})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if err := ix.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Pin a snapshot and churn so retired pages accumulate, then close
	// the index with the pin still held — the process-exit-with-open-
	// reader shape. The retired pages ride the header's pending list and
	// must be recycled by the reopen, not leaked.
	if _, err := ix.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(keys); i += 2 {
		if _, err := ix.Delete(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	for _, mode := range []WriteMode{WriteModeLatched, WriteModeCOW} {
		re, err := OpenWithOptions(path, Options{CacheFrames: 128, WriteMode: mode})
		if err != nil {
			t.Fatalf("%v: reopen: %v", mode, err)
		}
		if re.Len() != len(keys)/2 {
			t.Fatalf("%v: reopened Len = %d, want %d", mode, re.Len(), len(keys)/2)
		}
		for i, k := range keys {
			v, ok, err := re.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			if want := i%2 == 1; ok != want || (ok && v != uint64(i)) {
				t.Fatalf("%v: get %d: v=%d ok=%v", mode, i, v, ok)
			}
		}
		if err := re.Validate(); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck after COW churn: %v", rep.Problems)
	}
}

// TestSnapshotModeErrors: snapshots are refused outside SchemeBMEH +
// WriteModeCOW, and COW itself is refused for the flat-directory schemes.
func TestSnapshotModeErrors(t *testing.T) {
	ix, err := New(Options{Dims: 2, PageCapacity: 8}) // latched BMEH
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, err := ix.Snapshot(); err != ErrSnapshots {
		t.Fatalf("latched Snapshot: err = %v, want ErrSnapshots", err)
	}
	if st := ix.SnapshotStats(); st.COW || st.PinnedEpochs != 0 {
		t.Fatalf("latched stats: %+v", st)
	}
	for _, s := range []Scheme{SchemeMDEH, SchemeMEH} {
		if _, err := New(Options{Scheme: s, Dims: 2, PageCapacity: 8, WriteMode: WriteModeCOW}); err == nil {
			t.Fatalf("%v: WriteModeCOW accepted, want error", s)
		}
	}
	if fmt.Sprint(WriteModeLatched, WriteModeCOW) != "latched cow" {
		t.Fatalf("WriteMode strings: %v %v", WriteModeLatched, WriteModeCOW)
	}
}

// TestSnapshotMaxPinAge: an abandoned pin older than SnapshotMaxPinAge is
// force-released by the next reclamation pass — its pages recycle, its
// reads fail with ErrSnapshotReleased, its Close stays a safe no-op —
// while a younger snapshot keeps working untouched.
func TestSnapshotMaxPinAge(t *testing.T) {
	const maxAge = 30 * time.Millisecond
	ix, err := New(Options{
		Dims: 2, PageCapacity: 8,
		WriteMode:         WriteModeCOW,
		SnapshotMaxPinAge: maxAge,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	keys := randKeys(600, 2, 97)
	for i, k := range keys[:300] {
		if err := ix.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}

	leaked, err := ix.Snapshot() // never Closed by the "application"
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := leaked.Get(keys[0]); err != nil || !ok {
		t.Fatalf("fresh snapshot get: ok=%v err=%v", ok, err)
	}

	time.Sleep(maxAge + 20*time.Millisecond)
	// Any commit past the age triggers the sweep via tryReclaim.
	for i, k := range keys[300:] {
		if err := ix.Insert(k, uint64(300+i)); err != nil {
			t.Fatal(err)
		}
	}

	st := ix.SnapshotStats()
	if st.ForcedReleases != 1 {
		t.Fatalf("ForcedReleases = %d, want 1 (stats %+v)", st.ForcedReleases, st)
	}
	if st.PinnedEpochs != 0 {
		t.Fatalf("forced release left %d epochs pinned", st.PinnedEpochs)
	}
	if st.ReclaimablePages != 0 {
		t.Fatalf("forced release left %d pages unreclaimed", st.ReclaimablePages)
	}
	if _, _, err := leaked.Get(keys[0]); err != ErrSnapshotReleased {
		t.Fatalf("released Get: err = %v, want ErrSnapshotReleased", err)
	}
	err = leaked.Range(Key{0, 0}, Key{math.MaxUint32, math.MaxUint32}, func(Key, uint64) bool { return true })
	if err != ErrSnapshotReleased {
		t.Fatalf("released Range: err = %v, want ErrSnapshotReleased", err)
	}
	if err := leaked.Close(); err != nil {
		t.Fatalf("Close after forced release: %v", err)
	}
	st = ix.SnapshotStats()
	if st.ForcedReleases != 1 || st.PinnedEpochs != 0 {
		t.Fatalf("stats corrupted by Close after forced release: %+v", st)
	}

	// A fresh snapshot on the same index is unaffected until it ages out.
	snap, err := ix.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	n := 0
	err = snap.Range(Key{0, 0}, Key{math.MaxUint32, math.MaxUint32}, func(Key, uint64) bool {
		n++
		return true
	})
	if err != nil || n != len(keys) {
		t.Fatalf("fresh snapshot after sweep: n=%d err=%v", n, err)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}
