package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bmeh/internal/pagestore"
	"bmeh/internal/params"
	"bmeh/internal/workload"
)

// crashOp is one step of the crash-matrix workload.
type crashOp struct {
	del bool
	idx int
}

// TestCrashMatrix is the paper-to-production acceptance test for the
// crash-consistency layer. It sweeps simulated power losses — dropped and
// torn writes alike — across every phase of a mixed insert/delete
// workload on a file-backed tree that syncs after every operation. After
// each crash the store is reopened through recovery; the tree must pass
// Validate and every record acknowledged (synced) before the crash must
// be retrievable, with acknowledged deletes staying deleted.
func TestCrashMatrix(t *testing.T) {
	testCrashMatrix(t, pagestore.SyncPolicy{}, 240, false, false)
}

// TestCrashMatrixGroupCommit re-runs the sweep with every commit routed
// through a GroupCommitter: the coalesced path must provide the same
// commit-boundary atomicity as the direct one. (Fewer points than the
// direct sweep; the commit machinery under test is identical at every
// point.)
func TestCrashMatrixGroupCommit(t *testing.T) {
	testCrashMatrix(t, pagestore.SyncPolicy{MaxBatch: 4}, 60, false, false)
}

// TestCrashMatrixMmap runs the full sweep over real files (tmpfs when
// available) behind the same CrashDisk. Writes are the same pwrite + fsync
// as TestCrashMatrix's; what differs is the read side: each file carries
// its read view across the crash, so every reboot — recovery, validation
// and the acknowledged-key probes — reads committed pages through the
// mapping, and the sweep checks that it does. Where the platform has no
// mmap, OpenMappedFile is a plain file and the reboot reads through pread.
func TestCrashMatrixMmap(t *testing.T) {
	testCrashMatrix(t, pagestore.SyncPolicy{}, 240, true, false)
}

// TestCrashMatrixCOW runs the full 240-point sweep in the copy-on-write
// write mode, where the meta record's root pointer is the only commit
// point: committed pages are never rewritten in place, so every crash
// must land the reboot on exactly the tree the last durable meta record
// named — the root swap is atomic or it did not happen.
func TestCrashMatrixCOW(t *testing.T) {
	testCrashMatrix(t, pagestore.SyncPolicy{}, 240, false, true)
}

// crashTempDir prefers tmpfs so the sweep's per-operation fsync
// traffic does not grind a physical disk.
func crashTempDir(t *testing.T) string {
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		dir, err := os.MkdirTemp("/dev/shm", "bmeh-crash-*")
		if err == nil {
			t.Cleanup(func() { os.RemoveAll(dir) })
			return dir
		}
	}
	return t.TempDir()
}

func testCrashMatrix(t *testing.T, policy pagestore.SyncPolicy, points int64, mmap, cow bool) {
	if testing.Short() {
		t.Skip("crash matrix is a sweep; skipped in -short")
	}
	prm := params.Default(2, 4)
	ps := PageBytes(prm)
	keys := workload.Uniform(2, 42).Take(90)
	var ops []crashOp
	for i := range keys {
		ops = append(ops, crashOp{del: false, idx: i})
		if i%3 == 2 {
			ops = append(ops, crashOp{del: true, idx: i - 2})
		}
	}

	// The default sweep runs over MemFiles; the mmap sweep over real files
	// with read views, reused across the crash and the reboot exactly as
	// MemFiles are (the file survives the simulated power loss the way the
	// platters survive a real one).
	var dir string
	if mmap {
		dir = crashTempDir(t)
	}
	makeFiles := func(name string) (main, wal pagestore.File, cleanup func()) {
		if !mmap {
			return pagestore.NewMemFile(), pagestore.NewMemFile(), func() {}
		}
		path := filepath.Join(dir, name)
		mf, err := pagestore.OpenMappedFile(path, true)
		if err != nil {
			t.Fatal(err)
		}
		// The WAL stays a MemFile: it is an ordinary appended file that is
		// never mapped, and keeping it in memory keeps the sweep fast.
		return mf, pagestore.NewMemFile(), func() {
			mf.Close()
			os.Remove(path)
		}
	}

	// run executes the workload over a crash-wrapped store, committing
	// (meta + pages) after every operation. It returns the acknowledged
	// state — key index → present — as of the last successful commit, and
	// the operation in flight when the run died.
	run := func(cd *pagestore.CrashDisk, main, wal pagestore.File, armAt int64, mode pagestore.CrashMode) (acked map[int]bool, pending *crashOp, err error) {
		fd, err := pagestore.CreateFileDiskFiles(cd.File(main), cd.File(wal), ps)
		if err != nil {
			return nil, nil, err
		}
		tr, err := New(fd, prm)
		if err != nil {
			return nil, nil, err
		}
		if cow {
			if err := tr.EnableCOW(); err != nil {
				return nil, nil, err
			}
		}
		commit := func() error {
			if err := tr.FlushDirtyPages(); err != nil {
				return err
			}
			if err := fd.WriteMeta(tr.MarshalMeta()); err != nil {
				return err
			}
			return fd.Sync()
		}
		if policy.Enabled() {
			// The shape bmeh.Index uses: the committer coalesces the whole
			// flush + meta + commit sequence, not the store's Sync alone.
			commit = pagestore.NewGroupCommitter(policy, commit).Sync
		}
		if err := commit(); err != nil {
			return nil, nil, err
		}
		if armAt >= 0 {
			cd.Arm(armAt, mode)
		}
		acked = map[int]bool{}
		live := map[int]bool{}
		for i := range ops {
			o := ops[i]
			var err error
			if o.del {
				_, err = tr.Delete(keys[o.idx])
			} else {
				err = tr.Insert(keys[o.idx], uint64(o.idx))
			}
			if err != nil && err != ErrDuplicate {
				return acked, &o, err
			}
			live[o.idx] = !o.del
			if err := commit(); err != nil {
				return acked, &o, err
			}
			for k, v := range live {
				acked[k] = v
			}
		}
		return acked, nil, nil
	}

	// Disarmed pass: measure how many crash points the workload exposes.
	clean := pagestore.NewCrashDisk()
	cmain, cwal, ccleanup := makeFiles("clean")
	cleanAcked, _, err := run(clean, cmain, cwal, -1, 0)
	ccleanup()
	if err != nil {
		t.Fatal(err)
	}
	// Measure how many of those writes belong to creation + base commit;
	// crash points target the workload proper.
	var base int64
	{
		cd := pagestore.NewCrashDisk()
		m, w, cleanup := makeFiles("base")
		if fd, err := pagestore.CreateFileDiskFiles(cd.File(m), cd.File(w), ps); err != nil {
			t.Fatal(err)
		} else {
			tr, _ := New(fd, prm)
			fd.WriteMeta(tr.MarshalMeta())
			fd.Sync()
		}
		base = cd.Writes()
		cleanup()
	}
	total := clean.Writes() - base // crash points within the workload proper
	if total < 50 {
		t.Fatalf("workload exposes only %d crash points; harness too small", total)
	}
	t.Logf("workload exposes %d crash points; sweeping %d (drop+torn interleaved)", total, points)

	for p := int64(0); p < points; p++ {
		armAt := p * (total - 1) / (points - 1)
		mode := pagestore.CrashDrop
		if p%2 == 1 {
			mode = pagestore.CrashTorn
		}
		cd := pagestore.NewCrashDisk()
		main, wal, cleanup := makeFiles(fmt.Sprintf("pt%d", p))
		acked, pending, err := run(cd, main, wal, armAt, mode)
		if !cd.Crashed() {
			t.Fatalf("point %d (+%d): crash never fired (err=%v)", p, armAt, err)
		}
		if err == nil {
			t.Fatalf("point %d (+%d): workload survived a power loss", p, armAt)
		}

		// "Reboot": reopen the surviving bytes through recovery.
		fd, err := pagestore.OpenFileDiskFiles(main, wal)
		if err != nil {
			t.Fatalf("point %d (+%d, %v): recovery open failed: %v", p, armAt, mode, err)
		}
		if mmap && pagestore.MmapSupported {
			requireViewReads(t, fd)
		}
		meta := make([]byte, ps)
		n, err := fd.ReadMeta(meta)
		if err != nil {
			t.Fatalf("point %d: reading meta: %v", p, err)
		}
		tr, err := Load(fd, meta[:n])
		if err != nil {
			t.Fatalf("point %d (+%d, %v): loading tree: %v", p, armAt, mode, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("point %d (+%d, %v): recovered tree invalid: %v", p, armAt, mode, err)
		}
		for idx, present := range acked {
			if pending != nil && idx == pending.idx {
				// The in-flight operation may have rolled forward (its
				// commit was durable) or back; either is a consistent
				// outcome and Validate has already vouched for the tree.
				continue
			}
			v, ok, err := tr.Search(keys[idx])
			if err != nil {
				t.Fatalf("point %d: searching key %d: %v", p, idx, err)
			}
			if present && (!ok || v != uint64(idx)) {
				t.Fatalf("point %d (+%d, %v): acknowledged key %d lost (ok=%v v=%d)", p, armAt, mode, idx, ok, v)
			}
			if !present && ok {
				t.Fatalf("point %d (+%d, %v): acknowledged delete of key %d resurrected", p, armAt, mode, idx)
			}
		}
		// The probes above ran with the decoded caches enabled (the default
		// since the zero-decode hot path); whatever they cached must agree
		// with the recovered bytes.
		checkCacheCoherence(t, tr)
		fd.Close()
		cleanup()
	}

	// Sanity: the clean pass acknowledged the whole workload.
	wantLive := 0
	for _, present := range cleanAcked {
		if present {
			wantLive++
		}
	}
	if wantLive == 0 || len(cleanAcked) != len(keys) {
		t.Fatalf("clean pass acknowledged %d/%d keys (%d live); workload broken", len(cleanAcked), len(keys), wantLive)
	}
}

// requireViewReads fails unless fd serves a committed page as a window
// onto its read view rather than a copy into the caller's buffer.
func requireViewReads(t *testing.T, fd *pagestore.FileDisk) {
	t.Helper()
	buf := make([]byte, fd.PageSize())
	for id := pagestore.PageID(1); uint32(id) < fd.PageCount(); id++ {
		if k, _ := fd.KindOf(id); k == pagestore.KindFree {
			continue
		}
		page, err := fd.ReadSlice(id, buf)
		if err != nil {
			t.Fatal(err)
		}
		if &page[0] == &buf[0] {
			t.Fatalf("page %d was preaded, not read through the view", id)
		}
		return
	}
	t.Fatal("recovered store holds no allocated page")
}
