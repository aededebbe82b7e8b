package pagestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// TestCommitMakesOneFsync counts the fsyncs of the commit protocol. Below
// the checkpoint threshold an acknowledged commit makes exactly one, the
// log's. An idle Sync is the checkpoint (main file, then log), and it and
// Close each leave the log at its bare header.
func TestCommitMakesOneFsync(t *testing.T) {
	cd := NewCrashDisk()
	wal := NewMemFile()
	d, err := CreateFileDiskFiles(cd.File(NewMemFile()), cd.File(wal), 128)
	if err != nil {
		t.Fatal(err)
	}
	walSize := func() int64 { n, _ := wal.Size(); return n }
	if n := walSize(); n != walHeaderSize {
		t.Fatalf("a new store's log holds %d bytes, want its %d-byte header", n, walHeaderSize)
	}
	id, err := d.Alloc(KindData)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := d.Write(id, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		before := cd.Syncs()
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := cd.Syncs() - before; got != 1 {
			t.Fatalf("commit %d made %d fsyncs, want 1", i, got)
		}
	}
	if walSize() == walHeaderSize {
		t.Fatal("the log is empty after four commits")
	}
	before := cd.Syncs()
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := cd.Syncs() - before; got != 2 {
		t.Fatalf("the checkpoint made %d fsyncs, want 2 (main file, then log)", got)
	}
	if n := walSize(); n != walHeaderSize {
		t.Fatalf("an idle Sync left the log at %d bytes, want %d", n, walHeaderSize)
	}
	if err := d.Write(id, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if n := walSize(); n != walHeaderSize {
		t.Fatalf("Close left the log at %d bytes, want %d", n, walHeaderSize)
	}
}

// TestCheckpointAtLogThreshold: the commit that leaves the log at
// checkpointBytes or more checkpoints inline, so after any Sync the log
// is below the threshold, and each checkpoint starts it over at its
// header. The commits stay durable across the checkpoints.
func TestCheckpointAtLogThreshold(t *testing.T) {
	const ps, perCommit, commits = 4096, 64, 40
	main, wal := NewMemFile(), NewMemFile()
	d, err := CreateFileDiskFiles(main, wal, ps)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]PageID, perCommit)
	for i := range ids {
		if ids[i], err = d.Alloc(KindData); err != nil {
			t.Fatal(err)
		}
	}
	img := make([]byte, ps)
	checkpoints, prev := 0, int64(walHeaderSize)
	for c := 1; c <= commits; c++ {
		img[0] = byte(c)
		for _, id := range ids {
			if err := d.Write(id, img); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		n, _ := wal.Size()
		if n >= checkpointBytes {
			t.Fatalf("commit %d left the log at %d bytes, threshold %d", c, n, checkpointBytes)
		}
		if n < prev {
			checkpoints++
			if n != walHeaderSize {
				t.Fatalf("commit %d checkpointed to %d bytes, want the %d-byte header", c, n, walHeaderSize)
			}
		}
		prev = n
	}
	if checkpoints == 0 {
		t.Fatalf("%d commits of %d pages never reached the %d-byte threshold", commits, perCommit, checkpointBytes)
	}
	// Reopen without Close: the last commit is in the log, earlier ones
	// home.
	re, err := OpenFileDiskFiles(main, wal)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	buf := make([]byte, ps)
	for _, id := range ids {
		if err := re.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != commits {
			t.Fatalf("page %d holds commit %d, want %d", id, buf[0], commits)
		}
	}
}

// TestFileDiskCrashLandsOnACommit sweeps power losses over a run whose
// every commit rewrites one page in place, with a checkpoint every few
// commits: each crash point with dropped and torn writes, and with
// CrashUnsynced under several seeds. Recovery must land on exactly one
// committed version, the last acknowledged one or the one in flight: the
// meta record names version v, and every page holds what version v left
// in it. Replaying log batches older than the newest one (a log truncate
// that never became durable, then an append over it) breaks the second
// clause; losing the main file's unsynced writes after the log was
// emptied, or the log's own unsynced writes, breaks the first.
func TestFileDiskCrashLandsOnACommit(t *testing.T) {
	const (
		ps              = 128
		pages           = 8
		commits         = 40
		checkpointEvery = 4
		seeds           = 6
	)
	// Commit c (from 1) writes byte c to page (c-1)%pages+1 and to the
	// meta record. want is page id's byte at version v.
	want := func(v, id int) byte {
		for c := v; c >= 1; c-- {
			if (c-1)%pages+1 == id {
				return byte(c)
			}
		}
		return 0
	}
	// run builds the store, arms the crash once the pages exist, and
	// commits until done or dead. It returns the last acknowledged version.
	run := func(cd *CrashDisk, main, wal *MemFile, armAt int64, mode CrashMode) (acked int, err error) {
		d, err := CreateFileDiskFiles(cd.File(main), cd.File(wal), ps)
		if err != nil {
			return 0, err
		}
		for i := 0; i < pages; i++ {
			if _, err := d.Alloc(KindData); err != nil {
				return 0, err
			}
		}
		if err := d.WriteMeta([]byte{0}); err != nil {
			return 0, err
		}
		if err := d.Sync(); err != nil {
			return 0, err
		}
		if armAt >= 0 {
			cd.Arm(armAt, mode)
		}
		for c := 1; c <= commits; c++ {
			if err := d.Write(PageID((c-1)%pages+1), []byte{byte(c)}); err != nil {
				return acked, err
			}
			if err := d.WriteMeta([]byte{byte(c)}); err != nil {
				return acked, err
			}
			if err := d.Sync(); err != nil {
				return acked, err
			}
			acked = c
			if c%checkpointEvery == 0 {
				if err := d.Sync(); err != nil {
					return acked, err
				}
			}
		}
		return acked, nil
	}
	clean := NewCrashDisk()
	if _, err := run(clean, NewMemFile(), NewMemFile(), -1, 0); err != nil {
		t.Fatal(err)
	}
	base := NewCrashDisk()
	run(base, NewMemFile(), NewMemFile(), 0, CrashDrop)
	total := clean.Writes() - base.Writes() + 1 // crash points after setup
	if total < 100 {
		t.Fatalf("only %d crash points; harness too small", total)
	}

	check := func(point int64, mode CrashMode, seed uint64) {
		cd := NewCrashDisk()
		cd.SetSeed(seed)
		main, wal := NewMemFile(), NewMemFile()
		acked, err := run(cd, main, wal, point, mode)
		if !cd.Crashed() || err == nil {
			t.Fatalf("point %d/%v: the crash never fired (err=%v)", point, mode, err)
		}
		d, err := OpenFileDiskFiles(main, wal)
		if err != nil {
			t.Fatalf("point %d/%v seed %d: recovery open: %v", point, mode, seed, err)
		}
		defer d.Close()
		meta := make([]byte, 1)
		if n, err := d.ReadMeta(meta); err != nil || n != 1 {
			t.Fatalf("point %d/%v seed %d: meta record: n=%d err=%v", point, mode, seed, n, err)
		}
		v := int(meta[0])
		if v != acked && v != acked+1 {
			t.Fatalf("point %d/%v seed %d: recovered version %d, acknowledged %d", point, mode, seed, v, acked)
		}
		buf := make([]byte, ps)
		for id := 1; id <= pages; id++ {
			if err := d.Read(PageID(id), buf); err != nil {
				t.Fatalf("point %d/%v seed %d: page %d: %v", point, mode, seed, id, err)
			}
			if buf[0] != want(v, id) {
				t.Fatalf("point %d/%v seed %d: version %d, but page %d holds %d, want %d", point, mode, seed, v, id, buf[0], want(v, id))
			}
		}
	}
	for point := int64(0); point < total; point++ {
		check(point, CrashDrop, 0)
		check(point, CrashTorn, 0)
		for seed := uint64(0); seed < seeds; seed++ {
			check(point, CrashUnsynced, seed)
		}
	}
}

// syncFailFile is a MemFile whose next Sync, once failNext is set, fails
// and forgets every write since the last good Sync, as a kernel drops
// dirty pages after a writeback error. The failure is reported once; the
// Sync after it succeeds.
type syncFailFile struct {
	*MemFile
	synced   []byte
	failNext bool
}

var errSyncFailed = errors.New("injected fsync failure")

func (f *syncFailFile) Sync() error {
	if f.failNext {
		f.failNext = false
		f.MemFile.Truncate(0)
		f.MemFile.WriteAt(f.synced, 0)
		return errSyncFailed
	}
	f.synced = f.MemFile.Bytes()
	return nil
}

// TestFailedFsyncPoisons fails one fsync, of the main file during a
// checkpoint and of the log during a commit. From then on every Write,
// Alloc, Free and Sync returns that error, the log is never truncated,
// and Close releases the files without a checkpoint. A reopen of what
// the files hold then finds every acknowledged commit.
func TestFailedFsyncPoisons(t *testing.T) {
	const ps = 128
	for _, failLog := range []bool{false, true} {
		main, wal := &syncFailFile{MemFile: NewMemFile()}, &syncFailFile{MemFile: NewMemFile()}
		d, err := CreateFileDiskFiles(main, wal, ps)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]PageID, 4)
		for i := range ids {
			if ids[i], err = d.Alloc(KindData); err != nil {
				t.Fatal(err)
			}
		}
		for i, id := range ids {
			if err := d.Write(id, []byte{byte(i + 1)}); err != nil {
				t.Fatal(err)
			}
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		// The failing fsync: the log's, committing a fifth version of page
		// 0, or the main file's, in an idle Sync's checkpoint.
		if failLog {
			wal.failNext = true
			if err := d.Write(ids[0], []byte{5}); err != nil {
				t.Fatal(err)
			}
		} else {
			main.failNext = true
		}
		if err := d.Sync(); !errors.Is(err, errSyncFailed) {
			t.Fatalf("failLog=%v: Sync = %v, want the fsync failure", failLog, err)
		}
		logBytes := wal.Bytes()
		if err := d.Write(ids[1], []byte{6}); !errors.Is(err, errSyncFailed) {
			t.Fatalf("failLog=%v: Write after the failure = %v", failLog, err)
		}
		if _, err := d.Alloc(KindData); !errors.Is(err, errSyncFailed) {
			t.Fatalf("failLog=%v: Alloc after the failure = %v", failLog, err)
		}
		if err := d.Free(ids[2]); !errors.Is(err, errSyncFailed) {
			t.Fatalf("failLog=%v: Free after the failure = %v", failLog, err)
		}
		for i := 0; i < 2; i++ {
			if err := d.Sync(); !errors.Is(err, errSyncFailed) {
				t.Fatalf("failLog=%v: Sync %d after the failure = %v", failLog, i, err)
			}
		}
		if err := d.Close(); !errors.Is(err, errSyncFailed) {
			t.Fatalf("failLog=%v: Close = %v, want the fsync failure", failLog, err)
		}
		if !bytes.Equal(wal.Bytes(), logBytes) {
			t.Fatalf("failLog=%v: the log changed after the failure", failLog)
		}
		re, err := OpenFileDiskFiles(main.MemFile, wal.MemFile)
		if err != nil {
			t.Fatalf("failLog=%v: reopen: %v", failLog, err)
		}
		buf := make([]byte, ps)
		for i, id := range ids {
			if err := re.Read(id, buf); err != nil {
				t.Fatal(err)
			}
			if buf[0] != byte(i+1) {
				t.Fatalf("failLog=%v: acknowledged page %d holds %d, want %d", failLog, id, buf[0], i+1)
			}
		}
		re.Close()
	}
}

// TestFileDiskFreeStagesNoBuffer: Free stages the page's free-list link
// and allocates nothing, and the commit writes the same free-page image
// as ever: the link, zeros, and a KindFree trailer.
func TestFileDiskFreeStagesNoBuffer(t *testing.T) {
	const ps, n = 128, 120
	main := NewMemFile()
	d, err := CreateFileDiskFiles(main, NewMemFile(), ps)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ids := make([]PageID, n)
	for i := range ids {
		if ids[i], err = d.Alloc(KindData); err != nil {
			t.Fatal(err)
		}
		if err := d.Write(ids[i], []byte{0xAB, byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(n-1, func() {
		if err := d.Free(ids[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Free makes %v allocations, want 0", allocs)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	slot := make([]byte, ps+pageTrailerSize)
	next := NilPage
	for _, id := range ids[:i] {
		img := make([]byte, ps)
		binary.BigEndian.PutUint32(img, uint32(next))
		if _, err := main.ReadAt(slot, int64(id)*int64(len(slot))); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(slot, encodeSlot(img, KindFree)) {
			t.Fatalf("freed page %d's slot is not the free-page image", id)
		}
		next = id
	}
	// The free list hands the pages back, most recently freed first.
	for k := i - 1; k >= i-3; k-- {
		if id, err := d.Alloc(KindData); err != nil || id != ids[k] {
			t.Fatalf("Alloc = %d, %v; want page %d", id, err, ids[k])
		}
	}
}
