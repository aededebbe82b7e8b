package pagestore

import (
	"bytes"
	"testing"
)

// replicaBatch is one commit a primary published through its hook, with
// the primary's main-file image right after that commit's home writes.
type replicaBatch struct {
	seq    uint64
	frames []Frame
	image  []byte
}

// primaryBatches runs a small primary whose commits allocate, rewrite and
// free pages and change the meta record, and returns its creation image
// (sequence 1) and every later batch its commit hook saw.
func primaryBatches(t *testing.T, ps, commits int) (created []byte, batches []replicaBatch) {
	t.Helper()
	main := NewMemFile()
	d, err := CreateFileDiskFiles(main, NewMemFile(), ps)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	created = main.Bytes()
	d.SetCommitHook(func(seq uint64, frames []Frame) {
		batches = append(batches, replicaBatch{seq: seq, frames: frames, image: main.Bytes()})
	})
	var live []PageID
	for c := 1; c <= commits; c++ {
		if c%3 == 1 {
			id, err := d.Alloc(KindData)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		}
		if err := d.Write(live[c%len(live)], []byte{byte(c), byte(c >> 8)}); err != nil {
			t.Fatal(err)
		}
		if c%7 == 0 && len(live) > 1 {
			if err := d.Free(live[0]); err != nil {
				t.Fatal(err)
			}
			live = live[1:]
		}
		if err := d.WriteMeta([]byte{byte(c)}); err != nil {
			t.Fatal(err)
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if len(batches) != commits {
		t.Fatalf("the primary published %d batches for %d commits", len(batches), commits)
	}
	return created, batches
}

// TestReplicaApplyCrashLandsOnABatch ships a primary's batches into a
// replica over a CrashDisk and sweeps a power loss over every write of
// the apply — the log append, the home writes, the log truncate — with
// dropped and torn writes and with CrashUnsynced under several seeds (a
// crash after an fsync is the next write's crash under that mode). After
// recovery the replica must hold the primary's file byte for byte as of
// the last applied batch or the one in flight, and every slot must pass
// its checksum. A clean run also counts the fsyncs: three per batch (the
// log's, then the checkpoint's main file and log).
func TestReplicaApplyCrashLandsOnABatch(t *testing.T) {
	const (
		ps      = 128
		commits = 24
		seeds   = 4
	)
	created, batches := primaryBatches(t, ps, commits)
	images := map[uint64][]byte{1: created}
	for _, b := range batches {
		images[b.seq] = b.image
	}

	// run creates the replica (sequence 1, like the primary), arms the
	// crash and applies every batch until done or dead. It returns the
	// sequence of the last batch whose apply returned.
	run := func(cd *CrashDisk, main, wal *MemFile, armAt int64, mode CrashMode) (applied uint64, err error) {
		d, err := CreateFileDiskFiles(cd.File(main), cd.File(wal), ps)
		if err != nil {
			return 0, err
		}
		applied = d.CommitSeq()
		if armAt >= 0 {
			cd.Arm(armAt, mode)
		}
		for _, b := range batches {
			ok, err := d.ApplyReplicated(b.seq, b.frames, nil)
			if err != nil {
				return applied, err
			}
			if !ok {
				t.Fatalf("batch %d skipped as a duplicate", b.seq)
			}
			applied = b.seq
		}
		return applied, d.Close()
	}

	clean := NewCrashDisk()
	cmain, cwal := NewMemFile(), NewMemFile()
	d, err := CreateFileDiskFiles(clean.File(cmain), clean.File(cwal), ps)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cmain.Bytes(), created) {
		t.Fatal("a new replica's file differs from a new primary's")
	}
	setup := clean.Writes()
	for _, b := range batches {
		before := clean.Syncs()
		if ok, err := d.ApplyReplicated(b.seq, b.frames, nil); err != nil || !ok {
			t.Fatalf("batch %d: applied=%v err=%v", b.seq, ok, err)
		}
		if got := clean.Syncs() - before; got != 3 {
			t.Fatalf("batch %d made %d fsyncs, want 3 (log, main file, log truncate)", b.seq, got)
		}
		if got := d.CommitSeq(); got != b.seq {
			t.Fatalf("after batch %d the replica reports seq %d", b.seq, got)
		}
		if n, _ := cwal.Size(); n != walHeaderSize {
			t.Fatalf("after batch %d the replica's log holds %d bytes, want its %d-byte header", b.seq, n, walHeaderSize)
		}
		if !bytes.Equal(cmain.Bytes(), b.image) {
			t.Fatalf("after batch %d the replica's file differs from the primary's", b.seq)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	total := clean.Writes() - setup
	if total < 100 {
		t.Fatalf("only %d crash points; harness too small", total)
	}

	check := func(point int64, mode CrashMode, seed uint64) {
		cd := NewCrashDisk()
		cd.SetSeed(seed)
		main, wal := NewMemFile(), NewMemFile()
		applied, err := run(cd, main, wal, point, mode)
		if !cd.Crashed() || err == nil {
			t.Fatalf("point %d/%v: the crash never fired (err=%v)", point, mode, err)
		}
		re, err := OpenFileDiskFiles(main, wal)
		if err != nil {
			t.Fatalf("point %d/%v seed %d: recovery open: %v", point, mode, seed, err)
		}
		defer re.Close()
		seq := re.CommitSeq()
		if seq != applied && seq != applied+1 {
			t.Fatalf("point %d/%v seed %d: recovered seq %d, last applied %d", point, mode, seed, seq, applied)
		}
		if _, _, problems := re.CheckPages(); len(problems) > 0 {
			t.Fatalf("point %d/%v seed %d: recovered seq %d has damaged slots: %v", point, mode, seed, seq, problems)
		}
		if !bytes.Equal(main.Bytes(), images[seq]) {
			t.Fatalf("point %d/%v seed %d: recovered seq %d, but the file differs from the primary's at that seq", point, mode, seed, seq)
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
