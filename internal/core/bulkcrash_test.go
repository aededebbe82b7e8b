package core

import (
	"testing"

	"bmeh/internal/bitkey"
	"bmeh/internal/pagestore"
	"bmeh/internal/params"
	"bmeh/internal/workload"
)

// TestCrashMatrixBulkLoad extends the crash matrix to bulk loading: a
// file-backed tree with a committed resident set runs a BulkLoad whose
// commit is the usual flush+meta+sync sequence, and simulated power
// losses sweep every write of that run. Because the build stages all its
// pages in the store until the commit Sync, recovery must always land in
// one of exactly two states: the resident set alone (crash before the
// root swap committed) or resident + loaded (after). Nothing partial.
// The sweep runs with dropped and torn writes, then again with
// pagestore.CrashUnsynced (each file keeps what its last fsync covered
// plus a seeded subset of the writes since).
func TestCrashMatrixBulkLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is a sweep; skipped in -short")
	}
	prm := params.Default(2, 4)
	ps := PageBytes(prm)
	pre := workload.Uniform(2, 71).Take(40)
	inc := workload.Uniform(2, 72).Take(300)

	iter := func(keys []bitkey.Vector) func() (bitkey.Vector, uint64, bool, error) {
		i := 0
		return func() (bitkey.Vector, uint64, bool, error) {
			if i >= len(keys) {
				return nil, 0, false, nil
			}
			k := keys[i]
			v := 10_000 + uint64(i)
			i++
			return k, v, true, nil
		}
	}

	// run preloads and commits the resident set, then bulk-loads and
	// commits. preWrites reports how many crash-file writes the resident
	// phase used, so the sweep can target the bulk load proper.
	run := func(cd *pagestore.CrashDisk, main, wal *pagestore.MemFile, armAt int64, mode pagestore.CrashMode) (preWrites int64, err error) {
		fd, err := pagestore.CreateFileDiskFiles(cd.File(main), cd.File(wal), ps)
		if err != nil {
			return 0, err
		}
		tr, err := New(fd, prm)
		if err != nil {
			return 0, err
		}
		commit := func() error {
			if err := fd.WriteMeta(tr.MarshalMeta()); err != nil {
				return err
			}
			return fd.Sync()
		}
		for i, k := range pre {
			if err := tr.Insert(k, uint64(i)); err != nil {
				return 0, err
			}
		}
		if err := commit(); err != nil {
			return 0, err
		}
		preWrites = cd.Writes()
		if armAt >= 0 {
			cd.Arm(armAt, mode)
		}
		if _, err := tr.BulkLoad(iter(inc), BulkOptions{}); err != nil {
			return preWrites, err
		}
		return preWrites, commit()
	}

	// Disarmed pass: find the crash-point budget and the expected loaded
	// state (which also proves the two key sets are disjoint).
	clean := pagestore.NewCrashDisk()
	{
		m, w := pagestore.NewMemFile(), pagestore.NewMemFile()
		if _, err := run(clean, m, w, -1, 0); err != nil {
			t.Fatal(err)
		}
		fd, err := pagestore.OpenFileDiskFiles(m, w)
		if err != nil {
			t.Fatal(err)
		}
		meta := make([]byte, 256)
		n, _ := fd.ReadMeta(meta)
		tr, err := Load(fd, meta[:n])
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != len(pre)+len(inc) {
			t.Fatalf("clean run holds %d records, want %d (key sets collide?)", tr.Len(), len(pre)+len(inc))
		}
		fd.Close()
	}

	var base int64
	{
		cd := pagestore.NewCrashDisk()
		m, w := pagestore.NewMemFile(), pagestore.NewMemFile()
		fd, err := pagestore.CreateFileDiskFiles(cd.File(m), cd.File(w), ps)
		if err != nil {
			t.Fatal(err)
		}
		tr, _ := New(fd, prm)
		fd.WriteMeta(tr.MarshalMeta())
		fd.Sync()
		base = cd.Writes()
	}
	total := clean.Writes() - base
	if total < 20 {
		t.Fatalf("bulk load exposes only %d crash points; harness too small", total)
	}
	points := total
	if points > 160 {
		points = 160
	}
	t.Logf("bulk load exposes %d crash points; sweeping %d twice (drop+torn interleaved, then unsynced)", total, points)

	for q := int64(0); q < 2*points; q++ {
		p := q % points
		armAt := base + p*(total-1)/(points-1)
		mode := pagestore.CrashDrop
		switch {
		case q >= points:
			mode = pagestore.CrashUnsynced
		case p%2 == 1:
			mode = pagestore.CrashTorn
		}
		cd := pagestore.NewCrashDisk()
		main, wal := pagestore.NewMemFile(), pagestore.NewMemFile()
		_, err := run(cd, main, wal, armAt, mode)
		if !cd.Crashed() {
			// Points past the run's write count (recovery variance): the
			// run simply succeeded.
			if err != nil {
				t.Fatalf("point %d (+%d): no crash but err=%v", p, armAt, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("point %d (+%d): run survived a power loss", p, armAt)
		}
		fd, err := pagestore.OpenFileDiskFiles(main, wal)
		if err != nil {
			t.Fatalf("point %d (+%d, %v): recovery open failed: %v", p, armAt, mode, err)
		}
		meta := make([]byte, 256)
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
		switch tr.Len() {
		case len(pre):
			// Rolled back: every resident record must still be there.
			for i, k := range pre {
				v, ok, err := tr.Search(k)
				if err != nil || !ok || v != uint64(i) {
					t.Fatalf("point %d (+%d, %v): resident key %d lost after rollback (ok=%v v=%d err=%v)", p, armAt, mode, i, ok, v, err)
				}
			}
		case len(pre) + len(inc):
			// Rolled forward: resident and loaded records alike.
			for i, k := range inc {
				v, ok, err := tr.Search(k)
				if err != nil || !ok || v != 10_000+uint64(i) {
					t.Fatalf("point %d (+%d, %v): loaded key %d missing after roll-forward (ok=%v v=%d err=%v)", p, armAt, mode, i, ok, v, err)
				}
			}
		default:
			t.Fatalf("point %d (+%d, %v): recovered %d records; want %d (rolled back) or %d (committed) — bulk load left a partial state",
				p, armAt, mode, tr.Len(), len(pre), len(pre)+len(inc))
		}
		fd.Close()
	}
}
