package bmeh

// Crash matrix with concurrent writers: simulated power losses are swept
// across a workload where several goroutines insert and delete through the
// core tree's latch-crabbing write path while commits quiesce them — the
// same discipline Index.Sync uses (writers share a lock that the commit
// takes exclusively). After each crash the surviving bytes are reopened
// through WAL recovery; the tree must Validate, every key state captured
// by the last acknowledged commit must be intact, and an offline Fsck of
// the recovered file must come back clean. Every fifth commit is followed
// by an idle Sync, the checkpoint, and every point is swept twice: with
// the fatal write dropped or torn, and with pagestore.CrashUnsynced.

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"bmeh/internal/core"
	"bmeh/internal/pagestore"
	"bmeh/internal/params"
	"bmeh/internal/workload"
)

func TestCrashMatrixConcurrentWriters(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is a sweep; skipped in -short")
	}
	prm := params.Default(2, 4)
	ps := core.PageBytes(prm)
	const (
		writers   = 4
		perWriter = 24
		points    = 16
	)
	keys := workload.Uniform(2, 99).Take(writers * perWriter)

	type snapshot map[int]bool // key index → present

	// run drives the concurrent workload over a crash-wrapped FileDisk.
	// It returns the state captured by the last commit that acknowledged
	// (returned nil), and by the first commit that failed — recovery must
	// land on one of the two; keys they agree on are asserted.
	run := func(cd *pagestore.CrashDisk, main, wal *pagestore.MemFile, armAt int64, mode pagestore.CrashMode) (acked, inFlight snapshot, err error) {
		fd, err := pagestore.CreateFileDiskFiles(cd.File(main), cd.File(wal), ps)
		if err != nil {
			return nil, nil, err
		}
		tr, err := core.New(fd, prm)
		if err != nil {
			return nil, nil, err
		}
		var (
			gate    sync.RWMutex // writers share; commits exclusive, like Index.mu
			stateMu sync.Mutex
			live    = snapshot{}
			ackMu   sync.Mutex
			failed  bool
		)
		commits := 0
		commit := func() error {
			gate.Lock()
			defer gate.Unlock()
			snap := make(snapshot, len(live))
			for k, v := range live {
				snap[k] = v
			}
			cerr := fd.WriteMeta(tr.MarshalMeta())
			if cerr == nil {
				cerr = fd.Sync()
			}
			if commits++; cerr == nil && commits%5 == 0 {
				// Nothing is staged now: an idle Sync, the checkpoint
				// barrier, lands mid-workload too.
				cerr = fd.Sync()
			}
			ackMu.Lock()
			if cerr == nil {
				acked = snap
			} else if !failed {
				failed, inFlight = true, snap
			}
			ackMu.Unlock()
			return cerr
		}
		if err := commit(); err != nil {
			return acked, inFlight, err
		}
		if armAt >= 0 {
			cd.Arm(armAt, mode)
		}
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				do := func(idx int, del bool) bool {
					gate.RLock()
					var err error
					if del {
						_, err = tr.Delete(keys[idx])
					} else {
						err = tr.Insert(keys[idx], uint64(idx))
					}
					if err == nil {
						stateMu.Lock()
						live[idx] = !del
						stateMu.Unlock()
					}
					gate.RUnlock()
					return err == nil
				}
				for i := 0; i < perWriter; i++ {
					idx := w*perWriter + i
					if !do(idx, false) {
						return // device died; wind down
					}
					if i%4 == 3 && !do(idx-2, true) {
						return
					}
					if i%3 == 2 && commit() != nil {
						return
					}
				}
				commit()
			}(w)
		}
		wg.Wait()
		return acked, inFlight, nil
	}

	// Disarmed pass: measure the write span so crash points cover the
	// workload. The count varies run to run with scheduling; points beyond
	// a given run's span simply complete clean and assert the full state.
	clean := pagestore.NewCrashDisk()
	cleanAcked, _, err := run(clean, pagestore.NewMemFile(), pagestore.NewMemFile(), -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cleanAcked) != writers*perWriter {
		t.Fatalf("clean pass acknowledged %d of %d keys; harness broken", len(cleanAcked), writers*perWriter)
	}
	total := clean.Writes()
	if total < 100 {
		t.Fatalf("workload exposes only %d crash points; harness too small", total)
	}
	t.Logf("clean pass issued %d writes; sweeping %d crash points", total, points)

	search := func(tr *core.Tree, idx int) (uint64, bool) {
		v, ok, err := tr.Search(keys[idx])
		if err != nil {
			t.Fatalf("searching key %d: %v", idx, err)
		}
		return v, ok
	}
	// Each point runs twice: dropped or torn (interleaved), then with
	// pagestore.CrashUnsynced, where each file keeps only what its last
	// fsync covered plus a seeded subset of the writes since.
	for q := int64(0); q < 2*points; q++ {
		p := q % points
		// Land within the first ~85% of the measured span so the crash
		// reliably fires despite run-to-run write-count jitter.
		armAt := 10 + p*(total*85/100)/points
		mode := pagestore.CrashDrop
		switch {
		case q >= points:
			mode = pagestore.CrashUnsynced
		case p%2 == 1:
			mode = pagestore.CrashTorn
		}
		cd := pagestore.NewCrashDisk()
		main, wal := pagestore.NewMemFile(), pagestore.NewMemFile()
		acked, inFlight, err := run(cd, main, wal, armAt, mode)
		if err != nil {
			t.Fatalf("point %d (+%d): harness error before the crash: %v", p, armAt, err)
		}
		if !cd.Crashed() {
			t.Fatalf("point %d (+%d): crash never fired", p, armAt)
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
		tr, err := core.Load(fd, meta[:n])
		if err != nil {
			t.Fatalf("point %d (+%d, %v): loading tree: %v", p, armAt, mode, err)
		}
		if verr := tr.Validate(); verr != nil {
			t.Fatalf("point %d (+%d, %v): recovered tree invalid: %v", p, armAt, mode, verr)
		}
		// Recovery lands on the acked commit or the one that died mid-way
		// (its WAL batch commits atomically); assert keys both agree on.
		for idx, present := range acked {
			ifPresent, ifKnown := inFlight[idx]
			if inFlight != nil && (!ifKnown || ifPresent != present) {
				continue
			}
			v, ok := search(tr, idx)
			if present && (!ok || v != uint64(idx)) {
				t.Fatalf("point %d (+%d, %v): acknowledged key %d lost (ok=%v v=%d)", p, armAt, mode, idx, ok, v)
			}
			if !present && ok {
				t.Fatalf("point %d (+%d, %v): acknowledged delete of key %d resurrected", p, armAt, mode, idx)
			}
		}
		fd.Close()

		// Offline integrity check over the recovered bytes, through the
		// public Fsck (which re-runs recovery on its own open).
		dir := t.TempDir()
		path := filepath.Join(dir, "crash.bmeh")
		if err := os.WriteFile(path, main.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+".wal", wal.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		report, err := Fsck(path)
		if err != nil {
			t.Fatalf("point %d: fsck: %v", p, err)
		}
		if !report.OK() {
			t.Fatalf("point %d (+%d, %v): fsck found problems: %v", p, armAt, mode, report.Problems)
		}
	}
}
