package pagestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func isCorrupt(err error) bool { return errors.Is(err, ErrCorrupt) }

// buildStore populates a small store on mem-backed files: three data
// pages with recognizable contents, one freed page, and a meta record.
func buildStore(t *testing.T) (main, wal *MemFile, ids []PageID) {
	t.Helper()
	main, wal = NewMemFile(), NewMemFile()
	d, err := CreateFileDiskFiles(main, wal, 128)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		id, err := d.Alloc(KindData)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(id, []byte{byte(i + 1), 0xEE}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := d.Free(ids[3]); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteMeta([]byte("client-meta-record")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return main, wal, ids[:3]
}

// TestFileDiskDetectsAnyFlippedByte flips every byte of the file in turn.
// Each flip must surface as an error wrapping ErrCorrupt — at open (meta
// page, free list) or at the first read of the damaged page — and must
// never panic or return wrong data silently.
func TestFileDiskDetectsAnyFlippedByte(t *testing.T) {
	main, wal, ids := buildStore(t)
	pristine := main.Bytes()
	for off := 0; off < len(pristine); off++ {
		bad := NewMemFile()
		bad.WriteAt(pristine, 0)
		bad.WriteAt([]byte{pristine[off] ^ 0x01}, int64(off))
		walCopy := NewMemFile()
		walCopy.WriteAt(wal.Bytes(), 0)
		d, err := OpenFileDiskFiles(bad, walCopy)
		if err != nil {
			if !isCorrupt(err) {
				t.Fatalf("offset %d: open error %v does not wrap ErrCorrupt", off, err)
			}
			continue
		}
		caught := false
		buf := make([]byte, 128)
		for i, id := range ids {
			err := d.Read(id, buf)
			switch {
			case err == nil:
				if buf[0] != byte(i+1) || buf[1] != 0xEE {
					t.Fatalf("offset %d: page %d silently wrong: % x", off, id, buf[:2])
				}
			case isCorrupt(err):
				caught = true
			default:
				t.Fatalf("offset %d: read error %v does not wrap ErrCorrupt", off, err)
			}
		}
		if !caught {
			t.Fatalf("offset %d: flip neither failed open nor any page read", off)
		}
	}
}

// TestFileDiskReadAllocatesNothing pins the pread path under every
// decoded-cache miss on a store without a read view: reading a committed,
// unstaged page allocates nothing, through Read or ReadSlice.
func TestFileDiskReadAllocatesNothing(t *testing.T) {
	d, err := createUnmappedFileDisk(filepath.Join(t.TempDir(), "disk"), 128)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id, err := d.Alloc(KindData)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(id, []byte{0x5A}); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	allocs := testing.AllocsPerRun(100, func() {
		if err := d.Read(id, buf); err != nil {
			t.Fatal(err)
		}
	})
	if buf[0] != 0x5A {
		t.Fatalf("read back %#x", buf[0])
	}
	if allocs != 0 {
		t.Fatalf("Read of a committed page allocates %v times, want 0", allocs)
	}
	var page []byte
	allocs = testing.AllocsPerRun(100, func() {
		if page, err = d.ReadSlice(id, buf); err != nil {
			t.Fatal(err)
		}
	})
	if &page[0] != &buf[0] {
		t.Fatal("a store without a view served ReadSlice from elsewhere than buf")
	}
	if allocs != 0 {
		t.Fatalf("pread ReadSlice of a committed page allocates %v times, want 0", allocs)
	}
}

// TestFileDiskAllocStagesNoBuffer pins the page buffers a fresh page
// costs: Alloc stages the store's shared zero image, so Alloc plus the
// Write that follows copies the page once, not twice. The fresh page still
// reads as zeros until it is written, and writing it leaves the shared
// image zero.
func TestFileDiskAllocStagesNoBuffer(t *testing.T) {
	d, err := CreateFileDiskFiles(NewMemFile(), NewMemFile(), 128)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	data := bytes.Repeat([]byte{0xA5}, 128)
	allocs := testing.AllocsPerRun(1000, func() {
		id, err := d.Alloc(KindData)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(id, data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Alloc+Write makes %v allocations, want 1 (the written image)", allocs)
	}
	a, err := d.Alloc(KindData)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Alloc(KindData)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(a, data); err != nil {
		t.Fatal(err)
	}
	zero, buf := make([]byte, 128), make([]byte, 128)
	for _, synced := range []bool{false, true} {
		if synced {
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		for id, want := range map[PageID][]byte{a: data, b: zero} {
			if err := d.Read(id, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("page %d reads %x…, want %x… (synced %v)", id, buf[:4], want[:4], synced)
			}
		}
	}
}

// halvesFile writes every WriteAt in two halves with a pause between
// them, so a concurrent reader can catch a slot half old, half new.
type halvesFile struct{ *MemFile }

func (f halvesFile) WriteAt(p []byte, off int64) (int, error) {
	h := len(p) / 2
	if _, err := f.MemFile.WriteAt(p[:h], off); err != nil {
		return 0, err
	}
	time.Sleep(20 * time.Microsecond)
	if _, err := f.MemFile.WriteAt(p[h:], off+int64(h)); err != nil {
		return 0, err
	}
	return len(p), nil
}

// TestFileDiskReadDuringCommits reads one page from several goroutines
// while a writer keeps rewriting and committing it. halvesFile offers no
// read view, so every Read takes the pread path, which runs outside the
// store lock: some reads overlap a commit's home-slot write, which
// halvesFile makes visibly torn; each read must still return a whole
// committed image, never an error.
func TestFileDiskReadDuringCommits(t *testing.T) {
	const pageSize, commits, readers = 512, 300, 3
	d, err := CreateFileDiskFiles(halvesFile{NewMemFile()}, NewMemFile(), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id, err := d.Alloc(KindData)
	if err != nil {
		t.Fatal(err)
	}
	image := func(v byte) []byte { return bytes.Repeat([]byte{v}, pageSize) }
	if err := d.Write(id, image(0)); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, pageSize)
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := d.Read(id, buf); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf, image(buf[0])) {
					errs <- fmt.Errorf("torn page: starts %#x, holds %d bytes of it", buf[0], bytes.Count(buf, buf[:1]))
					return
				}
			}
		}()
	}
	writeErr := func() error {
		for i := 1; i <= commits; i++ {
			if err := d.Write(id, image(byte(i))); err != nil {
				return err
			}
			if err := d.Sync(); err != nil {
				return err
			}
		}
		return nil
	}()
	close(done)
	wg.Wait()
	if writeErr != nil {
		t.Fatal(writeErr)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFileDiskFreeListHardening hand-crafts damaged free lists — with
// valid page checksums, so only the structural bounds can catch them —
// and verifies open returns ErrCorrupt instead of hanging or crashing.
func TestFileDiskFreeListHardening(t *testing.T) {
	rewriteFreePage := func(m *MemFile, id PageID, next uint32) {
		page := make([]byte, 128)
		binary.BigEndian.PutUint32(page[:4], next)
		m.WriteAt(encodeSlot(page, KindFree), int64(id)*int64(128+pageTrailerSize))
	}
	rewriteFreeHead := func(m *MemFile, head uint32) {
		slot := make([]byte, 128+pageTrailerSize)
		m.ReadAt(slot, 0)
		page := slot[:128]
		binary.BigEndian.PutUint32(page[20:24], head)
		m.WriteAt(encodeSlot(page, KindMeta), 0)
	}
	freshWAL := func(w *MemFile) *MemFile {
		c := NewMemFile()
		c.WriteAt(w.Bytes(), 0)
		return c
	}
	cases := map[string]func(m *MemFile){
		"self-cycle":        func(m *MemFile) { rewriteFreePage(m, 4, 4) },
		"out-of-range next": func(m *MemFile) { rewriteFreePage(m, 4, 999) },
		"out-of-range head": func(m *MemFile) { rewriteFreeHead(m, 999) },
		"head at data page": func(m *MemFile) { rewriteFreeHead(m, 1) },
	}
	for name, damage := range cases {
		main, wal, _ := buildStore(t) // page 4 is the freed page
		damage(main)
		if _, err := OpenFileDiskFiles(main, freshWAL(wal)); !isCorrupt(err) {
			t.Errorf("%s: open error = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestFileDiskCrashRecovery sweeps a crash over every write of a small
// commit-heavy run, with a checkpoint halfway, in every crash mode, and
// checks that reopening always yields either the pre-crash or post-crash
// committed state — never a broken store.
func TestFileDiskCrashRecovery(t *testing.T) {
	// One disarmed pass to count the crash points.
	run := func(cd *CrashDisk) (*MemFile, *MemFile, error) {
		main, wal := NewMemFile(), NewMemFile()
		d, err := CreateFileDiskFiles(cd.File(main), cd.File(wal), 128)
		if err != nil {
			return main, wal, err
		}
		for i := 0; i < 6; i++ {
			id, err := d.Alloc(KindData)
			if err != nil {
				return main, wal, err
			}
			if err := d.Write(id, []byte{byte(i + 1)}); err != nil {
				return main, wal, err
			}
			if err := d.WriteMeta([]byte{byte(i + 1)}); err != nil {
				return main, wal, err
			}
			if err := d.Sync(); err != nil {
				return main, wal, err
			}
			if i == 2 {
				if err := d.Sync(); err != nil { // idle: the checkpoint
					return main, wal, err
				}
			}
		}
		return main, wal, d.Close()
	}
	clean := NewCrashDisk()
	if _, _, err := run(clean); err != nil {
		t.Fatal(err)
	}
	total := clean.Writes()
	if total < 20 {
		t.Fatalf("only %d crash points; harness too small", total)
	}
	for point := int64(0); point < total; point++ {
		for _, mode := range []CrashMode{CrashDrop, CrashTorn, CrashUnsynced} {
			cd := NewCrashDisk()
			cd.Arm(point, mode)
			main, wal, err := run(cd)
			if !cd.Crashed() {
				t.Fatalf("point %d: crash never fired (err=%v)", point, err)
			}
			if err == nil {
				t.Fatalf("point %d: run survived a power loss", point)
			}
			d, err := OpenFileDiskFiles(main, wal)
			if err != nil {
				// Only a crash before the very first commit may leave
				// nothing recoverable — and it must still fail cleanly.
				if !isCorrupt(err) {
					t.Fatalf("point %d/%v: open error %v", point, mode, err)
				}
				continue
			}
			// The store must be internally consistent: meta record and
			// every allocated page readable, free list already walked.
			meta := make([]byte, 8)
			n, err := d.ReadMeta(meta)
			if err != nil {
				t.Fatalf("point %d/%v: meta: %v", point, mode, err)
			}
			buf := make([]byte, 128)
			alloc := d.Allocated()[KindData]
			if n == 1 && int(meta[0]) > alloc {
				t.Fatalf("point %d/%v: meta acknowledges %d pages, store has %d", point, mode, meta[0], alloc)
			}
			for id := PageID(1); int(id) <= alloc; id++ {
				if err := d.Read(id, buf); err != nil {
					t.Fatalf("point %d/%v: page %d: %v", point, mode, id, err)
				}
				if buf[0] != byte(id) {
					t.Fatalf("point %d/%v: page %d holds %d", point, mode, id, buf[0])
				}
			}
			d.Close()
		}
	}
}

// TestFaultStoreTornWrite verifies torn mode really garbles the second
// half of the faulting write and that per-kind targeting skips untargeted
// traffic without consuming the countdown.
func TestFaultStoreTornWrite(t *testing.T) {
	inner := NewMemDisk(64)
	fs := NewFaultStore(inner, -1)
	dir, _ := fs.Alloc(KindDirectory)
	data, _ := fs.Alloc(KindData)

	fs.TargetKinds(KindDirectory)
	fs.ArmMode(0, FaultTorn)
	// Data-page traffic must flow while the directory fault is armed.
	if err := fs.Write(data, page(64, 0x77)); err != nil {
		t.Fatalf("untargeted write faulted: %v", err)
	}
	if err := fs.Write(dir, page(64, 0x11)); !errors.Is(err, ErrInjected) {
		t.Fatalf("targeted write: %v", err)
	}
	fs.Disarm()
	fs.TargetKinds()
	buf := make([]byte, 64)
	if err := fs.Read(dir, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x11 || buf[63] != 0x11^0xA5 {
		t.Fatalf("torn write not applied as torn: first=%x last=%x", buf[0], buf[63])
	}
	if err := fs.Read(data, buf); err != nil || buf[63] != 0x77 {
		t.Fatalf("untargeted page damaged: %x %v", buf[63], err)
	}
}

// TestGroupCommitterCoalesces: the writes that concurrent writers stage
// before a commit all ride that one commit. Every writer stages its page
// and then calls Sync; the first Sync commits the whole group and the rest
// find nothing left to commit, yet each returns only once its own page is
// committed. This is the store side of the server's write queue, which
// applies a batch of writes before one Sync.
func TestGroupCommitterCoalesces(t *testing.T) {
	fd, err := CreateFileDiskFiles(NewMemFile(), NewMemFile(), 128)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	var mu sync.Mutex
	committed := map[PageID]uint64{}
	fd.SetCommitHook(func(seq uint64, frames []Frame) {
		mu.Lock()
		defer mu.Unlock()
		for _, fr := range frames {
			committed[fr.ID] = seq
		}
	})
	seq0 := fd.CommitSeq()
	const writers = 32
	ids := make([]PageID, writers)
	for i := range ids {
		if ids[i], err = fd.Alloc(KindData); err != nil {
			t.Fatal(err)
		}
	}
	var staged, wg sync.WaitGroup
	staged.Add(writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, 8)
			binary.BigEndian.PutUint64(buf, uint64(i)+1)
			err := fd.Write(ids[i], buf)
			staged.Done()
			if err != nil {
				t.Error(err)
				return
			}
			staged.Wait()
			if err := fd.Sync(); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			_, ok := committed[ids[i]]
			mu.Unlock()
			if !ok {
				t.Errorf("Sync returned before page %d was committed", ids[i])
			}
		}(i)
	}
	wg.Wait()
	if got := fd.CommitSeq() - seq0; got != 1 {
		t.Fatalf("%d Syncs over writes staged together made %d commits, want 1", writers, got)
	}
	for _, id := range ids {
		if committed[id] != seq0+1 {
			t.Fatalf("page %d committed in batch %d, want %d", id, committed[id], seq0+1)
		}
	}
}

// TestFileDiskGroupCommitDurability runs concurrent writers that each
// write their own page and Sync, so that commits share whatever was staged
// when they ran, then reopens the surviving bytes: every synced page must
// be durable.
func TestFileDiskGroupCommitDurability(t *testing.T) {
	main, wal := NewMemFile(), NewMemFile()
	fd, err := CreateFileDiskFiles(main, wal, 128)
	if err != nil {
		t.Fatal(err)
	}
	seq0 := fd.CommitSeq()
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
			if err := fd.Sync(); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	commits := fd.CommitSeq() - seq0
	if commits == 0 || commits > writers {
		t.Fatalf("commits = %d out of %d syncs", commits, writers)
	}
	t.Logf("%d syncs, %d commits", writers, commits)
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
