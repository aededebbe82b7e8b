package pagestore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// requireMapping skips tests that assert true zero-copy behavior on
// platforms where the main file offers no read view. The rest of the
// suite (conformance, crash matrix) still runs there through pread.
func requireMapping(t *testing.T, d *FileDisk) {
	t.Helper()
	if d.view == nil {
		t.Skip("no mmap on this platform; the pread path is covered by the conformance suite")
	}
}

// TestMmapZeroCopyAliasing proves ReadSlice really is zero-copy: two
// reads of the same committed page return slices over the same backing
// memory — the mapping, not the caller's buffer — and each counts one
// read; before the commit the staged image is served instead.
func TestMmapZeroCopyAliasing(t *testing.T) {
	d, err := CreateFileDisk(filepath.Join(t.TempDir(), "disk"), 128)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	requireMapping(t, d)
	id, err := d.Alloc(KindData)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(id, []byte("alias-me")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	// Before the commit the page is staged: ReadSlice serves the staging
	// buffer.
	s0, err := d.ReadSlice(id, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &s0[0] == &buf[0] || &s0[0] != &d.dirty[id][0] {
		t.Fatal("staged read did not serve the staging buffer")
	}
	if !bytes.Equal(s0[:8], []byte("alias-me")) {
		t.Fatalf("staged slice %q", s0[:8])
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	a, err := d.ReadSlice(id, buf)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.ReadSlice(id, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("two ReadSlice calls returned different backing memory; a copy happened")
	}
	if &a[0] == &buf[0] {
		t.Fatal("committed page was read into the caller's buffer, not served from the mapping")
	}
	if len(a) != 128 || cap(a) != 128 {
		t.Fatalf("slice len/cap = %d/%d, want page-size-capped", len(a), cap(a))
	}
	if !bytes.Equal(a[:8], []byte("alias-me")) {
		t.Fatalf("mapped slice %q", a[:8])
	}
	if got := d.Stats().Reads; got != 2 {
		t.Fatalf("two zero-copy reads counted as %d", got)
	}
}

// TestFileDiskReadSliceAllocatesNothing pins the mapped read path under
// every decoded-cache miss: ReadSlice of a committed page allocates
// nothing.
func TestFileDiskReadSliceAllocatesNothing(t *testing.T) {
	d, err := CreateFileDisk(filepath.Join(t.TempDir(), "disk"), 128)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	requireMapping(t, d)
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
	var page []byte
	allocs := testing.AllocsPerRun(100, func() {
		if page, err = d.ReadSlice(id, buf); err != nil {
			t.Fatal(err)
		}
	})
	if page[0] != 0x5A || &page[0] == &buf[0] {
		t.Fatalf("ReadSlice served %#x, mapped=%v", page[0], &page[0] != &buf[0])
	}
	if allocs != 0 {
		t.Fatalf("ReadSlice of a committed page allocates %v times, want 0", allocs)
	}
}

// TestMmapGrowthKeepsSlicesValid drives the file across several mapping
// chunks (4 MiB each) and verifies a slice taken before the growth still
// points at the same memory with the same contents afterwards — the
// contiguous-reservation design never remaps established chunks.
func TestMmapGrowthKeepsSlicesValid(t *testing.T) {
	const ps = 4096
	d, err := CreateFileDisk(filepath.Join(t.TempDir(), "disk"), ps)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	requireMapping(t, d)
	first, err := d.Alloc(KindData)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(first, []byte("pre-growth")); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ps)
	early, err := d.ReadSlice(first, buf)
	if err != nil {
		t.Fatal(err)
	}
	p0 := &early[0]

	// Push well past one chunk: ~1500 pages x 4 KiB ≈ 6 MiB, committing
	// in batches so the mapping actually grows as it would in production.
	payload := bytes.Repeat([]byte{0x5A}, ps)
	var last PageID
	for i := 0; i < 1500; i++ {
		id, err := d.Alloc(KindData)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(id, payload); err != nil {
			t.Fatal(err)
		}
		last = id
		if i%500 == 499 {
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if int64(last)*int64(ps+pageTrailerSize) < mmapChunkBytes {
		t.Fatalf("test did not cross a chunk boundary (last id %d)", last)
	}
	again, err := d.ReadSlice(first, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != p0 {
		t.Fatal("growth moved an established page's mapping")
	}
	if !bytes.Equal(again[:10], []byte("pre-growth")) {
		t.Fatalf("pre-growth page now reads %q", again[:10])
	}
	// Pages beyond the first chunk serve zero-copy too.
	far, err := d.ReadSlice(last, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &far[0] == &buf[0] {
		t.Fatal("page beyond the first chunk was not served from the mapping")
	}
	if !bytes.Equal(far, payload) {
		t.Fatal("page beyond first chunk corrupt")
	}
}

// TestMmapVerifyOnce pins the verify-once discipline: the CRC trailer is
// checked on the first read of a committed page version, not on repeats —
// and a commit that rewrites the page re-arms verification.
func TestMmapVerifyOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk")
	d, err := CreateFileDisk(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	requireMapping(t, d)
	id, err := d.Alloc(KindData)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(id, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if _, err := d.ReadSlice(id, buf); err != nil {
		t.Fatal(err) // first read verifies and caches the verdict
	}
	corrupt := func() {
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		off := int64(id)*int64(128+pageTrailerSize) + 128 // CRC byte
		one := make([]byte, 1)
		if _, err := f.ReadAt(one, off); err != nil {
			t.Fatal(err)
		}
		one[0] ^= 0xFF
		if _, err := f.WriteAt(one, off); err != nil {
			t.Fatal(err)
		}
	}
	// Damage the trailer behind the store's back: the verified bit is
	// set, so repeat reads skip the CRC and still succeed.
	corrupt()
	if _, err := d.ReadSlice(id, buf); err != nil {
		t.Fatalf("verified page re-checked: %v", err)
	}
	// A commit rewriting the page clears its bit (and recomputes a good
	// trailer); damaging it again must now be caught on the next read.
	if err := d.Write(id, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	corrupt()
	if _, err := d.ReadSlice(id, buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("post-commit read = %v, want ErrCorrupt", err)
	}
}

// TestMmapReopen closes and reopens a store and checks contents survive
// and the reopened store serves them through its view, including pages
// written just before close.
func TestMmapReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk")
	d, err := CreateFileDisk(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 5; i++ {
		id, err := d.Alloc(KindData)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(id, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := d.WriteMeta([]byte("mmap-meta")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	buf := make([]byte, 128)
	for i, id := range ids {
		sl, err := re.ReadSlice(id, buf)
		if err != nil {
			t.Fatal(err)
		}
		if sl[0] != byte(i+1) {
			t.Fatalf("page %d reads %d after reopen", id, sl[0])
		}
		if MmapSupported && &sl[0] == &buf[0] {
			t.Fatalf("page %d was preaded after reopen; the store lost its view", id)
		}
	}
}

// TestMmapFaultStore checks the fault injector composes with the mapped
// read path: ReadSlice faults fire on schedule and untargeted traffic
// flows, so read-path fault coverage carries over to it.
func TestMmapFaultStore(t *testing.T) {
	d, err := CreateFileDisk(filepath.Join(t.TempDir(), "disk"), 128)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id, err := d.Alloc(KindData)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(id, []byte("fault-me")); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	fs := NewFaultStore(d, -1)
	buf := make([]byte, 128)
	sl, err := fs.ReadSlice(id, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sl[:8], []byte("fault-me")) {
		t.Fatalf("through-fault slice %q", sl[:8])
	}
	fs.Arm(1) // next-but-one read faults
	if _, err := fs.ReadSlice(id, buf); err != nil {
		t.Fatalf("read before countdown: %v", err)
	}
	if _, err := fs.ReadSlice(id, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed ReadSlice = %v, want ErrInjected", err)
	}
	fs.Disarm()
	if _, err := fs.ReadSlice(id, buf); err != nil {
		t.Fatalf("read after disarm: %v", err)
	}
}

// TestMmapCrashDiskWiring checks capability detection sees through the
// crash harness: a CrashDisk-wrapped real file still yields a store with a
// read view, and a crash mid-commit leaves bytes the recovery path accepts
// and the reopened store reads through its view. (The full sweep is
// TestCrashMatrixMmap in internal/core.)
func TestMmapCrashDiskWiring(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk")
	mf, err := OpenMappedFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	cd := NewCrashDisk()
	wal := NewMemFile()
	d, err := CreateFileDiskFiles(cd.File(mf), cd.File(wal), 128)
	if err != nil {
		t.Fatal(err)
	}
	if MmapSupported && d.view == nil {
		t.Fatal("crash wrapper hid the view from capability detection")
	}
	id, err := d.Alloc(KindData)
	if err != nil {
		t.Fatal(err)
	}
	other, err := d.Alloc(KindData)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(id, []byte("survives")); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash on the next write and drive a doomed commit.
	cd.Arm(0, CrashTorn)
	if err := d.Write(id, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err == nil {
		t.Fatal("commit survived a power loss")
	}
	if !cd.Crashed() {
		t.Fatal("crash never fired")
	}
	// The dead device refuses committed reads through the view as well as
	// through pread.
	if _, err := d.ReadSlice(other, make([]byte, 128)); err == nil {
		t.Fatal("crashed device served a committed page")
	}
	// "Reboot": reopen the surviving files, unwrapped, through recovery —
	// the crashed store is simply abandoned, as a dead process abandons
	// its descriptors. The WAL survives the crash exactly like the main
	// file; recovery replays or discards its last record.
	re, err := OpenFileDiskFiles(mf, wal)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer re.Close()
	buf := make([]byte, 128)
	sl, err := re.ReadSlice(id, buf)
	if err != nil {
		t.Fatal(err)
	}
	if MmapSupported && &sl[0] == &buf[0] {
		t.Fatal("recovered store read through pread, not its view")
	}
	if got := string(sl[:8]); got != "survives" && got != "doomed\x00\x00" {
		t.Fatalf("recovered page %q is neither pre- nor post-crash state", got)
	}
}

// TestFileDiskOutgrowsMapping grows a store far past a lowered read-view
// reservation. Writes never touch the mapping, so nothing fails: pages
// inside the reservation are read through the view, pages past it through
// pread, before and after a reopen, and the reopened file passes the
// page-level fsck (open-time validation of meta, kinds and free list, plus
// CheckPages over every slot).
func TestFileDiskOutgrowsMapping(t *testing.T) {
	const ps = 1024
	old := mmapReserveBytes
	mmapReserveBytes = 256 << 10
	defer func() { mmapReserveBytes = old }()

	path := filepath.Join(t.TempDir(), "disk")
	d, err := CreateFileDisk(path, ps)
	if err != nil {
		t.Fatal(err)
	}
	image := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8)}, ps/2) }
	const pages = 1000 // ~1 MiB of slots: four times the reservation
	ids := make([]PageID, pages)
	for i := range ids {
		if ids[i], err = d.Alloc(KindData); err != nil {
			t.Fatal(err)
		}
		if err := d.Write(ids[i], image(i)); err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 {
			if err := d.Sync(); err != nil {
				t.Fatalf("commit reaching %d KiB: %v", int64(ids[i]+1)*(ps+pageTrailerSize)>>10, err)
			}
		}
	}
	// Free and reallocate a page past the reservation, so the free list
	// runs through it too.
	if err := d.Free(ids[pages-1]); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	readAll := func(st *FileDisk) {
		t.Helper()
		buf := make([]byte, ps)
		mapped := 0
		for i, id := range ids[:pages-1] {
			page, err := st.ReadSlice(id, buf)
			if err != nil {
				t.Fatalf("page %d: %v", id, err)
			}
			if !bytes.Equal(page, image(i)) {
				t.Fatalf("page %d holds the wrong image", id)
			}
			if &page[0] != &buf[0] {
				mapped++
			}
			if err := st.Read(id, buf); err != nil || !bytes.Equal(buf, image(i)) {
				t.Fatalf("Read of page %d: %v", id, err)
			}
		}
		if MmapSupported && (mapped == 0 || mapped == pages-1) {
			t.Fatalf("%d of %d pages read through the view; want some, not all", mapped, pages-1)
		}
	}
	readAll(d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n, free, problems := re.CheckPages(); len(problems) != 0 || n != pages+1 || free != 1 {
		t.Fatalf("fsck: %d slots, %d free, problems %v", n, free, problems)
	}
	readAll(re)
	if id, err := re.Alloc(KindData); err != nil || id != ids[pages-1] {
		t.Fatalf("realloc past the reservation = %d, %v; want %d", id, err, ids[pages-1])
	}
}
