package pagestore

// mmapChunkBytes is the granularity at which a read view maps its file
// into the address-space reservation. Growth maps the next chunk(s) with
// MAP_FIXED at the reserved address — existing chunks are never moved or
// remapped, which is what keeps outstanding zero-copy slices valid across
// file growth. Must be a multiple of the OS page size. (Declared here,
// platform-neutrally, so tests can reason about chunk boundaries
// everywhere; only the Linux mapping code consumes it.)
const mmapChunkBytes int64 = 4 << 20

// mmapReserveBytes is the size of the contiguous virtual-address
// reservation a read view lives in. Address space is reserved (PROT_NONE,
// MAP_NORESERVE), not committed: no physical memory or swap is charged
// until file chunks are mapped over it. 16 GiB bounds how much of a store
// the view covers; pages beyond it are read through pread. (A variable,
// and platform-neutral like mmapChunkBytes, so a test can lower it.)
var mmapReserveBytes int64 = 16 << 30

// sliceView is the read view a File may offer: a window straight onto its
// bytes. mmapFile implements it; crashFile forwards it so the crash
// harness can wrap a mapped file. A view never writes — every write still
// goes through the File's WriteAt — and it covers only the prefix of the
// file its store has declared written (Map), so a reader never touches a
// mapped page beyond end of file.
type sliceView interface {
	// Slice returns file bytes [off, off+n) without copying, or ok=false
	// when the range lies outside the view; the caller then reads through
	// ReadAt. The slice stays valid (same backing memory) until the file
	// is closed; its contents track the file.
	Slice(off int64, n int) (b []byte, ok bool)
	// Map extends the view to the first size bytes of the file, which the
	// caller guarantees exist. Best effort: what cannot be mapped (the
	// address-space reservation is full, or mmap fails) stays outside the
	// view.
	Map(size int64)
}

// sliceCapabler lets a wrapping File (crashFile) report whether the file
// underneath it actually supports Slice, so capability detection sees
// through wrappers whose Slice would always decline.
type sliceCapabler interface {
	SliceCapable() bool
}

// viewOf returns f as a sliceView if it can genuinely serve zero-copy
// slices, seeing through capability-reporting wrappers.
func viewOf(f File) sliceView {
	if c, ok := f.(sliceCapabler); ok && !c.SliceCapable() {
		return nil
	}
	if v, ok := f.(sliceView); ok {
		return v
	}
	return nil
}

// SliceReader is implemented by stores that can serve a page read without
// copying it. ReadSlice returns the page's current image, exactly
// PageSize bytes: a window straight onto the store's memory when there is
// one (a staged image, or a committed slot inside the file's read view),
// otherwise the page read into buf, which must hold PageSize bytes.
// Counts one disk read. Callers never write to the result: the view is
// mapped read-only, and staged images are shared (every freshly
// allocated page stages the same zero image).
//
// Lifetime discipline (see DESIGN.md): a window's *contents* are stable
// until the next commit that rewrites the page — under the index's
// locking that means for as long as the caller holds the read lock it read
// under — and its *memory* stays valid until the store is closed. Callers
// that outlive the read lock must copy. There is no byte cache in the
// store stack: the OS page cache fills that role, and the core's
// decoded-object cache sits directly on top of this read path.
type SliceReader interface {
	ReadSlice(id PageID, buf []byte) ([]byte, error)
}

// OpenMappedFile opens (or, with truncate, creates) path as the main file
// of a FileDisk: a plain read/write file that also offers a read view
// where the platform can map it. CreateFileDisk and OpenFileDisk use it;
// crash and fault harnesses use it to build stores over wrapped real files
// (CrashDisk.File) that still read through the view.
func OpenMappedFile(path string, truncate bool) (File, error) {
	f, err := openOSFile(path, truncate)
	if err != nil {
		return nil, err
	}
	return withView(f), nil
}
