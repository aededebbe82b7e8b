// Package bmeh is a multidimensional order-preserving extendible hashing
// library, a from-scratch implementation of Otoo's Balanced
// Multidimensional Extendible Hash Tree (PODS 1986) together with the two
// baseline organizations the paper evaluates against.
//
// An Index stores records keyed by d-dimensional vectors and supports
// exact-match lookup, insertion, deletion, and orthogonal (partial-)range
// queries over an order-preserving rectilinear partitioning of the key
// space. Three directory organizations are available:
//
//   - SchemeBMEH (default): the paper's contribution — a height-balanced
//     tree of fixed-size directory nodes. Directory growth is near linear
//     in the number of keys regardless of skew, and an exact-match lookup
//     touches exactly (levels−1) directory pages plus one data page, with
//     the root held in memory (≤ 3 page reads for directories up to 2^27
//     elements at the default node size).
//   - SchemeMDEH: the classic one-level directory. Lookups cost exactly
//     two page reads, but the directory can grow super-linearly (and
//     insertion cost explode) under skewed keys.
//   - SchemeMEH: a simpler multilevel directory growing from the root
//     down; shallow for cold regions but unbalanced and space-hungry.
//
// Keys are vectors of unsigned components compared numerically; package
// users index arbitrary attribute types by encoding them order-preservingly
// with the helpers in keys.go (signed integers, floats, bounded reals,
// string prefixes).
package bmeh

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bmeh/internal/bitkey"
	"bmeh/internal/core"
	"bmeh/internal/mdeh"
	"bmeh/internal/mehtree"
	"bmeh/internal/pagestore"
	"bmeh/internal/params"
)

// Scheme selects the directory organization of an Index.
type Scheme int

const (
	// SchemeBMEH is the balanced multidimensional extendible hash tree.
	SchemeBMEH Scheme = iota
	// SchemeMDEH is multidimensional extendible hashing with a one-level
	// directory.
	SchemeMDEH
	// SchemeMEH is the downward-growing multidimensional extendible hash
	// tree.
	SchemeMEH
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeBMEH:
		return "BMEH-tree"
	case SchemeMDEH:
		return "MDEH"
	case SchemeMEH:
		return "MEH-tree"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// WriteMode selects how the BMEH core commits mutations.
type WriteMode int

const (
	// WriteModeLatched (default) mutates pages in place under crabbed
	// latches; readers validate against a structure version and retry
	// around restructurings.
	WriteModeLatched WriteMode = iota
	// WriteModeCOW routes every mutation through shadow pages and commits
	// it with a single atomic root swap. Committed pages are never
	// rewritten in place, which is what makes Snapshot possible: a reader
	// pins a root and reads it latch-free while writers keep committing.
	// Superseded pages are reclaimed by epoch once no snapshot can reach
	// them. Requires SchemeBMEH.
	WriteModeCOW
)

// String implements fmt.Stringer.
func (m WriteMode) String() string {
	switch m {
	case WriteModeLatched:
		return "latched"
	case WriteModeCOW:
		return "cow"
	default:
		return fmt.Sprintf("WriteMode(%d)", int(m))
	}
}

// Key is a d-dimensional key vector. Components compare numerically; use
// the encoding helpers to map other attribute types order-preservingly.
type Key []uint64

// KV is one key/value pair, the unit of batched insertion.
type KV struct {
	Key   Key
	Value uint64
}

// ErrDuplicate is returned by Insert when the key is already present.
var ErrDuplicate = errors.New("bmeh: duplicate key")

// Options configures an Index.
type Options struct {
	// Scheme selects the directory organization (default SchemeBMEH).
	Scheme Scheme
	// Dims is the key dimensionality d (required, 1..8).
	Dims int
	// PageCapacity is the data page capacity b in records (default 32).
	PageCapacity int
	// NodeBits is ξ_j, the per-dimension address bits of a directory node
	// (tree schemes; also sizes MDEH's directory pages). Default: 6 bits
	// split evenly across dimensions, the paper's configuration.
	// Setting all entries to 1 yields the paper's "balanced binary
	// quadtree/octtree" variant.
	NodeBits []int
	// Width is the significant bits per key component (default 32, max 64).
	Width int
	// CacheFrames is accepted and ignored; Options reports it as 0. It
	// once sized a byte-level page pool below the decoded-object cache,
	// which left that pool nothing to hold. The only caches are the
	// pinned root and the decoded-object cache (plus, below the store,
	// the OS page cache).
	CacheFrames int
	// SyncPolicy is accepted and ignored; Options reports it as zero. Each
	// Sync is its own commit. Writers that should share a commit batch
	// their writes first: InsertBatch does, and so does the network
	// server's write queue.
	SyncPolicy SyncPolicy
	// WriteMode selects the mutation protocol (default WriteModeLatched).
	// WriteModeCOW enables Snapshot at the cost of page copies on the
	// write path; it requires SchemeBMEH. The mode is a property of the
	// process, not the file — either mode opens any index file.
	WriteMode WriteMode
	// SnapshotMaxPinAge, when positive, bounds how long a Snapshot may
	// pin its epoch (WriteModeCOW only). Pins older than the bound are
	// force-released by the next reclamation pass; reads on a released
	// snapshot fail with ErrSnapshotReleased, and each release counts in
	// SnapshotStats.ForcedReleases. This is a guard against abandoned
	// pins — a snapshot leaked without Close would otherwise hold every
	// page version retired since it was taken. Set it well above the
	// longest legitimate snapshot read (a backup stream, a full scan):
	// a snapshot actively reading past the bound fails mid-read. Zero
	// (the default) means pins never expire.
	SnapshotMaxPinAge time.Duration
}

// SyncPolicy is accepted and ignored by Options.SyncPolicy and
// SetSyncPolicy: Index.Sync commits once per call and batches nothing.
// The type stays so existing callers compile.
type SyncPolicy struct {
	Interval time.Duration // ignored
	MaxBatch int           // ignored
}

// PoolStats is the counter pair of the retired byte-level page pool. No
// index has one any more, so Index.PoolStats always reports the zero
// value; the type stays so existing callers compile.
type PoolStats struct {
	Hits   uint64 // lookups served from a resident frame
	Misses uint64 // lookups that faulted a page in from the store
}

func (o Options) params() (params.Params, error) {
	if o.Dims == 0 {
		return params.Params{}, errors.New("bmeh: Options.Dims is required")
	}
	prm := params.Default(o.Dims, 32)
	if o.PageCapacity != 0 {
		prm.Capacity = o.PageCapacity
	}
	if o.Width != 0 {
		prm.Width = o.Width
	}
	if o.NodeBits != nil {
		prm.Xi = append([]int(nil), o.NodeBits...)
	}
	return prm, prm.Validate()
}

// impl is the common surface of the three scheme implementations.
type impl interface {
	Insert(k bitkey.Vector, v uint64) error
	Search(k bitkey.Vector) (uint64, bool, error)
	Delete(k bitkey.Vector) (bool, error)
	Range(lo, hi bitkey.Vector, fn func(bitkey.Vector, uint64) bool) error
	Len() int
	Levels() int
	DirectoryElements() int
	DirectoryPages() int
	Validate() error
}

// Index is a multidimensional extendible-hashing index. All methods are
// safe for concurrent use. Under the default BMEH scheme the core tree
// synchronizes itself — searches run latch-free with optimistic
// validation, and writers crab per-node latches so inserts into different
// subtrees proceed in parallel; ix.mu then only fences lifecycle state
// (Sync, Close) and is held shared by data operations.
// The comparison schemes (MDEH, MEH) are single-writer: their mutations
// serialize on ix.mu's write side, with lookups sharing the read side.
type Index struct {
	mu     sync.RWMutex
	opts   Options
	prm    params.Params
	scheme Scheme
	idx    impl
	store  pagestore.Store
	file   *pagestore.FileDisk
	// recovered is the number of committed WAL batches replayed when the
	// index was opened (0 for New/Create and after a clean shutdown).
	recovered int
	closed    bool
	// keyPool recycles converted key vectors for Get/Insert/Delete; the
	// scheme implementations never retain the vector (stored records clone
	// it), so the buffer can be reused as soon as the call returns.
	keyPool sync.Pool
}

// requiredPageBytes returns the page size for the scheme and parameters.
func requiredPageBytes(s Scheme, prm params.Params) int {
	switch s {
	case SchemeMDEH:
		return mdeh.PageBytes(prm)
	case SchemeMEH:
		return mehtree.PageBytes(prm)
	default:
		return core.PageBytes(prm)
	}
}

// loadImpl reconstructs the scheme implementation recorded in an index
// header (the store's meta record). Open and the replication apply path
// (which rebuilds the in-memory view after each replicated commit) share
// it.
func loadImpl(st pagestore.Store, meta []byte) (impl, Scheme, params.Params, error) {
	if len(meta) == 0 {
		return nil, 0, params.Params{}, errors.New("store holds no index header")
	}
	switch meta[0] {
	case 'B':
		tree, err := core.Load(st, meta)
		if err != nil {
			return nil, 0, params.Params{}, err
		}
		return tree, SchemeBMEH, tree.Params(), nil
	case 'M':
		tree, err := mehtree.Load(st, meta)
		if err != nil {
			return nil, 0, params.Params{}, err
		}
		return tree, SchemeMEH, tree.Params(), nil
	case 'D':
		tab, err := mdeh.Load(st, meta)
		if err != nil {
			return nil, 0, params.Params{}, err
		}
		return tab, SchemeMDEH, tab.Params(), nil
	default:
		return nil, 0, params.Params{}, fmt.Errorf("unknown index kind %q in header", meta[0])
	}
}

func buildImpl(s Scheme, st pagestore.Store, prm params.Params) (impl, error) {
	switch s {
	case SchemeMDEH:
		return mdeh.New(st, prm)
	case SchemeMEH:
		return mehtree.New(st, prm)
	case SchemeBMEH:
		return core.New(st, prm)
	default:
		return nil, fmt.Errorf("bmeh: unknown scheme %d", int(s))
	}
}

// New creates an in-memory Index.
func New(opts Options) (*Index, error) {
	prm, err := opts.params()
	if err != nil {
		return nil, err
	}
	ix := &Index{opts: opts, prm: prm, scheme: opts.Scheme}
	ix.store = pagestore.NewMemDisk(requiredPageBytes(opts.Scheme, prm))
	ix.idx, err = buildImpl(opts.Scheme, ix.store, prm)
	if err != nil {
		return nil, err
	}
	if err := ix.applyWriteMode(opts.WriteMode); err != nil {
		return nil, err
	}
	return ix, nil
}

// applyWriteMode switches a freshly built or loaded index into the
// requested write mode. Setup-time only: it runs before the index is
// shared.
func (ix *Index) applyWriteMode(mode WriteMode) error {
	switch mode {
	case WriteModeLatched:
		return nil
	case WriteModeCOW:
		tr, ok := ix.idx.(*core.Tree)
		if !ok {
			return fmt.Errorf("bmeh: WriteModeCOW requires SchemeBMEH (index is %v)", ix.scheme)
		}
		tr.EnableCOW()
		tr.SetSnapshotMaxPinAge(ix.opts.SnapshotMaxPinAge)
		return nil
	default:
		return fmt.Errorf("bmeh: unknown write mode %d", int(mode))
	}
}

// Create creates a file-backed Index at path (truncating any existing
// file). All schemes persist; the scheme is recorded in the file and
// recovered by Open.
func Create(path string, opts Options) (*Index, error) {
	prm, err := opts.params()
	if err != nil {
		return nil, err
	}
	file, err := pagestore.CreateFileDisk(path, requiredPageBytes(opts.Scheme, prm))
	if err != nil {
		return nil, err
	}
	ix := &Index{opts: opts, prm: prm, scheme: opts.Scheme, store: file, file: file}
	ix.idx, err = buildImpl(opts.Scheme, file, prm)
	if err != nil {
		file.Close()
		return nil, err
	}
	if err := ix.applyWriteMode(opts.WriteMode); err != nil {
		file.Close()
		return nil, err
	}
	if err := ix.syncLocked(); err != nil {
		file.Close()
		return nil, err
	}
	return ix, nil
}

// Open opens a file-backed Index previously written by Create.
// cacheFrames is ignored, like Options.CacheFrames.
func Open(path string, cacheFrames int) (*Index, error) {
	return OpenWithOptions(path, Options{})
}

// OpenWithOptions is Open with the full set of runtime options: WriteMode
// and SnapshotMaxPinAge are honored; geometry fields (Scheme,
// Dims, PageCapacity, NodeBits, Width) are recovered from the file and
// ignored in opts.
func OpenWithOptions(path string, opts Options) (*Index, error) {
	file, err := pagestore.OpenFileDisk(path)
	if err != nil {
		return nil, err
	}
	return openOn(file, path, opts)
}

// openOn is OpenWithOptions over an opened store, which it closes on
// failure; path names the store in errors.
func openOn(file *pagestore.FileDisk, path string, opts Options) (*Index, error) {
	ix := &Index{store: file, file: file}
	// The meta area can hold up to a page: a v3 record carries the COW
	// deferred free list, which is far larger than the fixed header.
	meta := make([]byte, file.PageSize())
	n, err := file.ReadMeta(meta)
	if err != nil {
		file.Close()
		return nil, err
	}
	if n == 0 {
		file.Close()
		return nil, fmt.Errorf("bmeh: %s has no index header", path)
	}
	ix.idx, ix.scheme, ix.prm, err = loadImpl(file, meta[:n])
	if err != nil {
		file.Close()
		return nil, fmt.Errorf("bmeh: %s: %w", path, err)
	}
	// Pages the previous process had retired but not yet reclaimed (they
	// were pinned by open snapshots when the meta committed) are free to
	// recycle now: snapshot pins do not survive the process. A replica's
	// reload path deliberately skips this — it must stay byte-identical to
	// the primary's commit stream.
	if tr, ok := ix.idx.(*core.Tree); ok {
		if err := tr.ReclaimPending(); err != nil {
			file.Close()
			return nil, fmt.Errorf("bmeh: %s: reclaiming retired pages: %w", path, err)
		}
	}
	// applyWriteMode reads ix.opts, so fill it in first.
	ix.opts = Options{
		Scheme:            ix.scheme,
		Dims:              ix.prm.Dims,
		PageCapacity:      ix.prm.Capacity,
		NodeBits:          ix.prm.Xi,
		Width:             ix.prm.Width,
		WriteMode:         opts.WriteMode,
		SnapshotMaxPinAge: opts.SnapshotMaxPinAge,
	}
	if err := ix.applyWriteMode(opts.WriteMode); err != nil {
		file.Close()
		return nil, err
	}
	ix.recovered = file.RecoveredCommits()
	return ix, nil
}

// Options returns the index's effective configuration: the scheme,
// geometry and write settings in force, whether they were given to
// New/Create or recovered from a file by Open. The returned value is a
// copy; mutating it does not affect the index.
func (ix *Index) Options() Options {
	o := ix.opts
	o.Scheme = ix.scheme
	o.Dims = ix.prm.Dims
	o.PageCapacity = ix.prm.Capacity
	o.Width = ix.prm.Width
	o.NodeBits = append([]int(nil), ix.prm.Xi...)
	o.CacheFrames = 0
	o.SyncPolicy = SyncPolicy{}
	return o
}

// RecoveryInfo describes what crash recovery had to do when a
// file-backed index was opened.
type RecoveryInfo struct {
	// ReplayedCommits is the number of committed write-ahead-log batches
	// recovery replayed into the file on Open. It is always 0 for an
	// index built by New or Create.
	ReplayedCommits int
}

// CleanShutdown reports whether opening needed no log replay: the
// previous process committed its final Sync and checkpointed the log
// before exiting, which is what Close (and bmehserve's graceful drain)
// leave behind. A positive ReplayedCommits means the store came back from
// a crash, with the commits since the last checkpoint still in the log —
// the data is intact either way; this only distinguishes how the process
// ended.
func (r RecoveryInfo) CleanShutdown() bool { return r.ReplayedCommits == 0 }

// Recovery reports what opening this index's file required of crash
// recovery. Meaningful after Open; an index created in-process reports
// a clean state trivially.
func (ix *Index) Recovery() RecoveryInfo {
	return RecoveryInfo{ReplayedCommits: ix.recovered}
}

// key converts and validates a public key into a fresh vector (callers
// that may retain the vector use this; the per-operation paths use
// keyPooled).
func (ix *Index) key(k Key) (bitkey.Vector, error) {
	if len(k) != ix.prm.Dims {
		return nil, fmt.Errorf("bmeh: key has %d components, index expects %d", len(k), ix.prm.Dims)
	}
	v := make(bitkey.Vector, len(k))
	if err := ix.fillKey(v, k); err != nil {
		return nil, err
	}
	return v, nil
}

func (ix *Index) fillKey(v bitkey.Vector, k Key) error {
	for j, c := range k {
		if ix.prm.Width < 64 && c >= 1<<uint(ix.prm.Width) {
			return fmt.Errorf("bmeh: component %d (%d) exceeds the index's %d-bit width", j+1, c, ix.prm.Width)
		}
		v[j] = bitkey.Component(c)
	}
	return nil
}

// keyPooled is key backed by the index's buffer pool; return the buffer
// with putKey once the operation no longer reads it.
func (ix *Index) keyPooled(k Key) (*bitkey.Vector, error) {
	if len(k) != ix.prm.Dims {
		return nil, fmt.Errorf("bmeh: key has %d components, index expects %d", len(k), ix.prm.Dims)
	}
	vp, _ := ix.keyPool.Get().(*bitkey.Vector)
	if vp == nil {
		v := make(bitkey.Vector, ix.prm.Dims)
		vp = &v
	}
	if err := ix.fillKey(*vp, k); err != nil {
		ix.keyPool.Put(vp)
		return nil, err
	}
	return vp, nil
}

func (ix *Index) putKey(vp *bitkey.Vector) { ix.keyPool.Put(vp) }

func translateErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, core.ErrDuplicate),
		errors.Is(err, mdeh.ErrDuplicate),
		errors.Is(err, mehtree.ErrDuplicate):
		return ErrDuplicate
	default:
		return err
	}
}

// Insert stores value under key. It returns ErrDuplicate if the key is
// already present.
func (ix *Index) Insert(k Key, value uint64) error {
	vp, err := ix.keyPooled(k)
	if err != nil {
		return err
	}
	// The BMEH core synchronizes its own write path (latch crabbing), so
	// concurrent Inserts only share ix.mu; the flat comparison schemes are
	// single-writer and need the exclusive side.
	lock, unlock := ix.mu.Lock, ix.mu.Unlock
	if ix.scheme == SchemeBMEH {
		lock, unlock = ix.mu.RLock, ix.mu.RUnlock
	}
	lock()
	if ix.closed {
		unlock()
		ix.putKey(vp)
		return pagestore.ErrClosed
	}
	err = translateErr(ix.idx.Insert(*vp, value))
	unlock()
	ix.putKey(vp)
	return err
}

// InsertBatch stores the given pairs, then issues a single Sync,
// amortizing lock traffic and the WAL commit and fsync across the whole
// batch. Under the BMEH scheme the batch is partitioned across worker
// goroutines that insert concurrently through the core's latch-crabbing
// write path; the comparison schemes apply the batch sequentially under
// one write lock. Pairs whose key is already
// present are skipped — the returned count is the number actually
// inserted, so duplicates are len(kvs) minus that count. Any other error
// stops the batch (concurrent workers finish their in-flight pair): pairs
// applied before it remain applied and are made durable by the next Sync.
func (ix *Index) InsertBatch(kvs []KV) (int, error) {
	return ix.insertBatch(kvs, nil)
}

// InsertBatchStatus is InsertBatch with per-entry outcomes: dup[i] is
// true when entry i was skipped because its key was already present.
// Callers that answer for each pair individually — the network server's
// write queue funnels many clients' PUTs through here — need to know
// which entries the count excludes, not just how many. On a non-nil
// error the dup slice only covers entries processed before the failure.
func (ix *Index) InsertBatchStatus(kvs []KV) (inserted int, dup []bool, err error) {
	dup = make([]bool, len(kvs))
	inserted, err = ix.insertBatch(kvs, dup)
	return inserted, dup, err
}

// insertBatch is the shared batch path; dup, when non-nil, receives
// per-entry duplicate flags (its length must be len(kvs)).
func (ix *Index) insertBatch(kvs []KV, dup []bool) (int, error) {
	vecs := make([]bitkey.Vector, len(kvs))
	for i := range kvs {
		v, err := ix.key(kvs[i].Key)
		if err != nil {
			return 0, fmt.Errorf("bmeh: batch entry %d: %w", i, err)
		}
		vecs[i] = v
	}
	if ix.scheme == SchemeBMEH {
		return ix.insertBatchParallel(kvs, vecs, dup)
	}
	inserted := 0
	ix.mu.Lock()
	if ix.closed {
		ix.mu.Unlock()
		return 0, pagestore.ErrClosed
	}
	for i, v := range vecs {
		switch err := translateErr(ix.idx.Insert(v, kvs[i].Value)); {
		case err == nil:
			inserted++
		case errors.Is(err, ErrDuplicate):
			// Skipped; reflected in the count (and dup flags).
			if dup != nil {
				dup[i] = true
			}
		default:
			ix.mu.Unlock()
			return inserted, fmt.Errorf("bmeh: batch entry %d: %w", i, err)
		}
	}
	ix.mu.Unlock()
	return inserted, ix.Sync()
}

// insertBatchParallel fans a batch out over worker goroutines; the core
// tree's own synchronization keeps concurrent inserts correct, so the
// whole batch runs under one shared hold of ix.mu.
func (ix *Index) insertBatchParallel(kvs []KV, vecs []bitkey.Vector, dup []bool) (int, error) {
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	if workers > len(kvs) {
		workers = len(kvs)
	}
	ix.mu.RLock()
	if ix.closed {
		ix.mu.RUnlock()
		return 0, pagestore.ErrClosed
	}
	var (
		inserted atomic.Int64
		stop     atomic.Bool
		errMu    sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(kvs); i += workers {
				if stop.Load() {
					return
				}
				switch err := translateErr(ix.idx.Insert(vecs[i], kvs[i].Value)); {
				case err == nil:
					inserted.Add(1)
				case errors.Is(err, ErrDuplicate):
					// Skipped; reflected in the count (and dup flags —
					// workers touch disjoint indices, so no races).
					if dup != nil {
						dup[i] = true
					}
				default:
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("bmeh: batch entry %d: %w", i, err)
					}
					errMu.Unlock()
					stop.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	ix.mu.RUnlock()
	if firstErr != nil {
		return int(inserted.Load()), firstErr
	}
	return int(inserted.Load()), ix.Sync()
}

// Get returns the value stored under key.
func (ix *Index) Get(k Key) (uint64, bool, error) {
	vp, err := ix.keyPooled(k)
	if err != nil {
		return 0, false, err
	}
	ix.mu.RLock()
	if ix.closed {
		ix.mu.RUnlock()
		ix.putKey(vp)
		return 0, false, pagestore.ErrClosed
	}
	val, ok, err := ix.idx.Search(*vp)
	ix.mu.RUnlock()
	ix.putKey(vp)
	return val, ok, err
}

// Delete removes key, reporting whether it was present.
func (ix *Index) Delete(k Key) (bool, error) {
	vp, err := ix.keyPooled(k)
	if err != nil {
		return false, err
	}
	// Like Insert: the BMEH core's delete synchronizes itself (it takes
	// the tree's writer gate exclusively and descends once).
	lock, unlock := ix.mu.Lock, ix.mu.Unlock
	if ix.scheme == SchemeBMEH {
		lock, unlock = ix.mu.RLock, ix.mu.RUnlock
	}
	lock()
	if ix.closed {
		unlock()
		ix.putKey(vp)
		return false, pagestore.ErrClosed
	}
	ok, err := ix.idx.Delete(*vp)
	unlock()
	ix.putKey(vp)
	return ok, err
}

// Range calls fn for every record whose key lies in the axis-aligned box
// [lo_j, hi_j] for every dimension j, stopping early if fn returns false.
// For a partial-range or partial-match query, open the unconstrained
// dimensions with 0 and MaxComponent(width) — see Unbounded.
func (ix *Index) Range(lo, hi Key, fn func(k Key, value uint64) bool) error {
	vlo, err := ix.key(lo)
	if err != nil {
		return err
	}
	vhi, err := ix.key(hi)
	if err != nil {
		return err
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.closed {
		return pagestore.ErrClosed
	}
	return ix.idx.Range(vlo, vhi, func(k bitkey.Vector, v uint64) bool {
		pk := make(Key, len(k))
		for j, c := range k {
			pk[j] = uint64(c)
		}
		return fn(pk, v)
	})
}

// Scan calls fn for every record in the index (key order along the
// odometer of the covering cells, not globally sorted).
func (ix *Index) Scan(fn func(k Key, value uint64) bool) error {
	lo := make(Key, ix.prm.Dims)
	hi := make(Key, ix.prm.Dims)
	max := ix.MaxComponent()
	for j := range hi {
		hi[j] = max
	}
	return ix.Range(lo, hi, fn)
}

// MaxComponent returns the largest key component the index accepts
// (2^Width − 1).
func (ix *Index) MaxComponent() uint64 {
	if ix.prm.Width >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(ix.prm.Width) - 1
}

// Len returns the number of stored records.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.idx.Len()
}

// Stats reports storage statistics.
type Stats struct {
	// Reads and Writes are page-level store accesses since creation (or
	// the last ResetStats call on the underlying store). In-memory
	// indexes count logical reads, decoded-cache hits included (the
	// paper's page accesses); file-backed indexes count only the reads
	// that reach the file store. Every store counts one write per page
	// image written, so an in-place insert is one write.
	Reads, Writes uint64
	// Records is the number of stored records.
	Records int
	// DirectoryElements is σ: allocated directory elements.
	DirectoryElements int
	// DirectoryLevels is the directory height (1 for MDEH).
	DirectoryLevels int
	// DataPages is the number of allocated data pages.
	DataPages int
	// DirectoryPages is the number of allocated directory pages/nodes.
	DirectoryPages int
	// LoadFactor is records / (DataPages × PageCapacity).
	LoadFactor float64
}

// Stats returns current statistics.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	s := ix.store.Stats()
	alloc := ix.store.Allocated()
	total := 0
	for _, n := range alloc {
		total += n
	}
	// Page-role counts come from the index, not the store: a reopened file
	// store does not persist per-page kinds.
	dirPages := ix.idx.DirectoryPages()
	st := Stats{
		Reads:             s.Reads,
		Writes:            s.Writes,
		Records:           ix.idx.Len(),
		DirectoryElements: ix.idx.DirectoryElements(),
		DirectoryLevels:   ix.idx.Levels(),
		DataPages:         total - dirPages,
		DirectoryPages:    dirPages,
	}
	if st.DataPages > 0 {
		st.LoadFactor = float64(st.Records) / float64(st.DataPages*ix.prm.Capacity)
	}
	return st
}

// Validate checks the index's structural invariants (integrity tooling).
func (ix *Index) Validate() error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.idx.Validate()
}

// Dump writes a human-readable rendering of the directory structure to w
// (inspection tooling; traversing the structure costs page I/O).
func (ix *Index) Dump(w io.Writer) error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if d, ok := ix.idx.(interface{ Dump(io.Writer) error }); ok {
		return d.Dump(w)
	}
	return fmt.Errorf("bmeh: scheme %v does not support Dump", ix.scheme)
}

// SetSyncPolicy does nothing; see SyncPolicy.
func (ix *Index) SetSyncPolicy(p SyncPolicy) {}

// PoolStats reports the byte-level page pool's counters. There is no such
// pool any more, so ok is always false; see the PoolStats type.
func (ix *Index) PoolStats() (stats PoolStats, ok bool) {
	return PoolStats{}, false
}

// Sync commits the page images written since the last commit together
// with the index header (file-backed indexes); each call is one commit.
// Every insert and delete has already written its pages to the store, so
// for an in-memory index Sync has nothing to do.
func (ix *Index) Sync() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed {
		return pagestore.ErrClosed
	}
	return ix.syncLocked()
}

func (ix *Index) syncLocked() error {
	if ix.file == nil {
		return nil
	}
	// Marshal first: the MDEH snapshot writes its page-table chain
	// through the store, which the commit below must still see.
	var meta []byte
	var err error
	switch v := ix.idx.(type) {
	case *core.Tree:
		meta = v.MarshalMeta()
	case *mehtree.Tree:
		meta = v.MarshalMeta()
	case *mdeh.Table:
		meta, err = v.SaveMeta()
	default:
		err = fmt.Errorf("bmeh: scheme %v does not support persistence", ix.scheme)
	}
	if err != nil {
		return err
	}
	if err := ix.file.WriteMeta(meta); err != nil {
		return err
	}
	return ix.file.Sync()
}

// Close syncs (file-backed) and releases the index. The Index must not be
// used afterwards.
func (ix *Index) Close() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed {
		return nil
	}
	ix.closed = true
	if err := ix.syncLocked(); err != nil {
		return err
	}
	if ix.file != nil {
		return ix.file.Close()
	}
	return nil
}
