package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"bmeh/internal/datapage"
	"bmeh/internal/dirnode"
	"bmeh/internal/pagestore"
	"bmeh/internal/params"
)

// metaVersion identifies the meta-record layout. Version 2 appended a
// CRC-32C over the record, so a damaged header is rejected instead of
// silently reconstructing a broken tree. Version 3 (the COW write mode)
// appends the commit epoch and the retired-but-unreclaimed page list after
// the record count; version-2 records still load (epoch 0, nothing
// pending).
const metaVersion = 3

// metaCRCTable matches the pagestore's on-disk checksum polynomial.
var metaCRCTable = crc32.MakeTable(crc32.Castagnoli)

// metaLen returns the record length (checksum included) for a
// d-dimensional tree's meta record carrying pend pending entries.
//
//	header(6) xi(d) root+nodes(8) count(8) epoch(8) pendCount(4)
//	pend×(id 4 + epoch 8) crc(4)
func metaLen(d, pend int) int {
	return 6 + d + 16 + 8 + 4 + pend*12 + 4
}

// metaLenV2 is the version-2 record length (no epoch, no pending list).
func metaLenV2(d int) int {
	return 6 + d + 16 + 4
}

// MarshalMeta serializes the tree's header state (configuration, root
// pointer, counters, commit epoch, pending retired pages) followed by a
// CRC-32C over the record. Together with the page store's contents this
// fully reconstructs the tree; the root package persists it in the store's
// meta page.
//
// The pending list is how retired-but-snapshot-pinned pages survive a
// restart: their bytes must stay exact while a snapshot can reach them, so
// they cannot carry on-disk free-chain links the way ordinary freed pages
// do (the epoch-0 chain off the store header remains the only on-disk
// chain). The list is capped to what fits the store's meta area; overflow
// entries are dropped from the record — they leak only if the process then
// crashes while snapshots are open, and Fsck reports such pages.
func (t *Tree) MarshalMeta() []byte {
	pend := t.retiredAt.PendingIDs()
	if max := t.maxPendEntries(); len(pend) > max {
		pend = pend[:max]
	}
	return t.marshalMetaState(t.rc.load().pageID, t.nNodes.Load(), t.n.Load(), t.rc.load().epoch, pend)
}

// maxPendEntries bounds the pending list so the meta record fits the
// store's meta area (the page size less a safety margin for the store's
// own header).
func (t *Tree) maxPendEntries() int {
	max := (t.st.PageSize() - 64 - metaLen(t.prm.Dims, 0)) / 12
	if max < 0 {
		max = 0
	}
	return max
}

// marshalMetaState builds a meta record for an explicit (root, nodes,
// count, epoch, pending) state — the tree's own for MarshalMeta, a pinned
// snapshot's for TreeSnapshot.MarshalMeta.
func (t *Tree) marshalMetaState(rootID pagestore.PageID, nNodes, n int64, epoch uint64, pend []pagestore.RetiredPage) []byte {
	d := t.prm.Dims
	buf := make([]byte, 0, metaLen(d, len(pend)))
	buf = append(buf, 'B', metaVersion, byte(d), byte(t.prm.Width))
	var u16 [2]byte
	binary.BigEndian.PutUint16(u16[:], uint16(t.prm.Capacity))
	buf = append(buf, u16[:]...)
	for _, xi := range t.prm.Xi {
		buf = append(buf, byte(xi))
	}
	var u32 [4]byte
	binary.BigEndian.PutUint32(u32[:], uint32(rootID))
	buf = append(buf, u32[:]...)
	binary.BigEndian.PutUint32(u32[:], uint32(nNodes))
	buf = append(buf, u32[:]...)
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], uint64(n))
	buf = append(buf, u64[:]...)
	binary.BigEndian.PutUint64(u64[:], epoch)
	buf = append(buf, u64[:]...)
	binary.BigEndian.PutUint32(u32[:], uint32(len(pend)))
	buf = append(buf, u32[:]...)
	for _, p := range pend {
		binary.BigEndian.PutUint32(u32[:], uint32(p.ID))
		buf = append(buf, u32[:]...)
		binary.BigEndian.PutUint64(u64[:], p.Epoch)
		buf = append(buf, u64[:]...)
	}
	binary.BigEndian.PutUint32(u32[:], crc32.Checksum(buf, metaCRCTable))
	return append(buf, u32[:]...)
}

// Load reconstructs a tree from a page store and the meta record written by
// MarshalMeta. The record's checksum is verified first — a corrupted or
// truncated record yields an error wrapping pagestore.ErrCorrupt, never a
// panic or a broken tree. Trailing bytes beyond the record (a store hands
// back the whole meta area) are ignored. Load reads the root node (one
// disk read) and pins it.
func Load(st pagestore.Store, meta []byte) (*Tree, error) {
	if len(meta) < 6 {
		return nil, fmt.Errorf("bmeh: meta record too short (%d bytes): %w", len(meta), pagestore.ErrCorrupt)
	}
	if meta[0] != 'B' {
		return nil, fmt.Errorf("bmeh: bad meta magic %q: %w", meta[0], pagestore.ErrCorrupt)
	}
	ver := meta[1]
	if ver != 2 && ver != metaVersion {
		return nil, fmt.Errorf("bmeh: unsupported meta version %d: %w", ver, pagestore.ErrCorrupt)
	}
	d := int(meta[2])
	// The record length of a v3 record depends on its pending count, which
	// sits past the fixed prefix; bound-check in two steps.
	rec := metaLenV2(d)
	pendCount := 0
	if ver == metaVersion {
		rec = metaLen(d, 0)
		if len(meta) < rec {
			return nil, fmt.Errorf("bmeh: truncated meta record (%d of %d bytes): %w", len(meta), rec, pagestore.ErrCorrupt)
		}
		pendCount = int(binary.BigEndian.Uint32(meta[rec-8 : rec-4]))
		if pendCount < 0 || pendCount > (len(meta)-rec)/12 {
			return nil, fmt.Errorf("bmeh: meta record pending count %d exceeds record: %w", pendCount, pagestore.ErrCorrupt)
		}
		rec = metaLen(d, pendCount)
	}
	if len(meta) < rec {
		return nil, fmt.Errorf("bmeh: truncated meta record (%d of %d bytes): %w", len(meta), rec, pagestore.ErrCorrupt)
	}
	sum := binary.BigEndian.Uint32(meta[rec-4 : rec])
	if crc32.Checksum(meta[:rec-4], metaCRCTable) != sum {
		return nil, fmt.Errorf("bmeh: meta record checksum mismatch: %w", pagestore.ErrCorrupt)
	}
	prm := params.Params{
		Dims:     d,
		Width:    int(meta[3]),
		Capacity: int(binary.BigEndian.Uint16(meta[4:6])),
	}
	off := 6
	prm.Xi = make([]int, d)
	for j := 0; j < d; j++ {
		prm.Xi[j] = int(meta[off+j])
	}
	off += d
	if err := prm.Validate(); err != nil {
		return nil, fmt.Errorf("bmeh: corrupt meta record: %w", err)
	}
	t := &Tree{
		st:    st,
		prm:   prm,
		pages: datapage.NewIO(st, d),
		nodes: dirnode.NewIO(st, d),
	}
	t.nNodes.Store(int64(binary.BigEndian.Uint32(meta[off+4:])))
	t.n.Store(int64(binary.BigEndian.Uint64(meta[off+8:])))
	if st.PageSize() < PageBytes(prm) {
		return nil, fmt.Errorf("bmeh: page size %d < required %d", st.PageSize(), PageBytes(prm))
	}
	t.initRuntime()
	var epoch uint64
	if ver == metaVersion {
		pos := off + 16
		epoch = binary.BigEndian.Uint64(meta[pos:])
		pos += 8 + 4
		// Re-arm the deferred free list with the pending retired pages.
		// They are NOT freed here: Load must not mutate the store (a
		// replica reload applies the primary's WAL byte-for-byte). The
		// open paths call ReclaimPending once after Load instead.
		for i := 0; i < pendCount; i++ {
			id := pagestore.PageID(binary.BigEndian.Uint32(meta[pos:]))
			e := binary.BigEndian.Uint64(meta[pos+4:])
			t.retiredAt.Retire(e, []pagestore.PageID{id})
			pos += 12
		}
	}
	rootID := pagestore.PageID(binary.BigEndian.Uint32(meta[off:]))
	root, err := t.nodes.Read(rootID)
	if err != nil {
		return nil, fmt.Errorf("bmeh: reading root node: %w", err)
	}
	t.rc.installAt(rootID, root, epoch, t.n.Load())
	t.structVer.Add(1)
	return t, nil
}
