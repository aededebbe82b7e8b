package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"

	"bmeh/internal/bitkey"
)

// The bulk loader sorts records by pseudo-key before building the tree
// bottom-up. The sort key is the z-code: the d·W key bits interleaved in
// split order (round-robin over dimensions, most significant bit first,
// dimension 0 first within a round), left-aligned into ⌈d·W/64⌉ words.
// Sorting by z-code puts every record into the exact order a depth-first
// walk of the finished directory visits its data pages, so the sorted run
// can be carved into pages sequentially and the directory built above
// them without a single split.
//
// Records travel through the sorter as flat uint64 words:
//
//	[ code_0 … code_{k-1} | seq | value ]
//
// where k is the number of code words. The z-code is invertible — the
// original key is recovered from it when a page is emitted — so keys are
// never stored twice. seq is the arrival order: existing records (when
// bulk-loading into a non-empty tree) get seqs below bulkSeqBase and
// incoming ones seqs above it, and among equal codes the smallest seq
// wins, which makes dedup deterministic and lets the resident value of a
// duplicate key survive, matching Insert's ErrDuplicate semantics.

// bulkSeqBase separates pre-existing records (seq < base: they win
// duplicate resolution) from incoming ones (seq ≥ base).
const bulkSeqBase = uint64(1) << 40

// zcodec interleaves keys into z-codes and back for one (d, W) geometry.
type zcodec struct {
	d, width int
	k        int // code words per record
	stride   int // record words: k code words + seq + value
}

func newZcodec(d, width int) zcodec {
	bits := d * width
	k := (bits + 63) / 64
	return zcodec{d: d, width: width, k: k, stride: k + 2}
}

// encode writes key's z-code into code[:k]. Bit s of the concatenated
// d·W-bit split string (s = q·d + j: round q of dimension j, MSB first)
// lands at word s/64, bit 63−s%64, so codes compare in split order as
// plain big-endian word sequences.
func (z zcodec) encode(key bitkey.Vector, code []uint64) {
	if z.d == 2 && z.width == 32 {
		code[0] = spread32(uint32(key[0]))<<1 | spread32(uint32(key[1]))
		return
	}
	for w := 0; w < z.k; w++ {
		code[w] = 0
	}
	for j := 0; j < z.d; j++ {
		kj := uint64(key[j])
		for q := 0; q < z.width; q++ {
			bit := (kj >> uint(z.width-1-q)) & 1
			s := q*z.d + j
			code[s/64] |= bit << uint(63-s%64)
		}
	}
}

// decode recovers the key from its z-code into key[:d].
func (z zcodec) decode(code []uint64, key bitkey.Vector) {
	if z.d == 2 && z.width == 32 {
		key[0] = bitkey.Component(compact32(code[0] >> 1))
		key[1] = bitkey.Component(compact32(code[0]))
		return
	}
	for j := 0; j < z.d; j++ {
		var kj uint64
		for q := 0; q < z.width; q++ {
			s := q*z.d + j
			bit := (code[s/64] >> uint(63-s%64)) & 1
			kj |= bit << uint(z.width-1-q)
		}
		key[j] = bitkey.Component(kj)
	}
}

// spread32 places bit i of x at bit 2i of the result (Morton interleave).
func spread32(x uint32) uint64 {
	v := uint64(x)
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// compact32 is spread32's inverse: it gathers the even bits of v.
func compact32(v uint64) uint32 {
	v &= 0x5555555555555555
	v = (v | v>>1) & 0x3333333333333333
	v = (v | v>>2) & 0x0f0f0f0f0f0f0f0f
	v = (v | v>>4) & 0x00ff00ff00ff00ff
	v = (v | v>>8) & 0x0000ffff0000ffff
	v = (v | v>>16) & 0x00000000ffffffff
	return uint32(v)
}

// cmpCode compares two code-word sequences (split order).
func cmpCode(a, b []uint64) int {
	for w := range a {
		if a[w] != b[w] {
			if a[w] < b[w] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// bulkSorter accumulates flat records, spilling sorted runs to a temp
// file when the in-memory buffer exceeds the budget, and finalizes into a
// single sorted, deduplicated run.
type bulkSorter struct {
	z        zcodec
	buf      []uint64 // flat records, len multiple of stride
	tmp      []uint64 // radix scratch, lazily sized
	maxRecs  int      // records per in-memory run
	spillDir string

	spill   *os.File // concatenated sorted runs, nil until first spill
	runs    []int64  // record count of each spilled run
	dups    int64    // records dropped by dedup (seq ≥ bulkSeqBase only)
	code    []uint64 // encode scratch, z.k words
	spillW  *bufio.Writer
	byteBuf []byte
}

func newBulkSorter(z zcodec, budgetBytes int64, spillDir string) *bulkSorter {
	recBytes := int64(z.stride) * 8
	maxRecs := int(budgetBytes / recBytes)
	if maxRecs < 1024 {
		maxRecs = 1024
	}
	return &bulkSorter{z: z, maxRecs: maxRecs, spillDir: spillDir, code: make([]uint64, z.k)}
}

// add accepts one record. The key vector is consumed immediately and not
// retained.
func (bs *bulkSorter) add(key bitkey.Vector, seq, value uint64) error {
	if len(bs.buf)/bs.z.stride >= bs.maxRecs {
		if err := bs.spillRun(); err != nil {
			return err
		}
	}
	bs.z.encode(key, bs.code)
	bs.buf = append(bs.buf, bs.code...)
	bs.buf = append(bs.buf, seq, value)
	return nil
}

// sortBuf sorts the in-memory buffer by (code, seq); the result lands in
// bs.buf.
func (bs *bulkSorter) sortBuf() {
	z := bs.z
	n := len(bs.buf) / z.stride
	if n < 2 {
		return
	}
	if z.k == 1 {
		if cap(bs.tmp) < len(bs.buf) {
			bs.tmp = make([]uint64, len(bs.buf))
		}
		radixSortByWord0(bs.buf, bs.tmp[:len(bs.buf)], z.stride)
		return
	}
	// Multi-word codes: sort an index permutation, then materialize. seq
	// breaks ties so the order is total.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ra := bs.buf[idx[a]*z.stride:]
		rb := bs.buf[idx[b]*z.stride:]
		if c := cmpCode(ra[:z.k], rb[:z.k]); c != 0 {
			return c < 0
		}
		return ra[z.k] < rb[z.k]
	})
	if cap(bs.tmp) < len(bs.buf) {
		bs.tmp = make([]uint64, len(bs.buf))
	}
	out := bs.tmp[:len(bs.buf)]
	for i, src := range idx {
		copy(out[i*z.stride:(i+1)*z.stride], bs.buf[src*z.stride:(src+1)*z.stride])
	}
	bs.buf, bs.tmp = out, bs.buf
}

// radixSortByWord0 sorts flat stride-word records by their first word
// using a stable LSD byte radix; uniform digit positions are skipped, so
// keys clustered in the low bits (the common case for left-aligned codes
// of shallow trees is the opposite — high bits — and those passes still
// pay off by skipping the empty low ones). a and b must be equal length;
// the sorted data ends up back in a (swapping through b as scratch).
func radixSortByWord0(a, b []uint64, stride int) {
	n := len(a) / stride
	src, dst := a, b
	swapped := false
	for pass := 0; pass < 8; pass++ {
		shift := uint(pass * 8)
		var count [256]int
		for i := 0; i < n; i++ {
			count[(src[i*stride]>>shift)&0xff]++
		}
		if count[(src[0]>>shift)&0xff] == n {
			continue // all records share this digit
		}
		pos := 0
		var start [256]int
		for d := 0; d < 256; d++ {
			start[d] = pos
			pos += count[d]
		}
		for i := 0; i < n; i++ {
			d := (src[i*stride] >> shift) & 0xff
			copy(dst[start[d]*stride:(start[d]+1)*stride], src[i*stride:(i+1)*stride])
			start[d]++
		}
		src, dst = dst, src
		swapped = !swapped
	}
	if swapped {
		copy(a, src)
	}
}

// spillRun sorts the buffered records and appends them (deduplicated
// within the run) to the spill file as one sorted run.
func (bs *bulkSorter) spillRun() error {
	if len(bs.buf) == 0 {
		return nil
	}
	bs.sortBuf()
	if bs.spill == nil {
		f, err := os.CreateTemp(bs.spillDir, "bmeh-bulk-*.run")
		if err != nil {
			return err
		}
		// Unlink immediately: the fd keeps the file alive, and nothing
		// can leak past process exit.
		os.Remove(f.Name())
		bs.spill = f
		bs.spillW = bufio.NewWriterSize(f, 1<<20)
	}
	z := bs.z
	n := len(bs.buf) / z.stride
	written := int64(0)
	if cap(bs.byteBuf) < z.stride*8 {
		bs.byteBuf = make([]byte, z.stride*8)
	}
	pend := -1 // index of the pending (min-seq so far) record of the current code group
	flushPend := func() error {
		if pend < 0 {
			return nil
		}
		rec := bs.buf[pend*z.stride : (pend+1)*z.stride]
		for w, v := range rec {
			binary.LittleEndian.PutUint64(bs.byteBuf[w*8:], v)
		}
		if _, err := bs.spillW.Write(bs.byteBuf[:z.stride*8]); err != nil {
			return err
		}
		written++
		return nil
	}
	for i := 0; i < n; i++ {
		if pend >= 0 && cmpCode(bs.buf[i*z.stride:i*z.stride+z.k], bs.buf[pend*z.stride:pend*z.stride+z.k]) == 0 {
			// Same code: keep the smaller seq, count the loser if it was
			// an incoming record.
			loser := i
			if bs.buf[i*z.stride+z.k] < bs.buf[pend*z.stride+z.k] {
				loser = pend
				pend = i
			}
			if bs.buf[loser*z.stride+z.k] >= bulkSeqBase {
				bs.dups++
			}
			continue
		}
		if err := flushPend(); err != nil {
			return err
		}
		pend = i
	}
	if err := flushPend(); err != nil {
		return err
	}
	bs.runs = append(bs.runs, written)
	bs.buf = bs.buf[:0]
	return nil
}

// finish sorts and merges everything accepted so far into a single
// deduplicated run. The sorter must not be used after finish; the caller
// owns closing the returned run.
func (bs *bulkSorter) finish() (*bulkRun, error) {
	z := bs.z
	if bs.spill == nil {
		// Pure in-memory path: sort, dedup in place.
		bs.sortBuf()
		n := len(bs.buf) / z.stride
		out := 0
		for i := 0; i < n; i++ {
			if out > 0 && cmpCode(bs.buf[i*z.stride:i*z.stride+z.k], bs.buf[(out-1)*z.stride:(out-1)*z.stride+z.k]) == 0 {
				newSeq, oldSeq := bs.buf[i*z.stride+z.k], bs.buf[(out-1)*z.stride+z.k]
				loserSeq := newSeq
				if newSeq < oldSeq {
					loserSeq = oldSeq
					copy(bs.buf[(out-1)*z.stride:out*z.stride], bs.buf[i*z.stride:(i+1)*z.stride])
				}
				if loserSeq >= bulkSeqBase {
					bs.dups++
				}
				continue
			}
			if out != i {
				copy(bs.buf[out*z.stride:(out+1)*z.stride], bs.buf[i*z.stride:(i+1)*z.stride])
			}
			out++
		}
		mem := bs.buf[:out*z.stride]
		if mem == nil {
			mem = []uint64{} // non-nil marks the run memory-backed
		}
		return &bulkRun{z: z, n: int64(out), mem: mem}, nil
	}
	// Spill the in-memory tail as the final run, then k-way merge.
	if err := bs.spillRun(); err != nil {
		return nil, err
	}
	if err := bs.spillW.Flush(); err != nil {
		return nil, err
	}
	bs.spillW = nil
	merged, n, err := bs.merge()
	if err != nil {
		return nil, err
	}
	bs.spill.Close()
	bs.spill = nil
	return &bulkRun{z: z, n: n, f: merged, spilled: len(bs.runs)}, nil
}

// runCursor streams one sorted run during the merge.
type runCursor struct {
	r   *bufio.Reader
	rec []uint64
	buf []byte
	n   int64 // records remaining
}

func (rc *runCursor) next() (bool, error) {
	if rc.n == 0 {
		return false, nil
	}
	if _, err := io.ReadFull(rc.r, rc.buf); err != nil {
		return false, err
	}
	for w := range rc.rec {
		rc.rec[w] = binary.LittleEndian.Uint64(rc.buf[w*8:])
	}
	rc.n--
	return true, nil
}

// merge k-way merges the spilled runs into a fresh temp file, dropping
// duplicate codes (smallest seq wins). Returns the merged file and its
// record count.
func (bs *bulkSorter) merge() (*os.File, int64, error) {
	z := bs.z
	out, err := os.CreateTemp(bs.spillDir, "bmeh-bulk-*.sorted")
	if err != nil {
		return nil, 0, err
	}
	os.Remove(out.Name())
	w := bufio.NewWriterSize(out, 1<<20)

	cursors := make([]*runCursor, 0, len(bs.runs))
	off := int64(0)
	for _, n := range bs.runs {
		size := n * int64(z.stride) * 8
		rc := &runCursor{
			r:   bufio.NewReaderSize(io.NewSectionReader(bs.spill, off, size), 1<<18),
			rec: make([]uint64, z.stride),
			buf: make([]byte, z.stride*8),
			n:   n,
		}
		off += size
		ok, err := rc.next()
		if err != nil {
			out.Close()
			return nil, 0, err
		}
		if ok {
			cursors = append(cursors, rc)
		}
	}
	// Loser-tree-free heap: len(runs) is small (total/maxRecs), a simple
	// sift heap is plenty.
	h := cursorHeap{z: z, c: cursors}
	for i := len(h.c)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	var (
		pending []uint64
		have    bool
		written int64
		byteBuf = make([]byte, z.stride*8)
	)
	emit := func(rec []uint64) error {
		for w2, v := range rec {
			binary.LittleEndian.PutUint64(byteBuf[w2*8:], v)
		}
		if _, err := w.Write(byteBuf); err != nil {
			return err
		}
		written++
		return nil
	}
	pending = make([]uint64, z.stride)
	for len(h.c) > 0 {
		rec := h.c[0].rec
		if have && cmpCode(rec[:z.k], pending[:z.k]) == 0 {
			if rec[z.k] < pending[z.k] {
				if pending[z.k] >= bulkSeqBase {
					bs.dups++
				}
				copy(pending, rec)
			} else if rec[z.k] >= bulkSeqBase {
				bs.dups++
			}
		} else {
			if have {
				if err := emit(pending); err != nil {
					out.Close()
					return nil, 0, err
				}
			}
			copy(pending, rec)
			have = true
		}
		ok, err := h.c[0].next()
		if err != nil {
			out.Close()
			return nil, 0, err
		}
		if !ok {
			h.c[0] = h.c[len(h.c)-1]
			h.c = h.c[:len(h.c)-1]
		}
		if len(h.c) > 0 {
			h.down(0)
		}
	}
	if have {
		if err := emit(pending); err != nil {
			out.Close()
			return nil, 0, err
		}
	}
	if err := w.Flush(); err != nil {
		out.Close()
		return nil, 0, err
	}
	return out, written, nil
}

// cursorHeap is a binary min-heap of run cursors ordered by (code, seq).
type cursorHeap struct {
	z zcodec
	c []*runCursor
}

func (h *cursorHeap) less(a, b int) bool {
	ra, rb := h.c[a].rec, h.c[b].rec
	if c := cmpCode(ra[:h.z.k], rb[:h.z.k]); c != 0 {
		return c < 0
	}
	return ra[h.z.k] < rb[h.z.k]
}

func (h *cursorHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h.c) && h.less(l, min) {
			min = l
		}
		if r < len(h.c) && h.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h.c[i], h.c[min] = h.c[min], h.c[i]
		i = min
	}
}

// close releases the sorter's temp file if finish was never reached.
func (bs *bulkSorter) close() {
	if bs.spill != nil {
		bs.spill.Close()
		bs.spill = nil
	}
}

// bulkRun is the sorted, deduplicated record sequence the builder
// consumes: either fully in memory or backed by the merged spill file.
// Random access is by record index; file access goes through ReadAt.
type bulkRun struct {
	z       zcodec
	n       int64
	mem     []uint64 // flat records when in memory
	f       *os.File // merged run when spilled
	spilled int      // number of runs merged (0 when in-memory)
}

func (r *bulkRun) close() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}

// slice materializes records [lo,hi) as an in-memory view. For a
// memory-backed run it is a subslice (no copy); for a file-backed run it
// reads the range, so callers keep ranges modest (the builder materializes
// at subtree granularity).
func (r *bulkRun) slice(lo, hi int64) ([]uint64, error) {
	stride := int64(r.z.stride)
	if r.mem != nil {
		return r.mem[lo*stride : hi*stride], nil
	}
	buf := make([]byte, (hi-lo)*stride*8)
	if _, err := r.f.ReadAt(buf, lo*stride*8); err != nil {
		return nil, err
	}
	out := make([]uint64, (hi-lo)*stride)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	return out, nil
}

// codeWord reads word w of record i's code without materializing the
// record (one ReadAt on the spilled path; binary-search probes use this).
func (r *bulkRun) codeWord(i int64, w int) (uint64, error) {
	if r.mem != nil {
		return r.mem[i*int64(r.z.stride)+int64(w)], nil
	}
	var b [8]byte
	if _, err := r.f.ReadAt(b[:], (i*int64(r.z.stride)+int64(w))*8); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// bitAt reads split-string bit s of record i's code.
func (r *bulkRun) bitAt(i int64, s int) (uint64, error) {
	w, err := r.codeWord(i, s/64)
	if err != nil {
		return 0, err
	}
	return (w >> uint(63-s%64)) & 1, nil
}

// sanity guards for geometry the sorter cannot represent.
func (z zcodec) check() error {
	if z.d < 1 || z.width < 1 || z.width > 64 {
		return fmt.Errorf("bulk: unsupported geometry d=%d width=%d", z.d, z.width)
	}
	return nil
}
