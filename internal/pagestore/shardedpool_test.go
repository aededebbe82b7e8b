package pagestore

import (
	"fmt"
	"sync"
	"testing"
)

// single-shard pools make capacity and eviction order deterministic.

func TestShardedPoolHitsAndEviction(t *testing.T) {
	st := NewMemDisk(64)
	var ids []PageID
	for i := 0; i < 6; i++ {
		id, err := st.Alloc(KindData)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Write(id, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	st.ResetStats()
	p := NewShardedPool(st, 3, 1)
	// First touch: miss; second: hit.
	for _, id := range ids[:3] {
		if _, err := p.Get(id); err != nil {
			t.Fatal(err)
		}
		p.Unpin(id)
	}
	for _, id := range ids[:3] {
		if _, err := p.Get(id); err != nil {
			t.Fatal(err)
		}
		p.Unpin(id)
	}
	hits, misses := p.HitRate()
	if hits != 3 || misses != 3 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
	if st.Stats().Reads != 3 {
		t.Fatalf("physical reads %d, want 3", st.Stats().Reads)
	}
	// Filling past capacity evicts via the clock sweep; a re-get of an
	// evicted page costs a physical read again.
	for _, id := range ids[3:] {
		if _, err := p.Get(id); err != nil {
			t.Fatal(err)
		}
		p.Unpin(id)
	}
	if _, err := p.Get(ids[0]); err != nil {
		t.Fatal(err)
	}
	p.Unpin(ids[0])
	if st.Stats().Reads != 7 {
		t.Fatalf("physical reads %d, want 7", st.Stats().Reads)
	}
	if s := p.Stats(); s.Evictions == 0 {
		t.Fatalf("no evictions recorded: %+v", s)
	}
}

func TestShardedPoolCapacityRespected(t *testing.T) {
	st := NewMemDisk(64)
	const frames = 4
	p := NewShardedPool(st, frames, 1)
	for i := 0; i < 32; i++ {
		id, err := st.Alloc(KindData)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Get(id); err != nil {
			t.Fatal(err)
		}
		p.Unpin(id)
	}
	resident := 0
	for i := range p.shards {
		resident += len(p.shards[i].frames)
	}
	if resident > frames {
		t.Fatalf("%d frames resident, capacity %d", resident, frames)
	}
	if s := p.Stats(); s.Capacity != frames {
		t.Fatalf("Stats().Capacity = %d, want %d", s.Capacity, frames)
	}
}

func TestShardedPoolSecondChance(t *testing.T) {
	st := NewMemDisk(64)
	var ids []PageID
	for i := 0; i < 3; i++ {
		id, _ := st.Alloc(KindData)
		ids = append(ids, id)
	}
	p := NewShardedPool(st, 2, 1)
	get := func(id PageID) {
		t.Helper()
		if _, err := p.Get(id); err != nil {
			t.Fatal(err)
		}
		p.Unpin(id)
	}
	get(ids[0])
	get(ids[1])
	// Re-reference ids[1] so its reference bit is set, then fault ids[2]:
	// the sweep must give ids[1] a second chance and evict ids[0].
	get(ids[1])
	st.ResetStats()
	get(ids[2])
	get(ids[1]) // still resident: no physical read
	if r := st.Stats().Reads; r != 1 {
		t.Fatalf("physical reads %d, want 1 (second chance not honored)", r)
	}
	get(ids[0]) // evicted: physical read
	if r := st.Stats().Reads; r != 2 {
		t.Fatalf("physical reads %d, want 2", r)
	}
}

func TestShardedPoolWriteBack(t *testing.T) {
	st := NewMemDisk(64)
	id, _ := st.Alloc(KindData)
	p := NewShardedPool(st, 2, 1)
	data, err := p.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "dirty")
	p.MarkDirty(id)
	p.Unpin(id)
	buf := make([]byte, 64)
	if err := st.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:5]) == "dirty" {
		t.Fatal("write-back happened before flush")
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:5]) != "dirty" {
		t.Fatal("flush did not write back")
	}
}

func TestShardedPoolEvictionWritesBackDirty(t *testing.T) {
	st := NewMemDisk(64)
	a, _ := st.Alloc(KindData)
	b, _ := st.Alloc(KindData)
	p := NewShardedPool(st, 1, 1)
	data, err := p.Get(a)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "dirty")
	p.MarkDirty(a)
	p.Unpin(a)
	// Faulting b must evict a, writing it back first.
	if _, err := p.Get(b); err != nil {
		t.Fatal(err)
	}
	p.Unpin(b)
	buf := make([]byte, 64)
	if err := st.Read(a, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:5]) != "dirty" {
		t.Fatal("eviction dropped a dirty frame without write-back")
	}
	if s := p.Stats(); s.Writebacks != 1 {
		t.Fatalf("Writebacks = %d, want 1", s.Writebacks)
	}
}

func TestShardedPoolPinnedNeverEvicted(t *testing.T) {
	st := NewMemDisk(64)
	p := NewShardedPool(st, 2, 1)
	a, _ := st.Alloc(KindData)
	b, _ := st.Alloc(KindData)
	c, _ := st.Alloc(KindData)
	da, err := p.Get(a)
	if err != nil {
		t.Fatal(err)
	}
	copy(da, "keep")
	if _, err := p.Get(b); err != nil {
		t.Fatal(err)
	}
	// Both frames pinned: a third Get must fail rather than evict.
	if _, err := p.Get(c); err == nil {
		t.Fatal("pool returned a frame with all frames pinned")
	}
	p.Unpin(b)
	if _, err := p.Get(c); err != nil {
		t.Fatalf("pool did not evict unpinned frame: %v", err)
	}
	p.Unpin(c)
	// a stayed resident throughout (its buffer was never reused).
	if string(da[:4]) != "keep" {
		t.Fatal("pinned frame was reclaimed")
	}
	p.Unpin(a)
}

func TestShardedPoolNewPage(t *testing.T) {
	st := NewMemDisk(64)
	p := NewShardedPool(st, 4, 1)
	id, data, err := p.NewPage(KindDirectory)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "new")
	p.Unpin(id)
	if st.Stats().Reads != 0 {
		t.Fatal("NewPage performed a physical read")
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := st.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:3]) != "new" {
		t.Fatal("fresh page not written back dirty")
	}
	if k, _ := st.KindOf(id); k != KindDirectory {
		t.Fatalf("allocated kind %v", k)
	}
}

func TestShardedPoolDrop(t *testing.T) {
	st := NewMemDisk(64)
	p := NewShardedPool(st, 4, 1)
	id, _ := st.Alloc(KindData)
	data, err := p.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "stale")
	p.MarkDirty(id)
	p.Unpin(id)
	p.Drop(id)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := st.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:5]) == "stale" {
		t.Fatal("dropped frame was still written back")
	}
}

// TestShardedPoolPut covers both halves of Put: a non-resident page is
// written around the pool (straight to the store, no frame claimed, no
// fault-in read), a resident one is replaced whole in its frame — short
// images zero-padded — and reaches the store only on Flush.
func TestShardedPoolPut(t *testing.T) {
	st := NewMemDisk(64)
	id, _ := st.Alloc(KindData)
	p := NewShardedPool(st, 2, 1)
	st.ResetStats()
	if err := p.Put(id, []byte("around")); err != nil {
		t.Fatal(err)
	}
	if n := len(p.shards[0].frames); n != 0 {
		t.Fatalf("write-around Put left %d resident frames", n)
	}
	if s := st.Stats(); s.Reads != 0 || s.Writes != 1 {
		t.Fatalf("write-around Put cost %d reads, %d writes; want 0, 1", s.Reads, s.Writes)
	}
	buf := make([]byte, 64)
	if err := p.ReadInto(id, buf); err != nil { // faults the page in
		t.Fatal(err)
	}
	if string(buf[:6]) != "around" {
		t.Fatalf("read back %q", buf[:6])
	}
	if err := p.Put(id, []byte("in")); err != nil {
		t.Fatal(err)
	}
	if err := p.ReadInto(id, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:6]) != "in\x00\x00\x00\x00" {
		t.Fatalf("resident Put left a stale tail: %q", buf[:6])
	}
	if err := st.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:6]) != "around" {
		t.Fatalf("resident Put wrote through before Flush: %q", buf[:6])
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:2]) != "in" || buf[2] != 0 {
		t.Fatalf("Flush did not write the Put image back: %q", buf[:6])
	}
}

// TestShardedPoolReadIntoTakesNoPin: a page faulted in by ReadInto must
// stay evictable, or CachedStore reads would exhaust the pool.
func TestShardedPoolReadIntoTakesNoPin(t *testing.T) {
	st := NewMemDisk(64)
	p := NewShardedPool(st, 1, 1)
	buf := make([]byte, 64)
	for i := 0; i < 3; i++ {
		id, _ := st.Alloc(KindData)
		if err := st.Write(id, []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
		if err := p.ReadInto(id, buf); err != nil {
			t.Fatalf("ReadInto %d: %v (previous frame left pinned?)", i, err)
		}
		if buf[0] != byte('a'+i) {
			t.Fatalf("ReadInto %d returned %q", i, buf[:1])
		}
	}
	if s := p.Stats(); s.Misses != 3 || s.Evictions != 2 {
		t.Fatalf("accounting off: %+v", s)
	}
}

func TestShardedPoolUnpinWithoutPinPanics(t *testing.T) {
	st := NewMemDisk(64)
	p := NewShardedPool(st, 2, 1)
	id, _ := st.Alloc(KindData)
	if _, err := p.Get(id); err != nil {
		t.Fatal(err)
	}
	p.Unpin(id)
	defer func() {
		if recover() == nil {
			t.Fatal("second Unpin of a once-pinned page did not panic")
		}
	}()
	p.Unpin(id)
}

// TestShardedPoolConcurrentGets hammers a warm pool from many goroutines;
// correctness is checked by content and the race detector.
func TestShardedPoolConcurrentGets(t *testing.T) {
	st := NewMemDisk(64)
	const pages = 64
	ids := make([]PageID, pages)
	for i := range ids {
		id, _ := st.Alloc(KindData)
		if err := st.Write(id, []byte(fmt.Sprintf("page-%03d", i))); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	p := NewShardedPool(st, 32, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				idx := (i*7 + g*13) % pages
				data, err := p.Get(ids[idx])
				if err != nil {
					errs <- err
					return
				}
				if want := fmt.Sprintf("page-%03d", idx); string(data[:len(want)]) != want {
					errs <- fmt.Errorf("page %d read %q, want %q", idx, data[:8], want)
					p.Unpin(ids[idx])
					return
				}
				p.Unpin(ids[idx])
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Hits == 0 || s.Hits+s.Misses != 16000 {
		t.Fatalf("accounting off: %+v", s)
	}
}
