package pagestore

import "testing"

func TestCachedStoreSemantics(t *testing.T) {
	inner := NewMemDisk(64)
	cs := NewCachedStore(inner, 8)
	id, err := cs.Alloc(KindData)
	if err != nil {
		t.Fatal(err)
	}
	// A freshly allocated page has no frame, so its first write goes
	// around the pool, straight to the inner store.
	if err := cs.Write(id, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := inner.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:3]) != "abc" {
		t.Fatalf("write-around of non-resident page did not reach inner store (got %q)", buf[:3])
	}
	// Reading faults the page into a frame; a write to the now-resident
	// page is write-back — cached until Flush.
	if err := cs.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:3]) != "abc" {
		t.Fatalf("read back %q", buf[:3])
	}
	if err := cs.Write(id, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	if err := inner.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:3]) == "xyz" {
		t.Fatal("write-through happened despite write-back cache")
	}
	if err := cs.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:3]) != "xyz" {
		t.Fatalf("cached read returned %q, want the buffered write", buf[:3])
	}
	if err := cs.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := inner.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:3]) != "xyz" {
		t.Fatal("flush did not reach inner store")
	}
	// Free drops the frame.
	if err := cs.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := cs.Read(id, buf); err == nil {
		t.Fatal("read of freed page succeeded")
	}
}

func TestCachedStoreReadAbsorption(t *testing.T) {
	inner := NewMemDisk(64)
	id, _ := inner.Alloc(KindData)
	inner.Write(id, []byte("x"))
	inner.ResetStats()
	cs := NewCachedStore(inner, 4)
	buf := make([]byte, 64)
	for i := 0; i < 100; i++ {
		if err := cs.Read(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if r := inner.Stats().Reads; r != 1 {
		t.Fatalf("100 cached reads cost %d physical reads, want 1", r)
	}
}
