package pagestore

import (
	"bytes"
	"testing"
)

func page(size int, fill byte) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = fill
	}
	return p
}

func TestWALCommitRecoverRoundTrip(t *testing.T) {
	const ps = 64
	f := NewMemFile()
	w, err := CreateWAL(f, ps)
	if err != nil {
		t.Fatal(err)
	}
	batch := []Frame{
		{ID: 1, Kind: KindData, Data: page(ps, 0x11)},
		{ID: 2, Kind: KindDirectory, Data: page(ps, 0x22)},
	}
	if err := w.Commit(batch); err != nil {
		t.Fatal(err)
	}
	// A second batch in the same log must also replay, in order.
	if err := w.Commit([]Frame{{ID: 1, Kind: KindData, Data: page(ps, 0x33)}}); err != nil {
		t.Fatal(err)
	}
	re, err := OpenWAL(f, ps)
	if err != nil {
		t.Fatal(err)
	}
	var got []Frame
	batches, err := re.Recover(func(fr Frame) error { got = append(got, fr); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if batches != 2 || len(got) != 3 {
		t.Fatalf("recovered %d batches, %d frames", batches, len(got))
	}
	if got[0].ID != 1 || got[0].Kind != KindData || got[0].Data[0] != 0x11 {
		t.Fatalf("frame 0 = %+v", got[0])
	}
	if got[2].ID != 1 || got[2].Data[0] != 0x33 {
		t.Fatalf("frame 2 = %+v", got[2])
	}
	if err := re.Reset(); err != nil {
		t.Fatal(err)
	}
	if n, _ := re.Recover(func(Frame) error { return nil }); n != 0 {
		t.Fatalf("recovered %d batches after reset", n)
	}
}

// TestWALDiscardsIncompleteTail simulates the crash-mid-commit states the
// log must shrug off: a truncated frame, a missing commit record, and a
// corrupted commit record.
func TestWALDiscardsIncompleteTail(t *testing.T) {
	const ps = 64
	build := func() (*MemFile, *WAL, int64) {
		f := NewMemFile()
		w, err := CreateWAL(f, ps)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Commit([]Frame{{ID: 3, Kind: KindData, Data: page(ps, 0xAA)}}); err != nil {
			t.Fatal(err)
		}
		size, _ := f.Size()
		return f, w, size
	}

	// Append a second batch, then truncate at various points inside it:
	// only the first batch must survive recovery.
	_, _, committed := build()
	f2, w2, _ := build()
	if err := w2.Commit([]Frame{{ID: 4, Kind: KindData, Data: page(ps, 0xBB)}}); err != nil {
		t.Fatal(err)
	}
	full, _ := f2.Size()
	for cut := committed + 1; cut < full; cut += (full - committed) / 7 {
		f := NewMemFile()
		f.WriteAt(f2.Bytes()[:cut], 0)
		w, err := OpenWAL(f, ps)
		if err != nil {
			t.Fatal(err)
		}
		var ids []PageID
		batches, err := w.Recover(func(fr Frame) error { ids = append(ids, fr.ID); return nil })
		if err != nil {
			t.Fatal(err)
		}
		if batches != 1 || len(ids) != 1 || ids[0] != 3 {
			t.Fatalf("cut %d: recovered batches=%d ids=%v, want just page 3", cut, batches, ids)
		}
	}

	// Flip a byte inside the second batch's frame: same outcome.
	fc := NewMemFile()
	fc.WriteAt(f2.Bytes(), 0)
	b := f2.Bytes()
	fc.WriteAt([]byte{b[committed+20] ^ 0xFF}, committed+20)
	w, err := OpenWAL(fc, ps)
	if err != nil {
		t.Fatal(err)
	}
	if batches, _ := w.Recover(func(Frame) error { return nil }); batches != 1 {
		t.Fatalf("corrupt tail: recovered %d batches, want 1", batches)
	}
}

func TestWALRejectsForeignHeader(t *testing.T) {
	f := NewMemFile()
	f.WriteAt(page(64, 0xCD), 0)
	if _, err := OpenWAL(f, 0); !isCorrupt(err) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// FuzzScanWAL: arbitrary bytes never panic ScanWALBytes, and a log of
// several committed batches with one byte flipped, or cut short anywhere,
// recovers whole batches from its start and nothing after them: the
// frames returned are exactly those of its first n batches.
func FuzzScanWAL(f *testing.F) {
	const ps = 32
	mf := NewMemFile()
	w, err := CreateWAL(mf, ps)
	if err != nil {
		f.Fatal(err)
	}
	var batches [][]Frame
	for b := 0; b < 4; b++ {
		var frames []Frame
		for i := 0; i <= b; i++ {
			frames = append(frames, Frame{ID: PageID(i + 1), Kind: KindData, Data: page(ps, byte(16*b+i))})
		}
		if err := w.Commit(frames); err != nil {
			f.Fatal(err)
		}
		batches = append(batches, frames)
	}
	log := mf.Bytes()
	f.Add([]byte{}, uint32(0), byte(0), uint32(len(log)))
	f.Add(log[:walHeaderSize+5], uint32(40), byte(1), uint32(100))
	f.Add(log, uint32(len(log)-1), byte(0x80), uint32(len(log)))
	f.Fuzz(func(t *testing.T, raw []byte, at uint32, flip byte, cut uint32) {
		ScanWALBytes(raw)

		b := append([]byte(nil), log...)
		b[int(at%uint32(len(b)))] ^= flip
		b = b[:int(cut%uint32(len(b)+1))]
		n, frames, tail, err := ScanWALBytes(b)
		if err != nil {
			return // a damaged header: the log is refused whole
		}
		if n > len(batches) {
			t.Fatalf("recovered %d batches from a log of %d", n, len(batches))
		}
		var want []Frame
		for _, bf := range batches[:n] {
			want = append(want, bf...)
		}
		if len(frames) != len(want) {
			t.Fatalf("%d batches carry %d frames, recovered %d", n, len(want), len(frames))
		}
		for i, fr := range frames {
			if fr.ID != want[i].ID || fr.Kind != want[i].Kind || !bytes.Equal(fr.Data, want[i].Data) {
				t.Fatalf("frame %d of %d batches differs from the committed one", i, n)
			}
		}
		if tail < 0 || tail > len(b) {
			t.Fatalf("tail of %d bytes in a %d-byte log", tail, len(b))
		}
	})
}
