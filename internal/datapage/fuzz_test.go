package datapage

import (
	"testing"

	"bmeh/internal/bitkey"
)

// FuzzDecode hardens the data-page codec against arbitrary page images:
// Decode must either return an error or a structurally sound page — never
// panic — and valid pages must round-trip.
func FuzzDecode(f *testing.F) {
	// Seed with valid encodings of a few shapes.
	for _, d := range []int{1, 2, 3} {
		p := New(d)
		for i := 0; i < 5; i++ {
			k := make(bitkey.Vector, d)
			k[0] = bitkey.Component(i * 1000)
			p.Insert(Record{Key: k, Value: uint64(i)})
		}
		buf := make([]byte, Size(d, 8))
		if _, err := p.Encode(buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf, d-1) // the fuzz body maps dRaw to dRaw%8+1
	}
	f.Add([]byte{0xff, 0xff, 1, 2, 3}, 1)
	f.Add([]byte{}, 0)
	f.Fuzz(func(t *testing.T, data []byte, dRaw int) {
		d := dRaw%8 + 1
		if d < 1 {
			d = 1
		}
		p, err := Decode(data, d)
		if err != nil {
			return
		}
		// A successfully decoded page must re-encode.
		buf := make([]byte, Size(d, p.Len()))
		if _, err := p.Encode(buf); err != nil {
			t.Fatalf("decoded page does not re-encode: %v", err)
		}
		q, err := Decode(buf, d)
		if err != nil || q.Len() != p.Len() {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

// FuzzLookup hardens the in-place record search against arbitrary page
// images: Lookup must return an error or a result, never panic or read out
// of bounds. Wherever Decode rejects the image Lookup must too, and
// wherever Decode accepts it Lookup must agree with Page.Get, both for the
// fuzzed key and for a key stored in the page.
func FuzzLookup(f *testing.F) {
	for _, d := range []int{1, 2, 3} {
		p := New(d)
		for i := 0; i < 5; i++ {
			k := make(bitkey.Vector, d)
			k[0] = bitkey.Component(i * 1000)
			k[d-1] += bitkey.Component(i)
			p.Insert(Record{Key: k, Value: uint64(i)})
		}
		buf := make([]byte, Size(d, 8))
		if _, err := p.Encode(buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf, d-1, uint64(2000)) // the fuzz body maps dRaw to dRaw%8+1
		f.Add(buf, d-1, uint64(3))
	}
	f.Add([]byte{0xff, 0xff, 1, 2, 3}, 1, uint64(0)) // count overflows the page
	f.Add([]byte{0}, 0, uint64(0))                   // short page
	f.Add([]byte{}, 0, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, dRaw int, probe uint64) {
		d := dRaw%8 + 1
		if d < 1 {
			d = 1
		}
		key := make(bitkey.Vector, d)
		for j := range key {
			key[j] = bitkey.Component(probe >> uint(8*j))
		}
		v, ok, err := Lookup(data, key)
		p, derr := Decode(data, d)
		if derr != nil {
			if err == nil {
				t.Fatalf("Lookup accepted an image Decode rejects (%v)", derr)
			}
			return
		}
		if err != nil {
			t.Fatalf("Lookup rejected an image Decode accepts: %v", err)
		}
		check := func(k bitkey.Vector, v uint64, ok bool) {
			if wv, wok := p.Get(k); v != wv || ok != wok {
				t.Fatalf("Lookup(%v) = (%d, %v), Page.Get = (%d, %v)", k, v, ok, wv, wok)
			}
		}
		check(key, v, ok)
		if p.Len() > 0 {
			k := p.Records()[probe%uint64(p.Len())].Key
			v, ok, err := Lookup(data, k)
			if err != nil {
				t.Fatal(err)
			}
			check(k, v, ok)
		}
	})
}
