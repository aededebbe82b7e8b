package dirnode

import (
	"math/rand"
	"testing"

	"bmeh/internal/bitkey"
)

// FuzzDecode hardens the node codec against arbitrary page images: Decode
// must either return an error or a node whose shape is self-consistent —
// never panic — and whose valid elements encode back byte for byte.
func FuzzDecode(f *testing.F) {
	for _, d := range []int{1, 2, 3} {
		n := randomNode(rand.New(rand.NewSource(int64(d))), d)
		buf := make([]byte, HeaderSize(d)+n.Size()*EntrySize(d))
		if _, err := n.Encode(buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf, d-1) // the fuzz body maps dRaw to dRaw%8+1
	}
	f.Add([]byte{3, 40, 40}, 1)
	f.Add([]byte{}, 1)
	f.Fuzz(func(t *testing.T, data []byte, dRaw int) {
		d := dRaw%8 + 1
		if d < 1 {
			d = 1
		}
		n, err := Decode(data, d)
		if err != nil {
			return
		}
		if n.Size() != 1<<uint(n.SumDepths()) {
			t.Fatalf("decoded node size %d inconsistent with depths %v", n.Size(), n.Depths)
		}
		// Index/Tuple must round-trip on any decoded shape.
		for q := 0; q < n.Size(); q++ {
			if got := n.Index(n.Tuple(q)); got != q {
				t.Fatalf("Index(Tuple(%d)) = %d", q, got)
			}
		}
		// A decoded node that Encode accepts (every h_j ≤ H_j, m < d)
		// encodes back to the very bytes it came from, and so does its
		// clone.
		for _, m := range []*Node{n, n.Clone()} {
			out := make([]byte, len(data))
			w, err := m.Encode(out)
			if err != nil {
				break
			}
			if string(out[:w]) != string(data[:w]) {
				t.Fatalf("Encode(Decode(image)) differs from the image")
			}
		}
	})
}

// FuzzRoute hardens the in-place element read against arbitrary node
// images: Route must return an error or an element, never panic or read
// out of bounds. Wherever Decode rejects the image Route must too, and
// wherever Decode accepts it Route must either reject a global depth
// H_j > ξ_j or return exactly the element Decode + Index select for the
// fuzzed key.
func FuzzRoute(f *testing.F) {
	for _, d := range []int{1, 2, 3} {
		n := randomNode(rand.New(rand.NewSource(int64(d))), d)
		buf := make([]byte, HeaderSize(d)+n.Size()*EntrySize(d))
		if _, err := n.Encode(buf); err != nil {
			f.Fatal(err)
		}
		for _, key := range []uint64{0, 0x9e3779b97f4a7c15, ^uint64(0)} {
			f.Add(buf, d-1, key) // the fuzz body maps dRaw to dRaw%8+1
		}
	}
	f.Add([]byte{3, 40, 40}, 1, uint64(0)) // ΣH_j > 30
	deep := make([]byte, HeaderSize(1)+512*EntrySize(1))
	deep[0], deep[1] = 1, 9
	f.Add(deep, 0, uint64(1))                  // H_1 = 9 > ξ_1, entries fit
	f.Add([]byte{1, 2, 2, 0, 0}, 1, uint64(2)) // entries overflow the page
	f.Add([]byte{}, 1, uint64(0))
	const width = 16
	f.Fuzz(func(t *testing.T, data []byte, dRaw int, key uint64) {
		d := dRaw%8 + 1
		if d < 1 {
			d = 1
		}
		xi := make([]int, d)
		v := make(bitkey.Vector, d)
		for j := range v {
			xi[j] = 8
			v[j] = bitkey.Component((key >> uint(5*j)) & (1<<width - 1))
		}
		ptr, isNode, h, err := Route(data, v, width, xi)
		n, derr := Decode(data, d)
		if derr != nil {
			if err == nil {
				t.Fatalf("Route accepted an image Decode rejects (%v)", derr)
			}
			return
		}
		for j, hj := range n.Depths {
			if hj > xi[j] {
				if err == nil {
					t.Fatalf("Route accepted H_%d = %d > ξ = %d", j+1, hj, xi[j])
				}
				return
			}
		}
		if err != nil {
			t.Fatalf("Route rejected an image Decode accepts: %v", err)
		}
		idx := make([]uint64, d)
		for j := range idx {
			idx[j] = bitkey.G(v[j], n.Depths[j], width)
		}
		e := n.Entries[n.Index(idx)]
		if ptr != e.Ptr || isNode != e.IsNode || h != e.H {
			t.Fatalf("Route = (%d, %v, %v), Decode+Index = (%d, %v, %v)", ptr, isNode, h, e.Ptr, e.IsNode, e.H)
		}
	})
}
