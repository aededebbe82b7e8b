package mdeh

import (
	"fmt"
	"io"

	"bmeh/internal/pagestore"
)

// Dump writes a summary of the flat directory: global depths, page counts,
// and the region decomposition (one line per distinct page region).
// Reading the directory costs page I/O.
func (t *Table) Dump(w io.Writer) error {
	fmt.Fprintf(w, "MDEH: d=%d w=%d b=%d | %d records, H=%v, σ=%d (%d directory pages)\n",
		t.prm.Dims, t.prm.Width, t.prm.Capacity, t.n, t.depths, t.DirectoryElements(), t.DirectoryPages())
	entries, err := t.dir.readAll()
	if err != nil {
		return err
	}
	printed := make(map[pagestore.PageID]bool)
	regions, nilCells := 0, 0
	for q := range entries {
		e := &entries[q]
		if e.Ptr == pagestore.NilPage {
			nilCells++
			continue
		}
		if printed[e.Ptr] {
			continue
		}
		printed[e.Ptr] = true
		regions++
		p, err := t.pages.Read(e.Ptr)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  element %d h=%v m=%d -> page %d (%d/%d records)\n",
			q, e.H[:t.prm.Dims], e.M+1, e.Ptr, p.Len(), t.prm.Capacity)
	}
	fmt.Fprintf(w, "  %d regions, %d empty elements\n", regions, nilCells)
	return nil
}

// DepthHistogram returns a rendering of the distribution of Σh_j over
// distinct page regions (diagnostic).
func (t *Table) DepthHistogram() string {
	entries, err := t.dir.readAll()
	if err != nil {
		return err.Error()
	}
	seen := map[pagestore.PageID]bool{}
	hist := map[int]int{}
	maxh := 0
	for q := range entries {
		e := &entries[q]
		if e.Ptr == pagestore.NilPage || seen[e.Ptr] {
			continue
		}
		seen[e.Ptr] = true
		s := 0
		for _, h := range e.H {
			s += int(h)
		}
		hist[s]++
		if s > maxh {
			maxh = s
		}
	}
	out := ""
	for s := 0; s <= maxh; s++ {
		if hist[s] > 0 {
			out += fmt.Sprintf("Σh=%d: %d pages\n", s, hist[s])
		}
	}
	return out
}
