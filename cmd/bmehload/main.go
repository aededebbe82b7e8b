// Command bmehload bulk-loads CSV data into a file-backed BMEH-tree index.
// Each indexed row's value is its 0-based record number in the input, so
// the index works as a row locator for the original file.
//
// Column specifications select and encode the key dimensions:
//
//	u32:IDX           unsigned integer column IDX (must fit 32 bits)
//	i32:IDX           signed integer column
//	f64:IDX:LO:HI     real-valued column rescaled from [LO,HI] onto the
//	                  full component range (recommended for any bounded
//	                  attribute — see the README on scaling)
//	str:IDX           leading 4 bytes of a string column
//
// Usage:
//
//	bmehload -col f64:1:-180:180 -col f64:2:-90:90 -o cities.bmeh cities.csv
//	cat data.csv | bmehload -col u32:0 -col i32:3 -o out.bmeh
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bmeh"
)

// colSpec is one parsed -col argument.
type colSpec struct {
	kind   string // u32, i32, f64, str
	index  int
	lo, hi float64 // f64 only
}

// parseColSpec parses a -col argument.
func parseColSpec(s string) (colSpec, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 {
		return colSpec{}, fmt.Errorf("column spec %q: want TYPE:INDEX[:LO:HI]", s)
	}
	idx, err := strconv.Atoi(parts[1])
	if err != nil || idx < 0 {
		return colSpec{}, fmt.Errorf("column spec %q: bad index %q", s, parts[1])
	}
	c := colSpec{kind: parts[0], index: idx}
	switch c.kind {
	case "u32", "i32", "str":
		if len(parts) != 2 {
			return colSpec{}, fmt.Errorf("column spec %q: %s takes no bounds", s, c.kind)
		}
	case "f64":
		if len(parts) != 4 {
			return colSpec{}, fmt.Errorf("column spec %q: f64 needs :LO:HI bounds", s)
		}
		if c.lo, err = strconv.ParseFloat(parts[2], 64); err != nil {
			return colSpec{}, fmt.Errorf("column spec %q: bad low bound", s)
		}
		if c.hi, err = strconv.ParseFloat(parts[3], 64); err != nil {
			return colSpec{}, fmt.Errorf("column spec %q: bad high bound", s)
		}
		if c.hi <= c.lo {
			return colSpec{}, fmt.Errorf("column spec %q: empty bounds", s)
		}
	default:
		return colSpec{}, fmt.Errorf("column spec %q: unknown type %q", s, c.kind)
	}
	return c, nil
}

// encode maps one CSV field to a key component.
func (c colSpec) encode(field string) (uint64, error) {
	field = strings.TrimSpace(field)
	switch c.kind {
	case "u32":
		v, err := strconv.ParseUint(field, 10, 32)
		if err != nil {
			return 0, fmt.Errorf("column %d: %q is not a uint32", c.index, field)
		}
		return bmeh.Uint32(uint32(v)), nil
	case "i32":
		v, err := strconv.ParseInt(field, 10, 32)
		if err != nil {
			return 0, fmt.Errorf("column %d: %q is not an int32", c.index, field)
		}
		return bmeh.Int32(int32(v)), nil
	case "f64":
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return 0, fmt.Errorf("column %d: %q is not a number", c.index, field)
		}
		return bmeh.Bounded(v, c.lo, c.hi), nil
	case "str":
		return bmeh.StringPrefix(field, 32), nil
	}
	return 0, fmt.Errorf("unknown column type %q", c.kind)
}

// colSpecs collects repeated -col flags.
type colSpecs []colSpec

func (cs *colSpecs) String() string { return fmt.Sprint(*cs) }

func (cs *colSpecs) Set(s string) error {
	c, err := parseColSpec(s)
	if err != nil {
		return err
	}
	*cs = append(*cs, c)
	return nil
}

// errStopped reports a load cut short by a stop request. The rows
// batched so far are flushed before loadCSV returns it, so the index is
// consistent — just partial.
var errStopped = errors.New("load interrupted")

// countingReader counts source bytes as they are consumed, for the
// bytes/sec figure in the completion report.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// encodeRow maps one CSV record to a key, reporting malformed rows to
// errw. ok is false when the row must be skipped.
func encodeRow(cols []colSpec, rec []string, row int, errw io.Writer) (bmeh.Key, bool) {
	key := make(bmeh.Key, len(cols))
	for j, c := range cols {
		if c.index >= len(rec) {
			fmt.Fprintf(errw, "row %d: only %d fields (need column %d); skipped\n", row, len(rec), c.index)
			return nil, false
		}
		v, err := c.encode(rec[c.index])
		if err != nil {
			fmt.Fprintf(errw, "row %d: %v; skipped\n", row, err)
			return nil, false
		}
		key[j] = v
	}
	return key, true
}

// loadCSV streams rows from r into ix in batches of batchSize (1 falls
// back to per-row Insert); returns rows indexed, duplicates skipped and
// malformed rows skipped. Batches go through InsertBatch: one write lock
// and one group-committed Sync per batch instead of per row. If stop is
// closed mid-load the current batch is flushed and errStopped returned.
func loadCSV(ix *bmeh.Index, r io.Reader, cols []colSpec, header bool, batchSize int, errw io.Writer, stop <-chan struct{}) (loaded, dups, bad int, err error) {
	if batchSize < 1 {
		batchSize = 1
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	row := -1
	batch := make([]bmeh.KV, 0, batchSize)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		n, err := ix.InsertBatch(batch)
		loaded += n
		dups += len(batch) - n
		batch = batch[:0]
		return err
	}
	for {
		select {
		case <-stop:
			if err := flush(); err != nil {
				return loaded, dups, bad, err
			}
			return loaded, dups, bad, errStopped
		default:
		}
		rec, err := cr.Read()
		if err == io.EOF {
			return loaded, dups, bad, flush()
		}
		if err != nil {
			return loaded, dups, bad, err
		}
		row++
		if header && row == 0 {
			continue
		}
		key, ok := encodeRow(cols, rec, row, errw)
		if !ok {
			bad++
			continue
		}
		batch = append(batch, bmeh.KV{Key: key, Value: uint64(row)})
		if len(batch) >= batchSize {
			if err := flush(); err != nil {
				return loaded, dups, bad, fmt.Errorf("row %d: %w", row, err)
			}
		}
	}
}

// loadBulk streams rows through Index.BulkLoad: sort by pseudo-key,
// carve pages, build the directory bottom-up, one commit. If stop is
// closed mid-stream the iterator simply ends early — the rows already
// read commit as a partial (but fully consistent) load.
func loadBulk(ix *bmeh.Index, r io.Reader, cols []colSpec, header bool, errw io.Writer, stop <-chan struct{}) (loaded, dups, bad int, err error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	row := -1
	stopped := false
	st, lerr := ix.BulkLoad(func() (bmeh.KV, bool, error) {
		for {
			select {
			case <-stop:
				stopped = true
				return bmeh.KV{}, false, nil
			default:
			}
			rec, err := cr.Read()
			if err == io.EOF {
				return bmeh.KV{}, false, nil
			}
			if err != nil {
				return bmeh.KV{}, false, err
			}
			row++
			if header && row == 0 {
				continue
			}
			key, ok := encodeRow(cols, rec, row, errw)
			if !ok {
				bad++
				continue
			}
			return bmeh.KV{Key: key, Value: uint64(row)}, true, nil
		}
	}, bmeh.BulkOptions{})
	loaded, dups = int(st.Loaded), int(st.Duplicates)
	if lerr != nil {
		return loaded, dups, bad, lerr
	}
	if stopped {
		return loaded, dups, bad, errStopped
	}
	return loaded, dups, bad, nil
}

// fmtBytes renders a byte count with a binary-prefix unit.
func fmtBytes(n float64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", n/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", n/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", n/(1<<10))
	}
	return fmt.Sprintf("%.0f B", n)
}

func main() {
	var cols colSpecs
	var (
		out      = flag.String("o", "", "output index file (required)")
		capacity = flag.Int("b", 32, "data page capacity")
		header   = flag.Bool("header", true, "skip the first CSV row")
		batchN   = flag.Int("batch", 1024, "rows per InsertBatch (1 = per-row inserts)")
		bulk     = flag.Bool("bulk", false, "build bottom-up with BulkLoad (sort, carve pages, one commit)")
	)
	flag.Var(&cols, "col", "key column spec TYPE:INDEX[:LO:HI] (repeatable, in dimension order)")
	flag.Parse()
	if *out == "" || len(cols) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	in := io.Reader(os.Stdin)
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		defer f.Close()
		in = f
	} else if flag.NArg() > 1 {
		fail(fmt.Errorf("at most one input file"))
	}
	ix, err := bmeh.Create(*out, bmeh.Options{
		Dims:         len(cols),
		PageCapacity: *capacity,
	})
	if err != nil {
		fail(err)
	}
	// SIGINT/SIGTERM stop the load at the next row boundary; what is in
	// hand is flushed (batch mode) or committed as read so far (bulk
	// mode) and the index closed cleanly, so the partial file opens
	// without WAL replay.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "bmehload: %v: flushing and closing %s\n", s, *out)
		close(stop)
		signal.Stop(sigc) // a second signal kills us the default way
	}()
	src := &countingReader{r: in}
	start := time.Now()
	var loaded, dups, bad int
	if *bulk {
		loaded, dups, bad, err = loadBulk(ix, src, cols, *header, os.Stderr, stop)
	} else {
		loaded, dups, bad, err = loadCSV(ix, src, cols, *header, *batchN, os.Stderr, stop)
	}
	stopped := errors.Is(err, errStopped)
	if err != nil && !stopped {
		ix.Close()
		fail(err)
	}
	if err := ix.Close(); err != nil {
		fail(err)
	}
	elapsed := time.Since(start)
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	st, _ := os.Stat(*out)
	note := ""
	if stopped {
		note = " [interrupted: partial load]"
	}
	fmt.Printf("indexed %d rows (%d duplicates, %d malformed) in %v → %s (%d KiB)%s\n",
		loaded, dups, bad, elapsed.Round(time.Millisecond), *out, st.Size()/1024, note)
	fmt.Printf("rate: %.0f rows/s, %s/s (%s read)\n",
		float64(loaded)/secs, fmtBytes(float64(src.n)/secs), fmtBytes(float64(src.n)))
	if stopped {
		os.Exit(130)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bmehload:", err)
	os.Exit(1)
}
