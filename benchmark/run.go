package main

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"bmeh"
	"bmeh/client"
)

const (
	// setups is how many times a run builds its topology from nothing;
	// setup_s is the median, the last one built serves the window.
	setups = 3
	// windowSlices is how many equal parts the window is cut into.
	// Throughput and latency percentiles are taken per slice and reported
	// as the median over slices, so one scheduler or fsync hiccup moves
	// one slice, not the run.
	windowSlices = 10
	// recordBytes is the user data in one record: 2 components of 8 bytes
	// as the API takes them, plus the 8-byte value.
	recordBytes = 8*2 + 8
	// readbackSample is how many acknowledged PUTs are read back after
	// the window.
	readbackSample = 10_000
)

func warmup(window time.Duration) time.Duration { return window / 10 }

// rec is one completed op: when it ended (ns after the window opened;
// negative during warm-up), how long the caller waited, and its kind.
type rec struct {
	end, dur int64
	kind     opKind
}

// tally counts what was tried and what went wrong. The first few
// failures are kept as text for the run record.
type tally struct {
	attempted, failed int64
	notes             []string
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.fail(format, args...)
	}
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.notes) < 5 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.notes = append(t.notes, o.notes...)
	if len(t.notes) > 5 {
		t.notes = t.notes[:5]
	}
}

// caller is one closed-loop client: it sends its stream's next op only
// after the previous reply, checks every reply against the oracle, and
// keeps a record per op.
type caller struct {
	st *stream
	tally
	recs       []rec
	ranges     int // RANGE ops so far; every 100th is checked for completeness
	wrongShard int // replies that were client.ErrWrongShard
}

func newCaller(w *workload, ks keyspace, preload int, id, ns uint64) *caller {
	return &caller{st: newStream(w, ks, preload, id, ns)}
}

// failOp records a reply that was an error or wrong. do calls it only
// then, so that the note's arguments are boxed off the hot path.
func (c *caller) failOp(err error, format string, args ...any) {
	c.fail(format, args...)
	if errors.Is(err, client.ErrWrongShard) {
		c.wrongShard++
	}
}

// do sends one op to t and returns how long the call took and, for a
// RANGE, what it returned. Checking happens after the clock stops.
func (c *caller) do(t kv, o op) (time.Duration, []bmeh.KV) {
	c.attempted++
	switch o.kind {
	case opGet:
		t0 := time.Now()
		v, ok, err := t.Get(o.key)
		d := time.Since(t0)
		if err != nil || ok != o.present || (ok && v != valueOf(o.key)) {
			c.failOp(err, "GET %v: value %d found %v err %v, want found %v", o.key, v, ok, err, o.present)
		}
		return d, nil
	case opPut:
		v := valueOf(o.key)
		t0 := time.Now()
		err := t.Put(o.key, v)
		d := time.Since(t0)
		if err != nil {
			c.failOp(err, "PUT %v: %v", o.key, err)
		}
		return d, nil
	case opDel:
		t0 := time.Now()
		ok, err := t.Delete(o.key)
		d := time.Since(t0)
		if err != nil || !ok {
			c.failOp(err, "DEL %v: removed %v err %v", o.key, ok, err)
		}
		return d, nil
	default:
		t0 := time.Now()
		kvs, more, err := t.Range(o.key, o.hi, rangeLimit)
		d := time.Since(t0)
		c.ranges++
		if err != nil || !c.rangeOK(o, kvs, more, c.ranges%100 == 0) {
			c.failOp(err, "RANGE %v..%v: %d results, more %v, err %v", o.key, o.hi, len(kvs), more, err)
		}
		return d, kvs
	}
}

func inBox(k, lo, hi bmeh.Key) bool {
	return k[0] >= lo[0] && k[0] <= hi[0] && k[1] >= lo[1] && k[1] <= hi[1]
}

// rangeOK checks that every result lies in the box with its oracle
// value, and with complete set that no preloaded key of the box is
// missing (preloaded keys are never deleted, so even a lagging replica
// must return them all).
func (c *caller) rangeOK(o op, kvs []bmeh.KV, more, complete bool) bool {
	for _, e := range kvs {
		if !inBox(e.Key, o.key, o.hi) || e.Value != valueOf(e.Key) {
			return false
		}
	}
	if !complete || more {
		return true
	}
	got := make(map[[2]uint64]bool, len(kvs))
	for _, e := range kvs {
		got[[2]uint64{e.Key[0], e.Key[1]}] = true
	}
	for i := 0; i < c.st.n; i++ {
		k := c.st.ks.key(uint64(i))
		if inBox(k, o.key, o.hi) && !got[[2]uint64{k[0], k[1]}] {
			return false
		}
	}
	return true
}

// drive runs the callers against t in a closed loop for the warm-up and
// then the window, and returns once every caller's last reply is in.
func drive(t kv, callers []*caller, warm, window time.Duration) {
	open := time.Now().Add(warm)
	shut := open.Add(window)
	var wg sync.WaitGroup
	for _, c := range callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for now := time.Now(); now.Before(shut); {
				o := c.st.next()
				d, _ := c.do(t, o)
				now = time.Now()
				c.recs = append(c.recs, rec{end: int64(now.Sub(open)), dur: int64(d), kind: o.kind})
			}
		}(c)
	}
	wg.Wait()
}

// windowStats is what the callers' records say about the window.
type windowStats struct {
	opsPerS, p50us, p99us float64 // medians over slices
	info                  map[string]float64
	samples               map[string]int
}

func sortedCopy(v []int64) []int64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// summarize reduces the records that completed inside the window. An op
// that began in warm-up and ended in the window counts; one still in
// flight when the window shut does not.
func summarize(callers []*caller, window time.Duration) windowStats {
	sliceLen := int64(window) / windowSlices
	var bySlice [windowSlices][]int64
	var byKind [numOpKinds][]int64
	perCaller := make([]float64, len(callers))
	total := 0
	for ci, c := range callers {
		for _, r := range c.recs {
			if r.end < 0 || r.end >= sliceLen*windowSlices {
				continue
			}
			bySlice[r.end/sliceLen] = append(bySlice[r.end/sliceLen], r.dur)
			byKind[r.kind] = append(byKind[r.kind], r.dur)
			perCaller[ci]++
			total++
		}
	}
	var rate, p50, p99 []float64
	for _, durs := range bySlice {
		s := sortedCopy(durs)
		rate = append(rate, float64(len(s))/(float64(sliceLen)/1e9))
		p50 = append(p50, us(percentile(s, 50)))
		p99 = append(p99, us(percentile(s, 99)))
	}
	ws := windowStats{
		opsPerS: median(rate), p50us: median(p50), p99us: median(p99),
		info:    map[string]float64{"window_ops_per_s": float64(total) / window.Seconds()},
		samples: map[string]int{"all": total},
	}
	for k, durs := range byKind {
		if len(durs) == 0 {
			continue
		}
		s, name := sortedCopy(durs), opNames[k]
		ws.samples[name] = len(s)
		ws.info[name+"_p50_us"] = us(percentile(s, 50))
		ws.info[name+"_p99_us"] = us(percentile(s, 99))
		ws.info[name+"_p99.9_us"] = us(percentile(s, 99.9))
		ws.info[name+"_max_us"] = us(s[len(s)-1])
	}
	// Generator health: a starved caller shows as a low minimum.
	sort.Float64s(perCaller)
	ws.info["caller_ops_min"] = perCaller[0]
	ws.info["caller_ops_max"] = perCaller[len(perCaller)-1]
	return ws
}

// verify checks the topology against what the callers were told, then
// closes it and checks every node's file offline. Fsck includes
// Index.Validate on the recovered file.
func verify(t *topology, callers []*caller, ks keyspace, preload int) (tally, error) {
	var tl tally
	want := uint64(preload)
	var live []uint64
	for _, c := range callers {
		live = append(live, c.st.live...)
	}
	want += uint64(len(live))
	got, err := t.length()
	tl.check(err == nil && got == want, "Len: %d err %v, want %d (preload + PUTs − DELs)", got, err, want)
	rb := t.readback()
	for i, step := 0, max(1, len(live)/readbackSample); i < len(live); i += step {
		k := ks.key(live[i])
		v, ok, err := rb.Get(k)
		tl.check(err == nil && ok && v == valueOf(k), "read back %v: value %d found %v err %v", k, v, ok, err)
	}
	if err := t.close(); err != nil {
		return tl, fmt.Errorf("closing topology: %w", err)
	}
	for _, f := range t.files {
		rep, err := bmeh.Fsck(f)
		tl.check(err == nil && rep.OK(), "fsck %s: err %v, report %+v", f, err, rep)
	}
	return tl, nil
}

func newCallers(w *workload, ks keyspace, preload int) []*caller {
	cs := make([]*caller, w.callers)
	for i := range cs {
		cs[i] = newCaller(w, ks, preload, uint64(i), uint64(i))
	}
	return cs
}

func scratchDir() (string, error) {
	if err := os.MkdirAll(benchPath("tmp"), 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(benchPath("tmp"), "run")
}

// runUntraced is one end-to-end run: set up, warm up, measure the
// window with tracing off, check everything.
func runUntraced(w *workload, seed uint64, window time.Duration, scale int) (*row, error) {
	ks, preload := newKeyspace(seed), w.preload/scale
	var t *topology
	var setupS []float64
	for i := 0; i < setups; i++ {
		if t != nil {
			if err := t.close(); err != nil {
				return nil, err
			}
		}
		dir, err := scratchDir()
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		t0 := time.Now()
		if t, err = setup(w, ks, preload, dir); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer t.close()
	bytes, err := dirBytes(t.dir)
	if err != nil {
		return nil, err
	}

	callers := newCallers(w, ks, preload)
	drive(t.entry, callers, warmup(window), window)
	ws := summarize(callers, window)

	r := newRow(w, seed, window, false)
	for _, c := range callers {
		r.tally.add(c.tally)
	}
	vt, err := verify(t, callers, ks, preload)
	if err != nil {
		return nil, err
	}
	r.tally.add(vt)
	r.Info, r.Samples = ws.info, ws.samples
	r.set("ops_per_s", ws.opsPerS)
	r.set("p50_us", ws.p50us)
	r.set("p99_us", ws.p99us)
	r.set("setup_s", median(setupS))
	r.set("space_amp", float64(bytes)/float64(preload*recordBytes))
	return r, nil
}
