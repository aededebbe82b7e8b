package main

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	findRoot()
	os.Exit(m.Run())
}

// Nearest-rank percentiles against the definition, on a sorted-slice
// reference: the p-th percentile is the smallest value with at least p
// percent of the sample at or below it.
func TestPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000, 12345} {
		v := make([]int64, n)
		for i := range v {
			v[i] = rng.Int63n(1000) // duplicates on purpose
		}
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		for _, p := range []float64{0.1, 1, 50, 90, 99, 99.9, 100} {
			got := percentile(v, p)
			atOrBelow := sort.Search(n, func(i int) bool { return v[i] > got })
			below := sort.Search(n, func(i int) bool { return v[i] >= got })
			need := p / 100 * float64(n)
			if float64(atOrBelow) < need-1e-9 || float64(below) >= need {
				t.Errorf("n=%d p=%g: %d has %d below and %d at or below, need %.2f", n, p, got, below, atOrBelow, need)
			}
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample: %d", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// the driver computes the spread with. Expected values are Python's.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{5, 1}, 0, 3, 6}, // Python extrapolates a pair
		{[]float64{2, 4, 4, 5, 9}, 3, 4, 7},
	} {
		q1, q2, q3 := quartiles(tc.v)
		if math.Abs(q1-tc.q1)+math.Abs(q2-tc.q2)+math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.v, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if s := spread([]float64{90, 100, 110, 100, 100}); math.Abs(s-0.1) > 1e-12 {
		t.Errorf("spread = %v, want 0.1", s)
	}
}

// hashStream digests the first n ops of a stream.
func hashStream(s *stream, n int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for i := 0; i < n; i++ {
		o := s.next()
		put(uint64(o.kind))
		put(o.key[0])
		put(o.key[1])
		if o.kind == opRange {
			put(o.hi[0])
			put(o.hi[1])
		}
	}
	return h.Sum64()
}

// The same seed gives the same ops for every workload and caller; a
// different seed, caller or workload gives different ones.
func TestGeneratorDeterminism(t *testing.T) {
	hash := func(w *workload, seed, id uint64) uint64 {
		return hashStream(newStream(w, newKeyspace(seed), w.preload, id, id), 5000)
	}
	seen := map[uint64]string{}
	for _, w := range workloads {
		for id := uint64(0); id < 3; id++ {
			h := hash(w, 7, id)
			if h != hash(w, 7, id) {
				t.Errorf("%s caller %d: same seed, different ops", w.name, id)
			}
			if h == hash(w, 8, id) {
				t.Errorf("%s caller %d: seeds 7 and 8 give the same ops", w.name, id)
			}
			if w.name == "mixed.server.cow" {
				continue // the same mix as mixed.server.latched, by design
			}
			if prev, dup := seen[h]; dup {
				t.Errorf("%s caller %d repeats the ops of %s", w.name, id, prev)
			}
			seen[h] = w.name
		}
	}
	ks := newKeyspace(7)
	keys := map[[2]uint64]bool{}
	for _, i := range []uint64{0, 1, 99_999, freshBase(0), freshBase(0) + 1, freshBase(31), freshBase(1001), absentBase} {
		k := ks.key(i)
		if k[0] >= 1<<32 || k[1] >= 1<<32 || keys[[2]uint64{k[0], k[1]}] {
			t.Errorf("key(%d) = %v: out of range or repeated", i, k)
		}
		keys[[2]uint64{k[0], k[1]}] = true
	}
}

// A DEL only ever names a key the same stream PUT before and has not
// deleted since, so in a closed loop no DEL can miss.
func TestStreamDeletesOwnKeys(t *testing.T) {
	w := findWorkload("mixed.server.latched")
	s := newStream(w, newKeyspace(3), w.preload, 0, 0)
	live := map[[2]uint64]bool{}
	for i := 0; i < 20_000; i++ {
		o := s.next()
		id := [2]uint64{o.key[0], o.key[1]}
		switch o.kind {
		case opPut:
			if live[id] {
				t.Fatalf("op %d: PUT of a live key", i)
			}
			live[id] = true
		case opDel:
			if !live[id] {
				t.Fatalf("op %d: DEL of a key that is not live", i)
			}
			delete(live, id)
		}
	}
	if len(live) != len(s.live) {
		t.Fatalf("stream says %d live keys, replay says %d", len(s.live), len(live))
	}
}

func TestVerdict(t *testing.T) {
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m, m} }
	noisy := func(m float64) []float64 { return []float64{m * 0.7, m, m * 1.3, m * 0.8, m * 1.2} }
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same", steady(100), steady(100), "lower", 0.1, "ok"},
		{"lower is better, 5% slower", steady(100), steady(105), "lower", 0.1, "ok"},
		{"lower is better, 20% slower", steady(100), steady(120), "lower", 0.1, "worse"},
		{"lower is better, 20% faster", steady(100), steady(80), "lower", 0.1, "ok"},
		{"higher is better, 20% less", steady(100), steady(80), "higher", 0.1, "worse"},
		{"higher is better, 20% more", steady(100), steady(120), "higher", 0.1, "ok"},
		{"noisy base", noisy(100), steady(150), "lower", 0.1, "unresolved"},
		{"noisy new", steady(100), noisy(150), "lower", 0.1, "unresolved"},
		{"noise inside a wide bound", noisy(100), noisy(100), "lower", 0.5, "ok"},
	} {
		if got, _ := verdict(tc.a, tc.b, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// BENCHMARK.json and the program must name the same workloads, and a
// smoke run of each must report exactly the metrics BENCHMARK.json
// lists — end-to-end ones untraced, per-layer ones traced — with every
// check passing.
func TestSmokeMatchesSpec(t *testing.T) {
	var err error
	if theSpec, err = loadSpec(); err != nil {
		t.Fatal(err)
	}
	theCommit = "test"
	if len(theSpec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(theSpec.Workloads), len(workloads))
	}
	hasSetup := false
	for _, m := range theSpec.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("BENCHMARK.json lacks setup_s in s, lower is better")
	}
	for _, sw := range theSpec.Workloads {
		w := findWorkload(sw.Name)
		if w == nil {
			t.Errorf("BENCHMARK.json names workload %q, the program has none", sw.Name)
			continue
		}
		for _, trace := range []bool{false, true} {
			run, want := runUntraced, theSpec.EndToEnd
			if trace {
				run, want = runTraced, theSpec.PerLayer
			}
			r, err := run(w, defaultSeed, 300*time.Millisecond, 20)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			r.finish()
			if !r.Correct || r.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d checks failed: %v", w.name, trace, r.Failed, r.Attempted, r.Failures)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", w.name, trace, m.Name, got, ok)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, m.Name, got.Value)
				}
			}
			if trace && r.Metrics["core.logical_reads_per_get"].Value > 3 {
				t.Errorf("%s: %v logical reads per Get, the paper's bound is 3", w.name, r.Metrics["core.logical_reads_per_get"].Value)
			}
			if buf, err := json.Marshal(r.result); err != nil || len(buf) == 0 {
				t.Errorf("%s: result does not marshal: %v", w.name, err)
			}
		}
	}
}
