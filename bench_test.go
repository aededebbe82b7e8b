package bmeh

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5), plus micro-benchmarks of the hot paths. The table and
// figure benchmarks execute the sim harness and surface the paper's
// performance measures (λ, ρ, σ) as custom benchmark metrics, so
// `go test -bench` regenerates the evaluation's headline numbers.
//
// By default the experiment benchmarks run at N = 8,000 keys to keep
// `go test -bench=.` affordable; set BMEH_BENCH_FULL=1 for the paper's
// N = 40,000 (cmd/bmehbench always runs full size).

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"bmeh/internal/bitkey"
	"bmeh/internal/datapage"
	"bmeh/internal/dirnode"
	"bmeh/internal/extarray"
	"bmeh/internal/pagestore"
	"bmeh/internal/sim"
	"bmeh/internal/workload"
)

func benchN() (n, measure int) {
	if os.Getenv("BMEH_BENCH_FULL") != "" {
		return 40000, 4000
	}
	return 8000, 800
}

// benchTable reproduces one paper table per iteration and reports the b=8
// column (the paper's most contended configuration) as metrics.
func benchTable(b *testing.B, num int) {
	b.ReportAllocs()
	spec, err := sim.TableSpecFor(num)
	if err != nil {
		b.Fatal(err)
	}
	n, m := benchN()
	var tr *sim.TableResult
	for i := 0; i < b.N; i++ {
		tr, err = sim.RunTable(spec, n, m, 19860301, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range sim.Schemes {
		r := tr.Results[s][0] // b = 8 column
		tag := map[sim.Scheme]string{sim.MDEH: "mdeh", sim.MEHTree: "meh", sim.BMEHTree: "bmeh"}[s]
		b.ReportMetric(r.Lambda, "λ_"+tag+"_b8")
		b.ReportMetric(r.Rho, "ρ_"+tag+"_b8")
		b.ReportMetric(float64(r.Sigma), "σ_"+tag+"_b8")
	}
}

// BenchmarkTable2 regenerates Table 2 (2-d uniform keys).
func BenchmarkTable2(b *testing.B) { benchTable(b, 2) }

// BenchmarkTable3 regenerates Table 3 (2-d normal keys).
func BenchmarkTable3(b *testing.B) { benchTable(b, 3) }

// BenchmarkTable4 regenerates Table 4 (3-d uniform keys).
func BenchmarkTable4(b *testing.B) { benchTable(b, 4) }

// benchFigure reproduces one growth figure per iteration and reports the
// final directory sizes plus a linearity ratio (σ(N) / σ(N/2); ≈2 means
// linear growth, the paper's claim for the BMEH-tree).
func benchFigure(b *testing.B, num int) {
	b.ReportAllocs()
	spec, err := sim.FigureSpecFor(num)
	if err != nil {
		b.Fatal(err)
	}
	n, _ := benchN()
	var fr *sim.FigureResult
	for i := 0; i < b.N; i++ {
		fr, err = sim.RunFigure(spec, n, n/8, 19860301, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range sim.Schemes {
		pts := fr.Curves[s]
		tag := map[sim.Scheme]string{sim.MDEH: "mdeh", sim.MEHTree: "meh", sim.BMEHTree: "bmeh"}[s]
		last := pts[len(pts)-1].Sigma
		half := pts[len(pts)/2-1].Sigma
		b.ReportMetric(float64(last), "σ_final_"+tag)
		if half > 0 {
			b.ReportMetric(float64(last)/float64(half), "σ_growth_"+tag)
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6 (directory growth, uniform keys).
func BenchmarkFigure6(b *testing.B) { benchFigure(b, 6) }

// BenchmarkFigure7 regenerates Figure 7 (directory growth, normal keys).
func BenchmarkFigure7(b *testing.B) { benchFigure(b, 7) }

// BenchmarkRangeCost runs the Theorem 4 experiment: partial-range query
// cost across selectivities; reports reads-per-covered-page for the
// BMEH-tree (the ℓ factor of the O(ℓ·n_R) bound).
func BenchmarkRangeCost(b *testing.B) {
	b.ReportAllocs()
	n, _ := benchN()
	var pts []sim.RangePoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = sim.RunRange(sim.Uniform, 2, 16, n, 20, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.Scheme == sim.BMEHTree {
			b.ReportMetric(p.ReadRatio, fmt.Sprintf("ℓ_side%.2f", p.Side))
		}
	}
}

// --- Micro-benchmarks of the index operations and hot paths ---

func buildIndex(b *testing.B, scheme Scheme, n int) (*Index, []Key) {
	b.Helper()
	ix, err := New(Options{Scheme: scheme, Dims: 2, PageCapacity: 16})
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.Uniform(2, 99)
	keys := make([]Key, n)
	for i := range keys {
		k := gen.Next()
		keys[i] = Key{uint64(k[0]), uint64(k[1])}
		if err := ix.Insert(keys[i], uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	return ix, keys
}

func BenchmarkInsert(b *testing.B) {
	for _, s := range []Scheme{SchemeBMEH, SchemeMDEH, SchemeMEH} {
		b.Run(s.String(), func(b *testing.B) {
			ix, _ := buildIndex(b, s, 10000)
			defer ix.Close()
			gen := workload.Uniform(2, 123)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := gen.Next()
				if err := ix.Insert(Key{uint64(k[0]), uint64(k[1])}, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSearch(b *testing.B) {
	for _, s := range []Scheme{SchemeBMEH, SchemeMDEH, SchemeMEH} {
		b.Run(s.String(), func(b *testing.B) {
			ix, keys := buildIndex(b, s, 10000)
			defer ix.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, err := ix.Get(keys[i%len(keys)]); err != nil || !ok {
					b.Fatal("lookup failed")
				}
			}
		})
	}
}

func BenchmarkSearchParallel(b *testing.B) {
	ix, keys := buildIndex(b, SchemeBMEH, 10000)
	defer ix.Close()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok, err := ix.Get(keys[i%len(keys)]); err != nil || !ok {
				b.Error("lookup failed")
				return
			}
			i++
		}
	})
}

func BenchmarkRangeQuery(b *testing.B) {
	ix, _ := buildIndex(b, SchemeBMEH, 20000)
	defer ix.Close()
	rng := rand.New(rand.NewSource(7))
	span := uint64(1) << 27 // ~1/16 of each axis
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		x := uint64(rng.Int63n(1<<31 - int64(span)))
		y := uint64(rng.Int63n(1<<31 - int64(span)))
		err := ix.Range(Key{x, y}, Key{x + span, y + span}, func(Key, uint64) bool {
			hits++
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if b.N > 0 {
		b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
	}
}

func BenchmarkDelete(b *testing.B) {
	// Rebuild periodically so deletes always find keys.
	ix, keys := buildIndex(b, SchemeBMEH, 20000)
	defer ix.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		ok, err := ix.Delete(k)
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.StopTimer()
			if err := ix.Insert(k, 1); err != nil && err != ErrDuplicate {
				b.Fatal(err)
			}
			b.StartTimer()
			continue
		}
		b.StopTimer()
		if err := ix.Insert(k, 1); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkMappingG measures the Theorem 1 address computation (the inner
// loop of every directory probe).
func BenchmarkMappingG(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	idx := make([][]uint64, 1024)
	for i := range idx {
		idx[i] = []uint64{uint64(rng.Intn(1 << 10)), uint64(rng.Intn(1 << 10)), uint64(rng.Intn(1 << 10))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += extarray.Address(idx[i%len(idx)])
	}
	_ = sink
}

// BenchmarkNodeCodec measures directory-node (de)serialization, the byte
// cost of every node touch.
func BenchmarkNodeCodec(b *testing.B) {
	n := dirnode.New(2, 1)
	for i := 0; i < 3; i++ {
		n.Double(0)
		n.Double(1)
	}
	for q := range n.Entries {
		n.Entries[q] = dirnode.Entry{Ptr: pagestore.PageID(q + 1), H: []int{3, 3}, M: q % 2}
	}
	buf := make([]byte, dirnode.PageBytes(2, 6))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Encode(buf); err != nil {
			b.Fatal(err)
		}
		if _, err := dirnode.Decode(buf, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageCodec measures data-page (de)serialization.
func BenchmarkPageCodec(b *testing.B) {
	p := datapage.New(2)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 32; i++ {
		p.Insert(datapage.Record{
			Key:   bitkey.Vector{bitkey.Component(rng.Uint32()), bitkey.Component(rng.Uint32())},
			Value: rng.Uint64(),
		})
	}
	buf := make([]byte, datapage.Size(2, 32))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Encode(buf); err != nil {
			b.Fatal(err)
		}
		if _, err := datapage.Decode(buf, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBitkeyG measures the multidimensional hash G(k, h) — the
// per-dimension digit extraction performed d times per directory probe.
func BenchmarkBitkeyG(b *testing.B) {
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += bitkey.G(bitkey.Component(uint64(i)*0x9e3779b97f4a7c15), i%8+1, 32)
	}
	_ = sink
}

// BenchmarkBitkeyLeftShift measures the descent rotation that strips the
// consumed h high-order bits from a key component between tree levels.
func BenchmarkBitkeyLeftShift(b *testing.B) {
	b.ReportAllocs()
	var sink bitkey.Component
	for i := 0; i < b.N; i++ {
		sink += bitkey.LeftShift(bitkey.Component(uint64(i)*0x9e3779b97f4a7c15), i%8+1, 32)
	}
	_ = sink
}
