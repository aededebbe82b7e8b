package bmeh

// Concurrent benchmarks for the scalable read path: BenchmarkParallelGet /
// Insert / Mixed run the public Index under b.RunParallel at 1, 4 and 16
// goroutines (GOMAXPROCS is pinned to the goroutine count for the duration
// of each sub-benchmark, so the counts are exact). Get runs on a warm
// decoded-object cache, where the only shared state a probe touches is
// the index's RLock and a cache shard's lock — the configuration the
// paper's ≤3-accesses-per-probe claim cares about under load.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// benchGoroutineCounts are the parallelism levels the suite sweeps.
var benchGoroutineCounts = []int{1, 4, 16}

// mix64 is splitmix64's finalizer: a cheap bijection spreading sequential
// indices over the key space.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// benchKey derives a 2-d key (32-bit components) from an index.
func benchKey(i uint64) Key {
	h := mix64(i)
	return Key{h & 0xffffffff, h >> 32}
}

// newWarmBenchIndex builds an in-memory index, loads n keys (a working set
// the decoded-object cache holds whole), and touches every key once so the
// measurement window runs at a ~100% hit rate.
func newWarmBenchIndex(b *testing.B, n int) *Index {
	b.Helper()
	ix, err := New(Options{Dims: 2, PageCapacity: 32})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := ix.Insert(benchKey(uint64(i)), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, ok, err := ix.Get(benchKey(uint64(i))); err != nil || !ok {
			b.Fatalf("warmup key %d: ok=%v err=%v", i, ok, err)
		}
	}
	return ix
}

// runAtGoroutines runs body under b.RunParallel with g client goroutines.
// GOMAXPROCS is pinned to min(g, NumCPU): a deployment never runs more OS
// threads than cores, so forcing GOMAXPROCS above NumCPU would only add
// preemption overhead the benchmark is not trying to measure. RunParallel
// spawns parallelism×GOMAXPROCS goroutines, so the parallelism multiplier
// supplies the rest of g (exact whenever GOMAXPROCS divides g).
func runAtGoroutines(b *testing.B, g int, body func(pb *testing.PB, worker uint64)) {
	procs := g
	if n := runtime.NumCPU(); procs > n {
		procs = n
	}
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	b.SetParallelism((g + procs - 1) / procs)
	var workers atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		body(pb, workers.Add(1)-1)
	})
}

// BenchmarkParallelGet measures exact-match lookups on a warm cache.
func BenchmarkParallelGet(b *testing.B) {
	const n = 20000
	ix := newWarmBenchIndex(b, n)
	defer ix.Close()
	for _, g := range benchGoroutineCounts {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			runAtGoroutines(b, g, func(pb *testing.PB, worker uint64) {
				i := mix64(worker) // de-correlate workers' probe sequences
				for pb.Next() {
					i++
					k := benchKey(mix64(i) % n)
					if _, ok, err := ix.Get(k); err != nil || !ok {
						b.Errorf("get: ok=%v err=%v", ok, err)
						return
					}
				}
			})
		})
	}
}

// benchParallelInsertAt loads a fresh in-memory index from g goroutines
// inserting distinct keys as fast as they can.
func benchParallelInsertAt(b *testing.B, g int) {
	ix, err := New(Options{Dims: 2, PageCapacity: 32})
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	var seq atomic.Uint64
	runAtGoroutines(b, g, func(pb *testing.PB, _ uint64) {
		for pb.Next() {
			i := seq.Add(1)
			if err := ix.Insert(benchKey(i), i); err != nil {
				b.Errorf("insert %d: %v", i, err)
				return
			}
		}
	})
}

// BenchmarkParallelInsert measures insertions through the latch-crabbing
// write path: writers descend under per-node latches and only splits
// briefly stop the others, so distinct-subtree inserts proceed in
// parallel.
func BenchmarkParallelInsert(b *testing.B) {
	for _, g := range benchGoroutineCounts {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			benchParallelInsertAt(b, g)
		})
	}
}

// BenchmarkParallelMixed measures a 90% read / 10% insert mix on a warm
// cache.
func BenchmarkParallelMixed(b *testing.B) {
	const n = 20000
	for _, g := range benchGoroutineCounts {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			ix := newWarmBenchIndex(b, n)
			defer ix.Close()
			var seq atomic.Uint64
			seq.Store(n)
			runAtGoroutines(b, g, func(pb *testing.PB, worker uint64) {
				i := mix64(worker)
				for pb.Next() {
					i++
					if i%10 == 0 {
						w := seq.Add(1)
						if err := ix.Insert(benchKey(w), w); err != nil {
							b.Errorf("insert: %v", err)
							return
						}
					} else if _, ok, err := ix.Get(benchKey(mix64(i) % n)); err != nil || !ok {
						b.Errorf("get: ok=%v err=%v", ok, err)
						return
					}
				}
			})
		})
	}
}
