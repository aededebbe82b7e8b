package bmeh

// Hot-path benchmarks for the zero-decode read path and the batched write
// API. BenchmarkGetHot is the headline single-threaded number: every probe
// hits the decoded-node cache, so a Get is pure pointer-chasing with no
// deserialization and (at steady state) no allocation. The file-backend
// pair compares per-operation Insert+Sync against InsertBatch, which takes
// the write lock once per batch and ends in a single Sync.

import (
	"path/filepath"
	"testing"
)

// BenchmarkGetHot measures a single-threaded exact-match lookup with the
// whole working set resident in the decoded-node cache.
func BenchmarkGetHot(b *testing.B) {
	const n = 20000
	ix := newWarmBenchIndex(b, n)
	defer ix.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := benchKey(mix64(uint64(i)) % n)
		if _, ok, err := ix.Get(k); err != nil || !ok {
			b.Fatalf("get: ok=%v err=%v", ok, err)
		}
	}
}

func newFileBenchIndex(b *testing.B) *Index {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.bmeh")
	ix, err := Create(path, Options{Dims: 2, PageCapacity: 32})
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

// BenchmarkFileInsertSync is the per-operation baseline: one Insert and
// one durable Sync per record on the file backend.
func BenchmarkFileInsertSync(b *testing.B) {
	ix := newFileBenchIndex(b)
	defer ix.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := uint64(i) + 1
		if err := ix.Insert(benchKey(v), v); err != nil {
			b.Fatal(err)
		}
		if err := ix.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFileInsertBatch loads the same stream through InsertBatch in
// 1024-record batches: one write lock and one Sync per batch. ns/op is
// still per record, so it divides directly against BenchmarkFileInsertSync.
func BenchmarkFileInsertBatch(b *testing.B) {
	const batchSize = 1024
	ix := newFileBenchIndex(b)
	defer ix.Close()
	batch := make([]KV, 0, batchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := uint64(i) + 1
		batch = append(batch, KV{Key: benchKey(v), Value: v})
		if len(batch) == batchSize {
			if _, err := ix.InsertBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if _, err := ix.InsertBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFileBulkLoad streams the same records through the bottom-up
// bulk builder: sort by pseudo-key, carve full pages sequentially, build
// the directory above them, one commit. ns/op is per record, directly
// comparable to BenchmarkFileInsertBatch.
func BenchmarkFileBulkLoad(b *testing.B) {
	ix := newFileBenchIndex(b)
	defer ix.Close()
	b.ReportAllocs()
	b.ResetTimer()
	i := uint64(0)
	n := uint64(b.N)
	_, err := ix.BulkLoad(func() (KV, bool, error) {
		if i >= n {
			return KV{}, false, nil
		}
		i++
		return KV{Key: benchKey(i), Value: i}, true, nil
	}, BulkOptions{})
	if err != nil {
		b.Fatal(err)
	}
}
