// Persistence: create a file-backed BMEH-tree index, load it with data,
// close it, reopen it, and keep working — demonstrating the durable
// lifecycle (Create / Sync / Close / Open).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"bmeh"
)

func main() {
	dir, err := os.MkdirTemp("", "bmeh-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "sensors.bmeh")

	// Phase 1: build a (time, sensor) index of synthetic measurements.
	ix, err := bmeh.Create(path, bmeh.Options{Dims: 2, PageCapacity: 32})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	base := uint64(1700000000) // seconds
	const n = 30000
	start := time.Now()
	for i := 0; i < n; i++ {
		k := bmeh.Key{
			(base + uint64(i)) % (1 << 31), // timestamp-ish, monotone
			uint64(rng.Intn(64)) << 24,     // sensor id, scaled to high bits
		}
		if err := ix.Insert(k, uint64(i)); err != nil && err != bmeh.ErrDuplicate {
			log.Fatal(err)
		}
	}
	st := ix.Stats()
	fmt.Printf("built %d records in %v: %d levels, %d data pages, physical I/O %d+%d\n",
		st.Records, time.Since(start).Round(time.Millisecond),
		st.DirectoryLevels, st.DataPages, st.Reads, st.Writes)
	if err := ix.Close(); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(path)
	fmt.Printf("index file: %d KiB\n", info.Size()/1024)

	// Phase 2: reopen and query.
	re, err := bmeh.OpenWithOptions(path, bmeh.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer re.Close()
	fmt.Printf("reopened: %d records, %d levels\n", re.Len(), re.Stats().DirectoryLevels)

	// A time-window query for one sensor (partial range).
	lo := bmeh.Key{(base + 1000) % (1 << 31), 17 << 24}
	hi := bmeh.Key{(base + 2000) % (1 << 31), 17 << 24}
	hits := 0
	if err := re.Range(lo, hi, func(bmeh.Key, uint64) bool { hits++; return true }); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sensor 17, 1000-second window: %d measurements\n", hits)

	// Continue mutating the reopened index; durability via Sync.
	for i := 0; i < 100; i++ {
		k := bmeh.Key{(base + uint64(n+i)) % (1 << 31), uint64(rng.Intn(64)) << 24}
		if err := re.Insert(k, uint64(n+i)); err != nil && err != bmeh.ErrDuplicate {
			log.Fatal(err)
		}
	}
	if err := re.Sync(); err != nil {
		log.Fatal(err)
	}
	if err := re.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("appended 100 more; index validates with %d records\n", re.Len())
}
