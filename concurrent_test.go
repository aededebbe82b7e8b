package bmeh

// Parallel stress tests for the concurrent read path: readers, writers, a
// periodic Sync and a structural Validate all race on one index. Run
// under -race in CI; correctness here means no detector report, no
// structural invariant violation, and every acknowledged insert
// retrievable at the end.

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func stressIndex(t *testing.T, backend string) *Index {
	t.Helper()
	opts := Options{
		Dims:         2,
		PageCapacity: 8,
	}
	switch backend {
	case "mem":
		ix, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	case "file":
		ix, err := Create(filepath.Join(t.TempDir(), "stress.bmeh"), opts)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	default:
		t.Fatalf("unknown backend %q", backend)
		return nil
	}
}

func TestParallelStress(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			ix := stressIndex(t, backend)
			defer ix.Close()

			const (
				writers      = 2
				readers      = 4
				perWriter    = 400
				keySpaceSkip = 1 << 20 // disjoint key ranges per writer
			)
			// Preload so readers have something to find from the start.
			for i := 0; i < 200; i++ {
				if err := ix.Insert(benchKey(uint64(i)), uint64(i)); err != nil {
					t.Fatal(err)
				}
			}

			var wg, writerWG sync.WaitGroup
			errs := make(chan error, writers+readers+2)
			stop := make(chan struct{})

			// Writers: insert a private key range, deleting every third key
			// again, syncing occasionally from inside the writer too.
			for w := 0; w < writers; w++ {
				wg.Add(1)
				writerWG.Add(1)
				go func(w int) {
					defer wg.Done()
					defer writerWG.Done()
					base := uint64((w + 1) * keySpaceSkip)
					for i := 0; i < perWriter; i++ {
						id := base + uint64(i)
						if err := ix.Insert(benchKey(id), id); err != nil {
							errs <- fmt.Errorf("writer %d insert %d: %w", w, i, err)
							return
						}
						if i%3 == 2 {
							if _, err := ix.Delete(benchKey(base + uint64(i-2))); err != nil {
								errs <- fmt.Errorf("writer %d delete %d: %w", w, i-2, err)
								return
							}
						}
						if i%64 == 63 {
							if err := ix.Sync(); err != nil {
								errs <- fmt.Errorf("writer %d sync: %w", w, err)
								return
							}
						}
					}
				}(w)
			}

			// Readers: hammer Gets over the preloaded range and run the
			// occasional box query; values must always be consistent.
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					i := uint64(r)
					for {
						select {
						case <-stop:
							return
						default:
						}
						i++
						id := mix64(i) % 200
						v, ok, err := ix.Get(benchKey(id))
						if err != nil {
							errs <- fmt.Errorf("reader %d get: %w", r, err)
							return
						}
						if ok && v != id {
							errs <- fmt.Errorf("reader %d: key %d returned value %d", r, id, v)
							return
						}
						if i%512 == 0 {
							hi := ix.MaxComponent()
							if err := ix.Range(Key{0, 0}, Key{hi, hi}, func(Key, uint64) bool { return true }); err != nil {
								errs <- fmt.Errorf("reader %d range: %w", r, err)
								return
							}
						}
					}
				}(r)
			}

			// Syncer: periodic Syncs concurrent with everything else.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					case <-time.After(500 * time.Microsecond):
						if err := ix.Sync(); err != nil {
							errs <- fmt.Errorf("syncer: %w", err)
							return
						}
					}
				}
			}()

			// Validator: structural invariants must hold at every quiescent
			// point a read lock can observe.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					case <-time.After(5 * time.Millisecond):
						if err := ix.Validate(); err != nil {
							errs <- fmt.Errorf("validate: %w", err)
							return
						}
					}
				}
			}()

			// Writers are the finite goroutines: once they drain (or bail
			// with an error), wind down the background loops.
			go func() { writerWG.Wait(); close(stop) }()
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(2 * time.Minute):
				t.Fatal("stress test wedged")
			}
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			// Post-conditions: every acknowledged key present, structure valid.
			if err := ix.Validate(); err != nil {
				t.Fatal(err)
			}
			for w := 0; w < writers; w++ {
				base := uint64((w + 1) * keySpaceSkip)
				for i := 0; i < perWriter; i++ {
					id := base + uint64(i)
					deleted := i%3 == 0 && i+2 < perWriter
					v, ok, err := ix.Get(benchKey(id))
					if err != nil {
						t.Fatal(err)
					}
					if deleted && ok {
						t.Fatalf("writer %d key %d: deleted key resurrected", w, i)
					}
					if !deleted && (!ok || v != id) {
						t.Fatalf("writer %d key %d: lost (ok=%v v=%d)", w, i, ok, v)
					}
				}
			}
			if err := ix.Sync(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
