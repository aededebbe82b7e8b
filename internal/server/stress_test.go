package server_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"bmeh"
	"bmeh/client"
	"bmeh/internal/server"
)

// TestMultiClientStress hammers one server with 16 independent clients
// mixing GET/PUT/RANGE (and a few DELs), on both backends. Run under
// -race in CI, it is the serving layer's data-race exercise: every
// connection's reader/writer pair, the shared write queue, and the
// latch-crabbed index all interleave.
func TestMultiClientStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			ix := newIndex(t, backend)
			defer ix.Close()
			_, addr := startServer(t, ix, server.Config{})

			const (
				clients = 16
				opsEach = 300
			)
			keyOf := func(c, i int) bmeh.Key {
				return bmeh.Key{uint64(c*100000 + i), uint64(i % 251)}
			}
			var wg sync.WaitGroup
			errc := make(chan error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					cl, err := client.Dial(addr, client.Options{PoolSize: 2})
					if err != nil {
						errc <- err
						return
					}
					defer cl.Close()
					inserted := 0
					for i := 0; i < opsEach; i++ {
						switch i % 5 {
						case 0, 1: // PUT a fresh key
							if err := cl.Put(keyOf(c, i), uint64(i)); err != nil {
								errc <- fmt.Errorf("client %d put %d: %w", c, i, err)
								return
							}
							inserted++
						case 2: // GET a key this client already wrote
							if inserted > 0 {
								j := (i / 5 * 5) % i
								v, ok, err := cl.Get(keyOf(c, j))
								if err != nil {
									errc <- fmt.Errorf("client %d get %d: %w", c, j, err)
									return
								}
								if ok && v != uint64(j) {
									errc <- fmt.Errorf("client %d get %d: wrong value %d", c, j, v)
									return
								}
							}
						case 3: // RANGE over this client's stripe
							_, _, err := cl.Range(
								bmeh.Key{uint64(c * 100000), 0},
								bmeh.Key{uint64(c*100000 + opsEach), 250},
								64,
							)
							if err != nil {
								errc <- fmt.Errorf("client %d range: %w", c, err)
								return
							}
						case 4: // occasionally DEL then re-PUT
							if i%25 == 4 {
								k := keyOf(c, i-4)
								if _, err := cl.Delete(k); err != nil {
									errc <- fmt.Errorf("client %d del: %w", c, err)
									return
								}
								if err := cl.Put(k, uint64(i-4)); err != nil && !errors.Is(err, bmeh.ErrDuplicate) {
									errc <- fmt.Errorf("client %d re-put: %w", c, err)
									return
								}
							}
						}
					}
					// Every key this client PUT (and re-PUT after DEL) must
					// be present with its value.
					for i := 0; i < opsEach; i++ {
						if i%5 == 0 || i%5 == 1 {
							v, ok, err := cl.Get(keyOf(c, i))
							if err != nil || !ok || v != uint64(i) {
								errc <- fmt.Errorf("client %d verify %d: %d %v %v", c, i, v, ok, err)
								return
							}
						}
					}
					errc <- nil
				}(c)
			}
			wg.Wait()
			for c := 0; c < clients; c++ {
				if err := <-errc; err != nil {
					t.Fatal(err)
				}
			}
			if err := ix.Validate(); err != nil {
				t.Fatalf("index invariants after stress: %v", err)
			}
		})
	}
}
