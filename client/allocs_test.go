//go:build !race

// The race detector randomly drops sync.Pool entries, so allocation
// counts are checked in normal builds only.

package client_test

import (
	"testing"

	"bmeh"
	"bmeh/client"
	"bmeh/internal/latch"
)

// TestGetAllocs bounds the process-wide allocations of one Client.Get
// against an in-process server: client and server together.
func TestGetAllocs(t *testing.T) {
	if latch.Debug {
		t.Skip("latchdebug's latch-order tracking allocates")
	}
	_, ix, addr, _ := newServer(t)
	if err := ix.Insert(bmeh.Key{1, 2}, 3); err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(addr, client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	get := func() {
		if v, ok, err := cl.Get(bmeh.Key{1, 2}); err != nil || !ok || v != 3 {
			t.Fatalf("get: %d %v %v", v, ok, err)
		}
	}
	for i := 0; i < 100; i++ {
		get()
	}
	if allocs := testing.AllocsPerRun(1000, get); allocs > 8 {
		t.Fatalf("Client.Get: %.1f allocations per call, want ≤ 8", allocs)
	}
}
