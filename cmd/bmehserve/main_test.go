package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"bmeh"
	"bmeh/client"
	"bmeh/internal/serve"
)

// startDaemon runs runServer in a goroutine and returns the bound
// address, the signal channel that stops it, and a wait func returning
// runServer's error plus everything it logged.
func startDaemon(t *testing.T, cfg serve.Config) (addr string, sig chan os.Signal, wait func() (error, string)) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	sig = make(chan os.Signal, 2)
	addrc := make(chan net.Addr, 1)
	var (
		log  bytes.Buffer
		logm sync.Mutex
	)
	errc := make(chan error, 1)
	go func() {
		errc <- serve.Run(cfg, sig, func(a net.Addr) { addrc <- a }, syncWriter{&log, &logm})
	}()
	select {
	case a := <-addrc:
		addr = a.String()
	case err := <-errc:
		t.Fatalf("daemon exited before listening: %v\nlog: %s", err, log.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never came up")
	}
	return addr, sig, func() (error, string) {
		select {
		case err := <-errc:
			close(sig)
			logm.Lock()
			defer logm.Unlock()
			return err, log.String()
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not exit")
			return nil, ""
		}
	}
}

type syncWriter struct {
	w  *bytes.Buffer
	mu *sync.Mutex
}

func (s syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestDaemonRestart: run the daemon on a file-backed index, write
// through the network, SIGTERM it, restart on the same file, and verify
// the second run reports a clean shutdown (zero WAL replay) and serves
// the data back.
func TestDaemonRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "served.bmeh")
	cfg := serve.Config{
		IndexPath: path, Create: true,
		Dims: 2, Capacity: 16,
		SyncInterval: 200 * time.Microsecond, SyncBatch: 64,
	}

	addr, sig, wait := startDaemon(t, cfg)
	cl, err := client.Dial(addr, client.Options{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	kvs := make([]bmeh.KV, n)
	for i := range kvs {
		kvs[i] = bmeh.KV{Key: bmeh.Key{uint64(i), uint64(i % 37)}, Value: uint64(i * 7)}
	}
	ins, err := cl.Batch(kvs)
	if err != nil || ins != n {
		t.Fatalf("batch: inserted=%d err=%v", ins, err)
	}
	if err := cl.Sync(); err != nil {
		t.Fatal(err)
	}
	cl.Close()

	sig <- syscall.SIGTERM
	if err, log := wait(); err != nil {
		t.Fatalf("first run: %v\nlog: %s", err, log)
	}

	// Second run must see a clean WAL.
	addr2, sig2, wait2 := startDaemon(t, cfg)
	cl2, err := client.Dial(addr2, client.Options{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, n / 2, n - 1} {
		v, ok, err := cl2.Get(bmeh.Key{uint64(i), uint64(i % 37)})
		if err != nil || !ok || v != uint64(i*7) {
			t.Fatalf("get %d after restart: %d %v %v", i, v, ok, err)
		}
	}
	st, err := cl2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != n {
		t.Fatalf("restarted daemon serves %d records, want %d", st.Records, n)
	}
	cl2.Close()
	sig2 <- syscall.SIGINT
	err2, log2 := wait2()
	if err2 != nil {
		t.Fatalf("second run: %v\nlog: %s", err2, log2)
	}
	if !strings.Contains(log2, "clean shutdown, no WAL replay") {
		t.Fatalf("second run did not report a clean shutdown:\n%s", log2)
	}
	if !strings.Contains(log2, "drained cleanly") {
		t.Fatalf("second run did not drain cleanly:\n%s", log2)
	}
}

// TestDaemonMem: the -mem mode comes up empty and serves.
func TestDaemonMem(t *testing.T) {
	addr, sig, wait := startDaemon(t, serve.Config{Mem: true, Dims: 3, Capacity: 8})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(bmeh.Key{1, 2, 3}, 9); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cl.Get(bmeh.Key{1, 2, 3})
	if err != nil || !ok || v != 9 {
		t.Fatalf("mem get: %d %v %v", v, ok, err)
	}
	cl.Close()
	sig <- syscall.SIGTERM
	if err, log := wait(); err != nil {
		t.Fatalf("mem run: %v\nlog: %s", err, log)
	}
}

// TestDaemonBadConfig: neither -index nor -mem is an error, not a panic.
func TestDaemonBadConfig(t *testing.T) {
	sig := make(chan os.Signal, 1)
	if err := serve.Run(serve.Config{Addr: "127.0.0.1:0", Dims: 2}, sig, nil, &bytes.Buffer{}); err == nil {
		t.Fatal("config without a store accepted")
	}
}
