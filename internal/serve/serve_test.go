package serve

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
	"bmeh/internal/pagestore"
)

// syncLog is the logw of a running server: Run, the connection
// goroutines' Logf and the abort watcher all write to it.
type syncLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *syncLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *syncLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// node is one serve.Run in a goroutine.
type node struct {
	addr string
	sig  chan os.Signal
	done chan error
	log  *syncLog
}

// start runs cfg on a loopback port and waits until it listens.
func start(t *testing.T, cfg Config) *node {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	n := &node{sig: make(chan os.Signal, 2), done: make(chan error, 1), log: &syncLog{}}
	ready := make(chan net.Addr, 1)
	go func() { n.done <- Run(cfg, n.sig, func(a net.Addr) { ready <- a }, n.log) }()
	select {
	case a := <-ready:
		n.addr = a.String()
	case err := <-n.done:
		t.Fatalf("Run returned before listening: %v\n%s", err, n.log)
	case <-time.After(30 * time.Second):
		t.Fatalf("Run not listening after 30s\n%s", n.log)
	}
	return n
}

// stop signals the node and returns what Run returned.
func (n *node) stop(t *testing.T) error {
	t.Helper()
	n.sig <- syscall.SIGTERM
	select {
	case err := <-n.done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatalf("Run still draining after 30s\n%s", n.log)
		return nil
	}
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	cl, err := client.Dial(addr, client.Options{PoolSize: 1, RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func wantLog(t *testing.T, log *syncLog, subs ...string) {
	t.Helper()
	for _, s := range subs {
		if !strings.Contains(log.String(), s) {
			t.Errorf("log lacks %q:\n%s", s, log)
		}
	}
}

// TestPrimaryLifecycle: create, drain, reopen clean, then reopen over a
// WAL that still holds a committed batch. DrainTimeout is left zero
// throughout, and the first drain happens with a client connection still
// open — so the drain has real work to wait for, which a budget that
// expires at once would abort.
func TestPrimaryLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ix.bmeh")
	cfg := Config{IndexPath: path, Create: true, Dims: 2, Capacity: 8}

	n := start(t, cfg)
	cl := dial(t, n.addr)
	for i := uint64(0); i < 50; i++ {
		if err := cl.Put(bmeh.Key{i, i * 7}, i); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := n.stop(t); err != nil {
		t.Fatalf("zero DrainTimeout: %v\n%s", err, n.log)
	}
	wantLog(t, n.log, "clean shutdown, no WAL replay", "serving 0 record(s), 2 dim(s)",
		"draining (timeout 30s)", "drained cleanly")

	cfg.Create = false
	n = start(t, cfg)
	if v, ok, err := dial(t, n.addr).Get(bmeh.Key{49, 49 * 7}); err != nil || !ok || v != 49 {
		t.Fatalf("get after reopen: v=%d ok=%v err=%v", v, ok, err)
	}
	if err := n.stop(t); err != nil {
		t.Fatal(err)
	}
	wantLog(t, n.log, "clean shutdown, no WAL replay", "serving 50 record(s)", "drained cleanly")

	// Leave the store as a crash between WAL fsync and checkpoint would:
	// one committed batch (page 1 rewritten with its own image) in the log.
	fd, err := pagestore.OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	page1, kind1, err := fd.RawPage(1)
	if err != nil {
		t.Fatal(err)
	}
	page1 = append([]byte(nil), page1...)
	pageSize := fd.PageSize()
	if err := fd.Close(); err != nil {
		t.Fatal(err)
	}
	mf := pagestore.NewMemFile()
	w, err := pagestore.CreateWAL(mf, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit([]pagestore.Frame{{ID: 1, Kind: kind1, Data: page1}}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".wal", mf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	n = start(t, cfg)
	if err := n.stop(t); err != nil {
		t.Fatal(err)
	}
	wantLog(t, n.log, "recovered 1 WAL commit(s)", "serving 50 record(s)")
	if strings.Contains(n.log.String(), "clean shutdown") {
		t.Errorf("replayed open also reported a clean shutdown:\n%s", n.log)
	}
}

// TestRefusedConfigs: combinations Run cannot honour fail before anything
// is opened or bound, instead of serving something else.
func TestRefusedConfigs(t *testing.T) {
	for name, cfg := range map[string]Config{
		"replica cow": {ReplicaOf: "127.0.0.1:1", COW: true},
		"replica mem": {ReplicaOf: "127.0.0.1:1", Mem: true},
	} {
		cfg.Addr = "127.0.0.1:0"
		cfg.IndexPath = filepath.Join(t.TempDir(), "ix.bmeh")
		sig := make(chan os.Signal, 1)
		sig <- syscall.SIGTERM // a config wrongly accepted still returns
		err := Run(cfg, sig, func(a net.Addr) { t.Errorf("%s: listening on %v", name, a) }, &syncLog{})
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, serr := os.Stat(cfg.IndexPath); serr == nil {
			t.Errorf("%s: refused config still created %s", name, cfg.IndexPath)
		}
	}
}

// TestReplicaSignalBeforeSnapshot: a replica with no local file and an
// unreachable primary has nothing to serve; a signal ends it with nil.
func TestReplicaSignalBeforeSnapshot(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	log := &syncLog{}
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- Run(Config{
			Addr: "127.0.0.1:0", IndexPath: filepath.Join(t.TempDir(), "r.bmeh"), ReplicaOf: dead,
		}, sig, func(a net.Addr) { t.Errorf("replica listening on %v before any snapshot", a) }, log)
	}()
	sig <- syscall.SIGINT
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v\n%s", err, log)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("replica ignored the signal\n%s", log)
	}
	wantLog(t, log, "before initial snapshot")
}
