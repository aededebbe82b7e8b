package main

// Process-level chaos matrix: real bmehserve processes (the test binary
// re-execs itself) joined by real TCP, with kill -9 landing mid
// group-commit. In every scenario the replica must converge to the
// primary's exact commit sequence, both stores must pass Fsck, and the
// two files must be byte-for-byte identical after clean shutdowns.

import (
	"bytes"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"bmeh"
	"bmeh/client"
)

func TestMain(m *testing.M) {
	// Child mode: behave as the real bmehserve binary.
	if os.Getenv("BMEHSERVE_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// freePort grabs an ephemeral port and releases it for a child to bind.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// proc is one bmehserve child process. done is closed after Wait
// returns (exit error in err), so kill and term are safely re-entrant.
type proc struct {
	t    *testing.T
	cmd  *exec.Cmd
	log  *bytes.Buffer
	done chan struct{}
	err  error
	addr string
}

// startProc re-execs the test binary as bmehserve with the given flags
// and waits until the node answers STATS.
func startProc(t *testing.T, addr string, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(os.Args[0], append(args, "-addr", addr)...)
	cmd.Env = append(os.Environ(), "BMEHSERVE_CHILD=1")
	log := &bytes.Buffer{}
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{t: t, cmd: cmd, log: log, done: make(chan struct{}), addr: addr}
	go func() { p.err = cmd.Wait(); close(p.done) }()
	t.Cleanup(func() { p.kill() })

	deadline := time.Now().Add(30 * time.Second)
	for {
		cl, err := client.Dial(addr, client.Options{
			PoolSize: 1, DialTimeout: time.Second, RequestTimeout: 2 * time.Second,
		})
		if err == nil {
			_, serr := cl.Stats()
			cl.Close()
			if serr == nil {
				return p
			}
			err = serr
		}
		select {
		case <-p.done:
			t.Fatalf("child exited during startup: %v (wait: %v)\nlog: %s", err, p.err, log.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("child never became ready: %v\nlog: %s", err, log.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// kill delivers SIGKILL — no drain, no WAL reset, exactly the crash the
// recovery path exists for.
func (p *proc) kill() {
	select {
	case <-p.done:
		return // already gone
	default:
	}
	p.cmd.Process.Kill()
	<-p.done
}

// term drains the child with SIGTERM and requires a clean exit.
func (p *proc) term() {
	p.t.Helper()
	select {
	case <-p.done:
		p.t.Fatalf("child already exited\nlog: %s", p.log.String())
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		if p.err != nil {
			p.t.Fatalf("child exited uncleanly: %v\nlog: %s", p.err, p.log.String())
		}
	case <-time.After(30 * time.Second):
		p.t.Fatalf("child ignored SIGTERM\nlog: %s", p.log.String())
	}
}

// nodeSeq asks one node directly for its commit sequence.
func nodeSeq(t *testing.T, addr string) uint64 {
	t.Helper()
	cl, err := client.Dial(addr, client.Options{PoolSize: 1, RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st.CommitSeq
}

// awaitNodeSeq polls addr until its commit sequence reaches want.
func awaitNodeSeq(t *testing.T, addr string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if got := nodeSeq(t, addr); got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %s stuck below seq %d", addr, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// verifyFiles requires both stores Fsck-clean and byte-identical. Call
// only after both processes have exited.
func verifyFiles(t *testing.T, ppath, rpath string) {
	t.Helper()
	for _, path := range []string{ppath, rpath} {
		rep, err := bmeh.Fsck(path)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("fsck %s: %v", path, rep.Problems)
		}
	}
	pb, err := os.ReadFile(ppath)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := os.ReadFile(rpath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb, rb) {
		t.Fatalf("stores diverged: primary %d bytes, replica %d bytes", len(pb), len(rb))
	}
}

func primaryArgs(path string) []string {
	return []string{
		"-index", path, "-create",
		"-dims", "2", "-b", "16",
		"-sync-interval", "200us", "-sync-batch", "64",
	}
}

// TestChaosKillPrimary: kill -9 the primary mid group-commit while GETs
// stream against the cluster client. Reads must see zero errors (the
// replica carries them), the restarted primary must recover and resume
// shipping, and the matrix ends with replica-then-primary shutdown.
func TestChaosKillPrimary(t *testing.T) {
	if testing.Short() {
		t.Skip("process chaos test")
	}
	dir := t.TempDir()
	ppath := filepath.Join(dir, "primary.bmeh")
	rpath := filepath.Join(dir, "replica.bmeh")
	paddr, raddr := freePort(t), freePort(t)

	primary := startProc(t, paddr, primaryArgs(ppath)...)
	replica := startProc(t, raddr, "-index", rpath, "-replica-of", paddr)

	cl, err := client.DialCluster(paddr, []string{raddr}, client.Options{
		PoolSize: 2, Retries: 5, RequestTimeout: 5 * time.Second,
		RedialBackoff: 20 * time.Millisecond, RedialBackoffMax: 200 * time.Millisecond,
		HealthInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Writers hammer so the SIGKILL lands with commits in flight; their
	// errors while the primary is dark are expected (and typed).
	var puts, putErrs atomic.Int64
	stopWrite := make(chan struct{})
	writeDone := make(chan struct{})
	go func() {
		defer close(writeDone)
		for i := 0; ; i++ {
			select {
			case <-stopWrite:
				return
			default:
			}
			if err := cl.Put(bmeh.Key{uint64(i), uint64(i % 97)}, uint64(i)); err == nil {
				puts.Add(1)
			} else {
				putErrs.Add(1)
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()
	// Reads must never fail: the replica serves them across the outage.
	var gets, getErrs atomic.Int64
	var firstGetErr atomic.Value
	stopRead := make(chan struct{})
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		for i := 0; ; i++ {
			select {
			case <-stopRead:
				return
			default:
			}
			if _, _, err := cl.Get(bmeh.Key{uint64(i % 100), uint64(i % 97)}); err != nil {
				getErrs.Add(1)
				firstGetErr.CompareAndSwap(nil, err)
			}
			gets.Add(1)
		}
	}()

	time.Sleep(500 * time.Millisecond) // steady state, commits flowing
	primary.kill()
	time.Sleep(500 * time.Millisecond) // primary dark, reads on replica
	primary = startProc(t, paddr, primaryArgs(ppath)...)
	time.Sleep(500 * time.Millisecond) // recovered primary takes writes again
	close(stopWrite)
	<-writeDone
	close(stopRead)
	<-readDone

	if gets.Load() == 0 || getErrs.Load() != 0 {
		t.Fatalf("GET availability: %d gets, %d errors (first: %v), want zero errors",
			gets.Load(), getErrs.Load(), firstGetErr.Load())
	}
	if puts.Load() == 0 {
		t.Fatal("no puts succeeded")
	}
	if putErrs.Load() == 0 {
		t.Fatal("no put failed across a kill -9: the kill missed the load window")
	}

	// Converge, then shut down replica first, primary second. The first
	// syncs may still hit the primary endpoint's redial backoff gate.
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := cl.Sync()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sync after recovery: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	awaitNodeSeq(t, raddr, nodeSeq(t, paddr))
	replica.term()
	primary.term()
	verifyFiles(t, ppath, rpath)
}

// TestChaosKillReplica: kill -9 the replica mid-stream, write on, then
// restart it — it must reopen its own file, catch back up, and converge.
// Shutdown order here is primary first, replica second.
func TestChaosKillReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("process chaos test")
	}
	dir := t.TempDir()
	ppath := filepath.Join(dir, "primary.bmeh")
	rpath := filepath.Join(dir, "replica.bmeh")
	paddr, raddr := freePort(t), freePort(t)

	primary := startProc(t, paddr, primaryArgs(ppath)...)
	replica := startProc(t, raddr, "-index", rpath, "-replica-of", paddr)

	cl, err := client.Dial(paddr, client.Options{PoolSize: 2, RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	put := func(lo, hi int) {
		t.Helper()
		kvs := make([]bmeh.KV, 0, hi-lo)
		for i := lo; i < hi; i++ {
			kvs = append(kvs, bmeh.KV{Key: bmeh.Key{uint64(i), uint64(i % 89)}, Value: uint64(i)})
		}
		if ins, err := cl.Batch(kvs); err != nil || ins != len(kvs) {
			t.Fatalf("batch: inserted=%d err=%v", ins, err)
		}
		if err := cl.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	put(0, 500)
	awaitNodeSeq(t, raddr, nodeSeq(t, paddr))
	replica.kill()
	put(500, 1500) // committed while the replica is a corpse
	replica = startProc(t, raddr, "-index", rpath, "-replica-of", paddr)
	put(1500, 2000)
	awaitNodeSeq(t, raddr, nodeSeq(t, paddr))

	// Spot-check reads directly against the rejoined replica.
	rcl, err := client.Dial(raddr, client.Options{PoolSize: 1, RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 499, 500, 1499, 1999} {
		v, ok, err := rcl.Get(bmeh.Key{uint64(i), uint64(i % 89)})
		if err != nil || !ok || v != uint64(i) {
			t.Fatalf("replica get %d: v=%d ok=%v err=%v", i, v, ok, err)
		}
	}
	// And a write to the replica bounces with the typed error.
	if err := rcl.Put(bmeh.Key{1, 1}, 1); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("put to replica: %v, want ErrReadOnly", err)
	}
	rcl.Close()

	primary.term()
	replica.term()
	verifyFiles(t, ppath, rpath)
}
