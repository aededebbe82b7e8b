// Package serve runs a wire-protocol index server — the whole lifecycle
// of one bmehserve process (open/create or follow, listen, drain on
// signal) behind a plain function call, so the daemon binary, the
// cluster launcher and in-process tests all share one implementation.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"bmeh"
	"bmeh/internal/repl"
	"bmeh/internal/server"
)

// Config carries everything a server process parses from flags. The zero
// value is not runnable — Addr plus one of Mem/IndexPath is required.
type Config struct {
	Addr      string
	IndexPath string // file-backed store; "" means in-memory
	Create    bool   // create IndexPath if absent
	Mem       bool
	Dims      int // new indexes only
	Capacity  int // new indexes only
	Cache     int // ignored: the byte-level page pool it sized is retired
	// SyncInterval and SyncBatch are ignored: the server's write queue
	// batches commits with a fixed window and cap, and has no knobs.
	SyncInterval time.Duration
	SyncBatch    int
	DrainTimeout time.Duration // graceful-shutdown budget; zero means 30 s
	ReplicaOf    string        // primary address; "" means this node is a primary
	COW          bool          // copy-on-write writers + MVCC snapshot reads

	// SnapMaxPinAge force-releases snapshot pins older than this (COW
	// only; zero = never). It protects a long-lived server from clients
	// that open a backup or scatter-gather snapshot and vanish.
	SnapMaxPinAge time.Duration
}

// defaultDrainTimeout is the drain budget when Config.DrainTimeout is
// zero. A zero budget would expire before Shutdown looked at a single
// connection, turning every drain into an abort.
const defaultDrainTimeout = 30 * time.Second

// Run opens/creates the index, serves cfg.Addr until a value arrives on
// sig, then drains and closes. ready (optional) is called with the bound
// address once the listener is up — tests and the cluster launcher use
// it to learn the port and to coordinate shutdown.
func Run(cfg Config, sig <-chan os.Signal, ready func(net.Addr), logw io.Writer) error {
	if cfg.ReplicaOf != "" {
		// A replica's store is opened by bmeh.NewReplicaTarget, which has
		// one write mode; serving it anyway would hand the operator
		// something other than what was asked for.
		if cfg.COW {
			return errors.New("-replica-of does not support -cow")
		}
		return runReplica(cfg, sig, ready, logw)
	}
	opts := bmeh.Options{
		Dims:              cfg.Dims,
		PageCapacity:      cfg.Capacity,
		SnapshotMaxPinAge: cfg.SnapMaxPinAge,
	}
	if cfg.COW {
		opts.WriteMode = bmeh.WriteModeCOW
	}
	var (
		ix  *bmeh.Index
		err error
	)
	switch {
	case cfg.Mem:
		ix, err = bmeh.New(opts)
	case cfg.IndexPath == "":
		return errors.New("either -index or -mem is required")
	default:
		ix, err = bmeh.OpenWithOptions(cfg.IndexPath, opts)
		if cfg.Create && errors.Is(err, os.ErrNotExist) {
			ix, err = bmeh.Create(cfg.IndexPath, opts)
		}
	}
	if err != nil {
		return err
	}
	defer ix.Close()
	if !cfg.Mem {
		rec := ix.Recovery()
		if rec.CleanShutdown() {
			fmt.Fprintf(logw, "bmehserve: %s: clean shutdown, no WAL replay\n", cfg.IndexPath)
		} else {
			fmt.Fprintf(logw, "bmehserve: %s: recovered %d WAL commit(s)\n", cfg.IndexPath, rec.ReplayedCommits)
		}
	}

	// A file-backed primary publishes its commit stream so replicas can
	// subscribe; an in-memory index has no commit sequence to ship.
	var hub *repl.Hub
	if !cfg.Mem {
		hub = repl.NewHub(ix, repl.HubOptions{})
		if err := ix.SetReplPublisher(hub.Publish); err != nil {
			return err
		}
		defer func() {
			ix.SetReplPublisher(nil)
			hub.Close()
		}()
	}
	srv := server.New(ix, server.Config{
		Hub:  hub,
		Logf: func(format string, args ...any) { fmt.Fprintf(logw, "bmehserve: "+format+"\n", args...) },
	})
	banner := fmt.Sprintf("serving %d record(s), %d dim(s)", ix.Len(), ix.Options().Dims)
	return serveUntilSignal(srv, cfg, sig, ready, logw, banner, "")
}

// runReplica follows a primary: seed (or reopen) the local store, apply
// the replication stream, and serve reads only. Drain order on signal:
// stop serving clients, stop the replication link, close the store —
// so the last applied batch is durable and the WAL left clean.
func runReplica(cfg Config, sig <-chan os.Signal, ready func(net.Addr), logw io.Writer) error {
	if cfg.Mem {
		return errors.New("-replica-of needs a file-backed store, not -mem")
	}
	if cfg.IndexPath == "" {
		return errors.New("-replica-of requires -index")
	}
	target, err := bmeh.NewReplicaTarget(cfg.IndexPath)
	if err != nil {
		return err
	}
	defer target.Close()
	rep := repl.NewReplica(target, cfg.ReplicaOf, repl.ReplicaOptions{
		Logf: func(format string, args ...any) { fmt.Fprintf(logw, "bmehserve: "+format+"\n", args...) },
	})
	rep.Start()
	defer rep.Close()

	// A replica with no local file yet cannot serve until the first
	// snapshot lands; one with a file serves immediately and catches up.
	select {
	case <-target.Ready():
	case s := <-sig:
		fmt.Fprintf(logw, "bmehserve: %v before initial snapshot, exiting\n", s)
		return nil
	}
	ix := target.Index()
	fmt.Fprintf(logw, "bmehserve: replica of %s at seq %d, %d record(s)\n",
		cfg.ReplicaOf, ix.ReplCommitSeq(), ix.Len())

	srv := server.New(ix, server.Config{
		ReadOnly: true,
		ReplicaStatus: func() (primarySeq, appliedSeq uint64, connected bool) {
			st := rep.Status()
			return st.PrimarySeq, st.AppliedSeq, st.Connected
		},
		Logf: func(format string, args ...any) { fmt.Fprintf(logw, "bmehserve: "+format+"\n", args...) },
	})
	return serveUntilSignal(srv, cfg, sig, ready, logw, "replica serving", "replica ")
}

// serveUntilSignal is the tail both roles share: listen on cfg.Addr, log
// banner with the bound address and report it to ready, serve until a
// value arrives on sig, then drain within cfg.DrainTimeout. A second
// signal aborts the drain. role prefixes the drain log lines.
func serveUntilSignal(srv *server.Server, cfg Config, sig <-chan os.Signal, ready func(net.Addr), logw io.Writer, banner, role string) error {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "bmehserve: %s on %s\n", banner, ln.Addr())
	if ready != nil {
		ready(ln.Addr())
	}
	timeout := cfg.DrainTimeout
	if timeout == 0 {
		timeout = defaultDrainTimeout
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case s := <-sig:
		fmt.Fprintf(logw, "bmehserve: %v: draining %s(timeout %v)\n", s, role, timeout)
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		go func() {
			if s, ok := <-sig; ok {
				fmt.Fprintf(logw, "bmehserve: %v: aborting drain\n", s)
				cancel()
			}
		}()
		if err := srv.Shutdown(ctx); err != nil {
			<-serveErr
			return fmt.Errorf("drain: %w", err)
		}
		if err := <-serveErr; err != nil && !errors.Is(err, server.ErrServerClosed) {
			return err
		}
		fmt.Fprintf(logw, "bmehserve: %sdrained cleanly\n", role)
		return nil
	case err := <-serveErr:
		return err
	}
}
