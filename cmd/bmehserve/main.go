// Command bmehserve exposes a BMEH-tree index over the binary wire
// protocol (package bmeh/internal/wire). It serves either a file-backed
// index (-index, crash-consistent via the write-ahead log) or an
// in-memory one (-mem, for benchmarking and tests).
//
// SIGINT or SIGTERM starts a graceful drain: the listener closes, every
// request already received is answered, the coalescer flushes, and the
// index Syncs — so the next open replays nothing from the WAL and
// reports a clean shutdown. A second signal aborts the drain.
//
// A file-backed server is a replication primary: replicas subscribe
// over the same port and receive every committed batch. Started with
// -replica-of, the process is instead a read replica: it follows the
// given primary (seeding itself with a snapshot when its local file
// does not exist yet), serves reads, and refuses writes.
//
// The process logic lives in bmeh/internal/serve so the cluster
// launcher (cmd/bmehcluster) and tests can run the identical server
// in-process; this file only parses flags.
//
// Usage:
//
//	bmehserve -index cities.bmeh -addr :7707
//	bmehserve -mem -dims 3 -addr 127.0.0.1:0
//	bmehserve -index replica.bmeh -replica-of primary:7707 -addr :7708
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bmeh/internal/serve"
)

func main() {
	var cfg serve.Config
	flag.StringVar(&cfg.Addr, "addr", ":7707", "listen address")
	flag.StringVar(&cfg.IndexPath, "index", "", "file-backed index to serve")
	flag.BoolVar(&cfg.Create, "create", false, "create -index if it does not exist")
	flag.BoolVar(&cfg.Mem, "mem", false, "serve a fresh in-memory index instead of a file")
	flag.IntVar(&cfg.Dims, "dims", 2, "key dimensions (new indexes only)")
	flag.IntVar(&cfg.Capacity, "b", 32, "data page capacity (new indexes only)")
	flag.DurationVar(&cfg.SyncInterval, "sync-interval", 200*time.Microsecond, "group-commit window (0 = commit-in-flight coalescing only)")
	flag.IntVar(&cfg.SyncBatch, "sync-batch", 64, "group-commit max batch (0 = unbounded)")
	flag.IntVar(&cfg.CoalesceMax, "coalesce-max", 0, "max PUTs folded into one InsertBatch (0 = server default)")
	flag.DurationVar(&cfg.CoalesceWait, "coalesce-wait", 0, "how long to hold a non-full PUT batch open (0 = don't wait)")
	flag.DurationVar(&cfg.DrainTimeout, "drain-timeout", 30*time.Second, "graceful shutdown budget")
	flag.StringVar(&cfg.ReplicaOf, "replica-of", "", "follow this primary (host:port) as a read replica")
	flag.BoolVar(&cfg.COW, "cow", false, "copy-on-write writes: RANGE reads run against MVCC snapshots")
	flag.DurationVar(&cfg.SnapMaxPinAge, "snap-max-pin-age", 0, "force-release snapshot pins older than this (-cow only; 0 = never)")
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if err := serve.Run(cfg, sig, nil, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bmehserve:", err)
		os.Exit(1)
	}
}
