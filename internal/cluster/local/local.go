// Package local runs an N-shard × M-replica BMEH cluster inside one
// process: every shard primary is a file-backed COW index behind a wire
// server on a loopback port, every replica follows its primary over the
// replication stream, and the shard map is pushed to each node with the
// SHARD_MAP_SET wire op — the same control plane a real deployment
// would use. The package also implements the online hot-shard split
// (Split), the controller side of the protocol documented in DESIGN.md.
//
// Tests and benchmarks are the audience: cmd/bmehcluster re-execs real
// bmehserve processes instead, but drives the identical wire protocol.
package local

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bmeh"
	"bmeh/client"
	"bmeh/internal/cluster"
	"bmeh/internal/repl"
	"bmeh/internal/server"
)

// Options configures a local cluster.
type Options struct {
	// Shards is the initial shard count (default 1).
	Shards int
	// Replicas is the read replicas per shard (default 0).
	Replicas int
	// Dims and Capacity size new indexes (defaults 2 and 32).
	Dims     int
	Capacity int
	// Cache is ignored. It sized the retired byte-level page pool; the
	// field stays so existing callers compile.
	Cache int
	// SnapMaxPinAge force-releases abandoned snapshot pins (0 = never).
	SnapMaxPinAge time.Duration
	// Logf receives controller progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (o *Options) defaults() {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Dims <= 0 {
		o.Dims = 2
	}
	if o.Capacity <= 0 {
		o.Capacity = 32
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// node is one server process-equivalent: an index (primary) or replica
// target behind a wire listener.
type node struct {
	addr string
	ln   net.Listener
	srv  *server.Server

	// Primary side.
	ix  *bmeh.Index
	hub *repl.Hub

	// Replica side.
	target *bmeh.ReplicaTarget
	rep    *repl.Replica

	serveErr chan error
}

func (n *node) close() {
	if n.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := n.srv.Shutdown(ctx); err != nil && n.ln != nil {
			n.ln.Close()
		}
		cancel()
		if n.serveErr != nil {
			<-n.serveErr
		}
	}
	if n.rep != nil {
		n.rep.Close()
	}
	if n.hub != nil {
		if n.ix != nil {
			n.ix.SetReplPublisher(nil)
		}
		n.hub.Close()
	}
	if n.target != nil {
		n.target.Close()
	} else if n.ix != nil {
		n.ix.Close()
	}
}

// shard is one partition: a primary and its read replicas.
type shard struct {
	primary  *node
	replicas []*node
}

// Cluster is a running local cluster. Methods are safe for concurrent
// use, but only one Split may run at a time.
type Cluster struct {
	dir  string
	opts Options

	mu     sync.Mutex
	m      *cluster.Map
	shards []*shard
	nextID int // next node directory suffix
}

// Start creates and launches a cluster under dir (one index file per
// node). The initial shard map partitions the pseudo-key space evenly
// (cluster.Uniform) and is pushed to every node before Start returns.
func Start(dir string, opts Options) (*Cluster, error) {
	opts.defaults()
	c := &Cluster{dir: dir, opts: opts}
	for i := 0; i < opts.Shards; i++ {
		sh, err := c.startShard()
		if err != nil {
			c.Close()
			return nil, err
		}
		c.shards = append(c.shards, sh)
	}
	nodes := make([]cluster.Node, len(c.shards))
	for i, sh := range c.shards {
		nodes[i] = c.mapNode(sh)
	}
	m, err := cluster.Uniform(nodes)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.m = m
	if err := c.pushMap(c.m); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func (c *Cluster) mapNode(sh *shard) cluster.Node {
	n := cluster.Node{Primary: sh.primary.addr}
	for _, r := range sh.replicas {
		n.Replicas = append(n.Replicas, r.addr)
	}
	return n
}

// Seeds returns every primary address — what a Router should dial.
func (c *Cluster) Seeds() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	seeds := make([]string, len(c.shards))
	for i, sh := range c.shards {
		seeds[i] = sh.primary.addr
	}
	return seeds
}

// Map returns the current shard map.
func (c *Cluster) Map() *cluster.Map {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Clone()
}

// Shards returns the current shard count.
func (c *Cluster) Shards() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.shards)
}

// Close stops every node. Safe on a partially started cluster.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sh := range c.shards {
		for _, r := range sh.replicas {
			r.close()
		}
		sh.primary.close()
	}
	c.shards = nil
	return nil
}

// indexOptions are the options every primary opens with. COW is
// non-negotiable: the split streams a pinned snapshot and computes its
// median from one, and RANGE under churn wants MVCC reads.
func (c *Cluster) indexOptions() bmeh.Options {
	return bmeh.Options{
		Dims:              c.opts.Dims,
		PageCapacity:      c.opts.Capacity,
		WriteMode:         bmeh.WriteModeCOW,
		SyncPolicy:        bmeh.SyncPolicy{Interval: 200 * time.Microsecond, MaxBatch: 64},
		SnapshotMaxPinAge: c.opts.SnapMaxPinAge,
	}
}

func (c *Cluster) nodePath() string {
	p := filepath.Join(c.dir, fmt.Sprintf("node-%03d.bmeh", c.nextID))
	c.nextID++
	return p
}

// startPrimary opens (or creates) a primary index at path and serves it.
func (c *Cluster) startPrimary(path string) (*node, error) {
	opts := c.indexOptions()
	ix, err := bmeh.OpenWithOptions(path, opts)
	if errors.Is(err, os.ErrNotExist) {
		ix, err = bmeh.Create(path, opts)
	}
	if err != nil {
		return nil, err
	}
	ix.SetSyncPolicy(opts.SyncPolicy)
	hub := repl.NewHub(ix, repl.HubOptions{})
	if err := ix.SetReplPublisher(hub.Publish); err != nil {
		hub.Close()
		ix.Close()
		return nil, err
	}
	n := &node{ix: ix, hub: hub}
	if err := c.listen(n, server.Config{Hub: hub, Logf: c.opts.Logf}); err != nil {
		ix.SetReplPublisher(nil)
		hub.Close()
		ix.Close()
		return nil, err
	}
	return n, nil
}

// startReplica follows primaryAddr with a fresh store at path and waits
// until the initial snapshot has landed, so the node can serve reads.
func (c *Cluster) startReplica(path, primaryAddr string) (*node, error) {
	target, err := bmeh.NewReplicaTarget(path)
	if err != nil {
		return nil, err
	}
	rep := repl.NewReplica(target, primaryAddr, repl.ReplicaOptions{Logf: c.opts.Logf})
	rep.Start()
	select {
	case <-target.Ready():
	case <-time.After(30 * time.Second):
		rep.Close()
		target.Close()
		return nil, fmt.Errorf("replica of %s: no snapshot after 30s", primaryAddr)
	}
	n := &node{target: target, rep: rep}
	cfg := server.Config{
		ReadOnly: true,
		ReplicaStatus: func() (uint64, uint64, bool) {
			st := rep.Status()
			return st.PrimarySeq, st.AppliedSeq, st.Connected
		},
		Logf: c.opts.Logf,
	}
	if err := c.listen(n, cfg); err != nil {
		rep.Close()
		target.Close()
		return nil, err
	}
	return n, nil
}

func (c *Cluster) listen(n *node, cfg server.Config) error {
	var ix *bmeh.Index
	if n.ix != nil {
		ix = n.ix
	} else {
		ix = n.target.Index()
	}
	n.srv = server.New(ix, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.ln = ln
	n.addr = ln.Addr().String()
	n.serveErr = make(chan error, 1)
	go func() { n.serveErr <- n.srv.Serve(ln) }()
	return nil
}

// startShard launches one primary plus its replicas.
func (c *Cluster) startShard() (*shard, error) {
	p, err := c.startPrimary(c.nodePath())
	if err != nil {
		return nil, err
	}
	sh := &shard{primary: p}
	for r := 0; r < c.opts.Replicas; r++ {
		rn, err := c.startReplica(c.nodePath(), p.addr)
		if err != nil {
			for _, r := range sh.replicas {
				r.close()
			}
			p.close()
			return nil, err
		}
		sh.replicas = append(sh.replicas, rn)
	}
	return sh, nil
}

// admin dials a short-lived control connection to one node.
func (c *Cluster) admin(addr string) (*client.Client, error) {
	return client.Dial(addr, client.Options{PoolSize: 1})
}

// pushMap distributes m to every node — replicas included, so foreign
// reads on a replica answer WrongShard instead of serving stale rows.
// Within one shard the primary adopts first; across shards the order is
// the caller's concern (Split pushes the acquiring node before the
// donor so the moved range never lacks an owner).
func (c *Cluster) pushMap(m *cluster.Map) error {
	for i, sh := range c.shards {
		nodes := append([]*node{sh.primary}, sh.replicas...)
		for _, n := range nodes {
			if err := c.pushMapTo(n.addr, uint32(i), m); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *Cluster) pushMapTo(addr string, id uint32, m *cluster.Map) error {
	cl, err := c.admin(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	_, err = cl.SetShardMap(id, m)
	return err
}
