// Command bmehcluster launches an N-shard × M-replica BMEH cluster on
// loopback: every node is a real server process (this binary re-execs
// itself in bmehserve mode, sharing bmeh/internal/serve with the
// daemon), each shard primary is a file-backed copy-on-write index, and
// the initial shard map — pseudo-key prefix space partitioned evenly —
// is pushed to every node over the wire with SHARD_MAP_SET, exactly as
// an external control plane would.
//
// The launcher prints the seed addresses (what client.DialRouter wants)
// and runs until SIGINT/SIGTERM, then drains every child. It exists for
// development, benchmarks and the process-level cluster e2e tests; a
// real deployment runs bmehserve directly and distributes the map with
// its own tooling.
//
// Usage:
//
//	bmehcluster -shards 4 -replicas 1 -dir /tmp/cluster
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"bmeh/client"
	"bmeh/internal/cluster"
	"bmeh/internal/serve"
)

// childEnv marks a re-exec'd process as a server child, not a launcher.
const childEnv = "BMEHCLUSTER_CHILD"

func main() {
	if os.Getenv(childEnv) == "1" {
		childMain()
		return
	}
	var opts launchOptions
	flag.IntVar(&opts.Shards, "shards", 2, "initial shard count")
	flag.IntVar(&opts.Replicas, "replicas", 0, "read replicas per shard")
	flag.StringVar(&opts.Dir, "dir", "", "directory for the node index files (default: a temp dir)")
	flag.IntVar(&opts.Dims, "dims", 2, "key dimensions")
	flag.IntVar(&opts.Capacity, "b", 32, "data page capacity")
	flag.DurationVar(&opts.SnapMaxPinAge, "snap-max-pin-age", time.Minute, "force-release snapshot pins older than this (0 = never)")
	verbose := flag.Bool("v", false, "stream child logs to stderr")
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	if opts.Dir == "" {
		dir, err := os.MkdirTemp("", "bmehcluster-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bmehcluster:", err)
			os.Exit(1)
		}
		opts.Dir = dir
	}
	if *verbose {
		opts.ChildLog = os.Stderr
	}
	opts.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "bmehcluster: "+format+"\n", args...)
	}

	c, err := launch(os.Args[0], opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bmehcluster:", err)
		os.Exit(1)
	}
	for i, sh := range c.shards {
		fmt.Printf("shard %d: primary %s", i, sh.primary.addr)
		for _, r := range sh.replicas {
			fmt.Printf(" replica %s", r.addr)
		}
		fmt.Println()
	}
	fmt.Printf("seeds %s\n", joinSeeds(c.Seeds()))

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	opts.Logf("%v: stopping %d node(s)", s, c.Nodes())
	if err := c.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "bmehcluster:", err)
		os.Exit(1)
	}
}

func joinSeeds(seeds []string) string {
	out := ""
	for i, s := range seeds {
		if i > 0 {
			out += ","
		}
		out += s
	}
	return out
}

// childMain is the re-exec'd server: bmehserve's flag surface backed by
// the shared serve.Run. A dedicated FlagSet keeps the child's flags out
// of the launcher's (and, under test, the test binary's) global set.
func childMain() {
	fs := flag.NewFlagSet("bmehcluster-child", flag.ExitOnError)
	var cfg serve.Config
	fs.StringVar(&cfg.Addr, "addr", ":7707", "listen address")
	fs.StringVar(&cfg.IndexPath, "index", "", "file-backed index to serve")
	fs.BoolVar(&cfg.Create, "create", false, "create -index if it does not exist")
	fs.IntVar(&cfg.Dims, "dims", 2, "key dimensions (new indexes only)")
	fs.IntVar(&cfg.Capacity, "b", 32, "data page capacity (new indexes only)")
	fs.DurationVar(&cfg.DrainTimeout, "drain-timeout", 30*time.Second, "graceful shutdown budget")
	fs.StringVar(&cfg.ReplicaOf, "replica-of", "", "follow this primary as a read replica")
	fs.BoolVar(&cfg.COW, "cow", false, "copy-on-write writers + MVCC snapshot reads")
	fs.DurationVar(&cfg.SnapMaxPinAge, "snap-max-pin-age", 0, "force-release snapshot pins older than this")
	fs.Parse(os.Args[1:])

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if err := serve.Run(cfg, sig, nil, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bmehcluster-child:", err)
		os.Exit(1)
	}
}

// launchOptions configures a process cluster.
type launchOptions struct {
	Shards        int
	Replicas      int
	Dir           string
	Dims          int
	Capacity      int
	SnapMaxPinAge time.Duration
	ChildLog      io.Writer // optional live stream of child stderr
	Logf          func(format string, args ...any)
}

func (o *launchOptions) defaults() {
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

// proc is one child server process. done closes after Wait returns, so
// kill and term are safely re-entrant.
type proc struct {
	cmd  *exec.Cmd
	addr string
	path string // index file
	args []string
	log  *bytes.Buffer
	done chan struct{}
	err  error
}

// kill delivers SIGKILL and reaps — the crash the e2e tests inject.
func (p *proc) kill() {
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Kill()
	<-p.done
}

// term drains with SIGTERM and reports the exit error.
func (p *proc) term(timeout time.Duration) error {
	select {
	case <-p.done:
		return fmt.Errorf("%s: already exited: %v", p.addr, p.err)
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		if p.err != nil {
			return fmt.Errorf("%s: unclean exit: %v\n%s", p.addr, p.err, p.log.String())
		}
		return nil
	case <-time.After(timeout):
		p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("%s: ignored SIGTERM\n%s", p.addr, p.log.String())
	}
}

// procShard is one partition: a primary process and its replicas.
type procShard struct {
	primary  *proc
	replicas []*proc
}

// procCluster is a running cluster of real server processes plus the
// authoritative shard map the launcher distributed.
type procCluster struct {
	bin  string
	opts launchOptions

	mu     sync.Mutex
	shards []*procShard
	m      *cluster.Map
	nextID int
}

// launch starts shards×(1+replicas) server processes (re-execing bin in
// child mode), builds the uniform shard map over the primaries, and
// pushes it to every node. On error everything already started is
// killed.
func launch(bin string, opts launchOptions) (*procCluster, error) {
	opts.defaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	c := &procCluster{bin: bin, opts: opts}
	for i := 0; i < opts.Shards; i++ {
		if err := c.addShard(); err != nil {
			c.killAll()
			return nil, err
		}
	}
	nodes := make([]cluster.Node, len(c.shards))
	for i, sh := range c.shards {
		nodes[i] = cluster.Node{Primary: sh.primary.addr}
		for _, r := range sh.replicas {
			nodes[i].Replicas = append(nodes[i].Replicas, r.addr)
		}
	}
	m, err := cluster.Uniform(nodes)
	if err != nil {
		c.killAll()
		return nil, err
	}
	c.m = m
	if err := c.pushMap(); err != nil {
		c.killAll()
		return nil, err
	}
	return c, nil
}

func (c *procCluster) addShard() error {
	path := filepath.Join(c.opts.Dir, fmt.Sprintf("node-%03d.bmeh", c.nextID))
	c.nextID++
	p, err := c.startChild(path, "")
	if err != nil {
		return err
	}
	sh := &procShard{primary: p}
	for r := 0; r < c.opts.Replicas; r++ {
		rpath := filepath.Join(c.opts.Dir, fmt.Sprintf("node-%03d.bmeh", c.nextID))
		c.nextID++
		rp, err := c.startChild(rpath, p.addr)
		if err != nil {
			for _, r := range sh.replicas {
				r.kill()
			}
			p.kill()
			return err
		}
		sh.replicas = append(sh.replicas, rp)
	}
	c.shards = append(c.shards, sh)
	return nil
}

// startChild launches one server process on a fresh loopback port — a
// primary when replicaOf is empty, a replica otherwise — and waits
// until it answers STATS.
func (c *procCluster) startChild(path, replicaOf string) (*proc, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr, "-index", path}
	if replicaOf == "" {
		args = append(args,
			"-create", "-cow",
			"-dims", fmt.Sprint(c.opts.Dims), "-b", fmt.Sprint(c.opts.Capacity),
			"-snap-max-pin-age", c.opts.SnapMaxPinAge.String(),
		)
	} else {
		args = append(args, "-replica-of", replicaOf)
	}
	return c.startProc(addr, path, args)
}

func (c *procCluster) startProc(addr, path string, args []string) (*proc, error) {
	cmd := exec.Command(c.bin, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	log := &bytes.Buffer{}
	if c.opts.ChildLog != nil {
		cmd.Stdout = io.MultiWriter(log, c.opts.ChildLog)
		cmd.Stderr = cmd.Stdout
	} else {
		cmd.Stdout, cmd.Stderr = log, log
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, addr: addr, path: path, args: args, log: log, done: make(chan struct{})}
	go func() { p.err = cmd.Wait(); close(p.done) }()

	deadline := time.Now().Add(30 * time.Second)
	for {
		cl, err := client.Dial(addr, client.Options{
			PoolSize: 1, DialTimeout: time.Second, RequestTimeout: 2 * time.Second,
		})
		if err == nil {
			_, serr := cl.Stats()
			cl.Close()
			if serr == nil {
				return p, nil
			}
			err = serr
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("child %s exited during startup: %v\n%s", addr, p.err, log.String())
		default:
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("child %s never became ready: %v\n%s", addr, err, log.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// restartPrimary relaunches shard i's primary with its original flags
// (the index file survives the crash; recovery replays the WAL) and
// re-pushes the current map so ownership enforcement resumes.
func (c *procCluster) restartPrimary(i int) error {
	c.mu.Lock()
	sh := c.shards[i]
	m := c.m
	c.mu.Unlock()
	p, err := c.startProc(sh.primary.addr, sh.primary.path, sh.primary.args)
	if err != nil {
		return err
	}
	c.mu.Lock()
	sh.primary = p
	c.mu.Unlock()
	return pushMapTo(p.addr, uint32(i), m)
}

// Seeds returns every primary address.
func (c *procCluster) Seeds() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	seeds := make([]string, len(c.shards))
	for i, sh := range c.shards {
		seeds[i] = sh.primary.addr
	}
	return seeds
}

// Nodes returns the total process count.
func (c *procCluster) Nodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, sh := range c.shards {
		n += 1 + len(sh.replicas)
	}
	return n
}

// Map returns the map the launcher last distributed.
func (c *procCluster) Map() *cluster.Map {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Clone()
}

// pushMap distributes the current map to every node, primary first
// within each shard; replicas hold it too so foreign reads answer
// WrongShard rather than serving rows the shard no longer owns.
func (c *procCluster) pushMap() error {
	c.mu.Lock()
	shards := append([]*procShard(nil), c.shards...)
	m := c.m
	c.mu.Unlock()
	for i, sh := range shards {
		if err := pushMapTo(sh.primary.addr, uint32(i), m); err != nil {
			return err
		}
		for _, r := range sh.replicas {
			if err := pushMapTo(r.addr, uint32(i), m); err != nil {
				return err
			}
		}
	}
	return nil
}

func pushMapTo(addr string, id uint32, m *cluster.Map) error {
	cl, err := client.Dial(addr, client.Options{PoolSize: 1})
	if err != nil {
		return err
	}
	defer cl.Close()
	_, err = cl.SetShardMap(id, m)
	return err
}

// Close drains every child: replicas first (they stop following), then
// primaries. Returns the first failure but keeps going.
func (c *procCluster) Close() error {
	c.mu.Lock()
	shards := c.shards
	c.shards = nil
	c.mu.Unlock()
	var firstErr error
	for _, sh := range shards {
		for _, r := range sh.replicas {
			if err := r.term(30 * time.Second); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if err := sh.primary.term(30 * time.Second); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (c *procCluster) killAll() {
	for _, sh := range c.shards {
		for _, r := range sh.replicas {
			r.kill()
		}
		sh.primary.kill()
	}
	c.shards = nil
}

// freePort grabs an ephemeral loopback port and releases it for a child
// to bind.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}
