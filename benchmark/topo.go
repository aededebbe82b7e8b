package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"bmeh"
	"bmeh/client"
	"bmeh/internal/cluster"
	"bmeh/internal/cluster/local"
	"bmeh/internal/serve"
)

// kv is the operation set every rung of the ladder answers:
// client.Router, client.Client and (through indexKV) bmeh.Index.
type kv interface {
	Get(key bmeh.Key) (uint64, bool, error)
	Put(key bmeh.Key, value uint64) error
	Delete(key bmeh.Key) (bool, error)
	Range(lo, hi bmeh.Key, limit int) ([]bmeh.KV, bool, error)
}

// indexKV adapts an in-process index to kv.
type indexKV struct{ ix *bmeh.Index }

func (t indexKV) Get(k bmeh.Key) (uint64, bool, error) { return t.ix.Get(k) }
func (t indexKV) Put(k bmeh.Key, v uint64) error       { return t.ix.Insert(k, v) }
func (t indexKV) Delete(k bmeh.Key) (bool, error)      { return t.ix.Delete(k) }
func (t indexKV) Range(lo, hi bmeh.Key, limit int) ([]bmeh.KV, bool, error) {
	var out []bmeh.KV
	more := false
	err := t.ix.Range(lo, hi, func(k bmeh.Key, v uint64) bool {
		if len(out) == limit {
			more = true
			return false
		}
		out = append(out, bmeh.KV{Key: k, Value: v})
		return true
	})
	return out, more, err
}

// poolSize is the one client knob the workloads name: connections per
// node, never more than the CPUs that have to serve them.
func poolSize() int { return min(2, runtime.NumCPU()) }

func clientOptions() client.Options { return client.Options{PoolSize: poolSize()} }

// The repo's defaults that no importable package states: bmehserve's
// flag defaults, which serve.Run only sees as a filled Config.
const (
	serveDims         = 2
	serveCapacity     = 32
	serveCache        = 4096
	serveSyncInterval = 200 * time.Microsecond
	serveSyncBatch    = 64
	serveDrainTimeout = 30 * time.Second
)

// indexCacheFrames is the byte-pool size get-cold.index names.
const indexCacheFrames = 1024

// counters are a topology's page-store counts, summed over primaries.
type counters struct {
	reads, writes, commits uint64
	poolHits, poolMisses   uint64 // topoIndex only
}

// topology is a workload's system under test, built fresh in its own
// directory: what callers talk to, and what the checks after the window
// need.
type topology struct {
	w     *workload
	dir   string
	entry kv
	files []string // every node's index file

	// topoRouter and topoServer: one direct client per primary (and per
	// replica), outside the callers' pools, for Sync, STATS and reading
	// back from the primary.
	primaries []*client.Client
	replicas  []*client.Client
	router    *client.Router
	shardMap  *cluster.Map
	ix        *bmeh.Index // topoIndex

	closers []func() error // run in reverse order by close
}

func (t *topology) close() error {
	var first error
	for i := len(t.closers) - 1; i >= 0; i-- {
		if err := t.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	t.closers = nil
	return first
}

func (t *topology) onClose(fn func() error) { t.closers = append(t.closers, fn) }

// setup builds w's topology under dir, preloads it and makes the result
// durable. It returns once the topology is ready for traffic.
func setup(w *workload, ks keyspace, preload int, dir string) (t *topology, err error) {
	t = &topology{w: w, dir: dir}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	switch w.topo {
	case topoRouter:
		err = t.setupRouter(ks, preload)
	case topoIndex:
		err = t.setupIndex(ks, preload)
	case topoServer:
		err = t.setupServer(ks, preload)
	}
	return t, err
}

func (t *topology) dialDirect(addr string, replica bool) error {
	cl, err := client.Dial(addr, client.Options{PoolSize: 1})
	if err != nil {
		return err
	}
	t.onClose(cl.Close)
	if replica {
		t.replicas = append(t.replicas, cl)
	} else {
		t.primaries = append(t.primaries, cl)
	}
	return nil
}

func (t *topology) setupRouter(ks keyspace, preload int) error {
	c, err := local.Start(t.dir, local.Options{Shards: 2})
	if err != nil {
		return err
	}
	t.onClose(c.Close)
	t.shardMap = c.Map()
	for i, addr := range c.Seeds() {
		t.files = append(t.files, filepath.Join(t.dir, fmt.Sprintf("node-%03d.bmeh", i)))
		if err := t.dialDirect(addr, false); err != nil {
			return err
		}
	}
	r, err := client.DialRouter(c.Seeds(), clientOptions())
	if err != nil {
		return err
	}
	t.onClose(r.Close)
	t.router, t.entry = r, r
	if err := batchLoad(r, ks, preload); err != nil {
		return err
	}
	return t.syncPrimaries()
}

func (t *topology) setupIndex(ks keyspace, preload int) error {
	path := filepath.Join(t.dir, "index.bmeh")
	t.files = []string{path}
	ix, err := bmeh.Create(path, bmeh.Options{Dims: 2, CacheFrames: indexCacheFrames})
	if err != nil {
		return err
	}
	i := 0
	_, err = ix.BulkLoad(func() (bmeh.KV, bool, error) {
		if i == preload {
			return bmeh.KV{}, false, nil
		}
		k := ks.key(uint64(i))
		i++
		return bmeh.KV{Key: k, Value: valueOf(k)}, true, nil
	}, bmeh.BulkOptions{SpillDir: t.dir})
	if err != nil {
		ix.Close()
		return err
	}
	if err := ix.Close(); err != nil {
		return err
	}
	if ix, err = bmeh.Open(path, indexCacheFrames); err != nil {
		return err
	}
	t.onClose(ix.Close)
	t.ix, t.entry = ix, indexKV{ix}
	return nil
}

// startServe runs serve.Run in a goroutine and returns its address.
func (t *topology) startServe(cfg serve.Config) (string, error) {
	cfg.Addr = "127.0.0.1:0"
	cfg.Cache = serveCache
	cfg.DrainTimeout = serveDrainTimeout
	sig := make(chan os.Signal, 1)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- serve.Run(cfg, sig, func(a net.Addr) { ready <- a }, io.Discard) }()
	select {
	case a := <-ready:
		t.onClose(func() error {
			sig <- os.Interrupt
			err := <-done
			close(sig) // releases Run's second-signal watcher
			return err
		})
		return a.String(), nil
	case err := <-done:
		if err == nil {
			err = errors.New("serve.Run returned before listening")
		}
		return "", err
	}
}

func (t *topology) setupServer(ks keyspace, preload int) error {
	ppath, rpath := filepath.Join(t.dir, "primary.bmeh"), filepath.Join(t.dir, "replica.bmeh")
	t.files = []string{ppath, rpath}
	paddr, err := t.startServe(serve.Config{
		IndexPath: ppath, Create: true, Dims: serveDims, Capacity: serveCapacity,
		SyncInterval: serveSyncInterval, SyncBatch: serveSyncBatch, COW: t.w.cow,
	})
	if err != nil {
		return err
	}
	raddr, err := t.startServe(serve.Config{IndexPath: rpath, ReplicaOf: paddr})
	if err != nil {
		return err
	}
	if err := t.dialDirect(paddr, false); err != nil {
		return err
	}
	if err := t.dialDirect(raddr, true); err != nil {
		return err
	}
	cl, err := client.DialCluster(paddr, []string{raddr}, clientOptions())
	if err != nil {
		return err
	}
	t.onClose(cl.Close)
	t.entry = cl
	if err := batchLoad(cl, ks, preload); err != nil {
		return err
	}
	if err := t.syncPrimaries(); err != nil {
		return err
	}
	return t.awaitReplicas()
}

// batchLoad stores keys [0, preload) through Batch, one loader per CPU.
func batchLoad(b interface {
	Batch([]bmeh.KV) (int, error)
}, ks keyspace, preload int) error {
	const chunk = 4096
	loaders := runtime.NumCPU()
	errs := make([]error, loaders)
	var wg sync.WaitGroup
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			lo, end := preload*l/loaders, preload*(l+1)/loaders
			for ; lo < end; lo += chunk {
				hi := min(lo+chunk, end)
				kvs := make([]bmeh.KV, 0, hi-lo)
				for i := lo; i < hi; i++ {
					k := ks.key(uint64(i))
					kvs = append(kvs, bmeh.KV{Key: k, Value: valueOf(k)})
				}
				n, err := b.Batch(kvs)
				if err == nil && n != len(kvs) {
					err = fmt.Errorf("preload: batch stored %d of %d", n, len(kvs))
				}
				if err != nil {
					errs[l] = err
					return
				}
			}
		}(l)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (t *topology) syncPrimaries() error {
	for _, cl := range t.primaries {
		if err := cl.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// awaitReplicas waits until every replica has applied its primary's last
// commit, so reads routed to a replica find every preloaded key.
func (t *topology) awaitReplicas() error {
	deadline := time.Now().Add(30 * time.Second)
	for _, rep := range t.replicas {
		for {
			ps, err := t.primaries[0].Stats()
			if err != nil {
				return err
			}
			rs, err := rep.Stats()
			if err != nil {
				return err
			}
			if rs.CommitSeq >= ps.CommitSeq {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("replica at commit %d of %d after 30s", rs.CommitSeq, ps.CommitSeq)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// length is the record count the topology reports.
func (t *topology) length() (uint64, error) {
	switch t.w.topo {
	case topoRouter:
		return t.router.Len()
	case topoIndex:
		return uint64(t.ix.Len()), nil
	}
	st, err := t.primaries[0].Stats()
	return st.Records, err
}

// readback is where an acknowledged PUT is read back from: the primary
// for topoServer (a replica may lag), the entry otherwise.
func (t *topology) readback() kv {
	if t.w.topo == topoServer {
		return t.primaries[0]
	}
	return t.entry
}

func (t *topology) counters() (counters, error) {
	var c counters
	if t.ix != nil {
		st := t.ix.Stats()
		c.reads, c.writes, c.commits = st.Reads, st.Writes, t.ix.ReplCommitSeq()
		if ps, ok := t.ix.PoolStats(); ok {
			c.poolHits, c.poolMisses = ps.Hits, ps.Misses
		}
		return c, nil
	}
	for _, cl := range t.primaries {
		st, err := cl.Stats()
		if err != nil {
			return c, err
		}
		c.reads += st.Reads
		c.writes += st.Writes
		c.commits += st.CommitSeq
	}
	for _, cl := range t.replicas { // GETs a replica serves read its pages
		st, err := cl.Stats()
		if err != nil {
			return c, err
		}
		c.reads += st.Reads
	}
	return c, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}
