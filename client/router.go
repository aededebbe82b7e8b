package client

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bmeh"
	"bmeh/internal/cluster"
	"bmeh/internal/wire"
)

// Router is a cluster-aware client: it holds a cached shard map, routes
// point operations (Get, Put, Delete, Batch) to the shard owning each
// key's pseudo-key prefix, and fans Range queries out across every
// overlapping shard, merging the per-shard streams back into global
// pseudo-key order.
//
// The cached map is invalidated by epoch: any node answering
// StatusWrongShard reveals its own epoch, and the router refreshes its
// map from the cluster before retrying. A server mid-split may answer
// WrongShard at the *same* epoch (the write fence); the router then
// backs off and retries until the epoch flips, so a correctly executed
// split costs clients added latency but zero failed requests.
//
// Safe for concurrent use. Per-shard connections are pooled Clients
// (primary + replicas with lag-aware read routing), created lazily and
// kept for the Router's lifetime.
type Router struct {
	opts  Options
	seeds []string

	mu    sync.RWMutex
	m     *cluster.Map
	dims  int
	width int

	// cmu guards clients. Routed operations only read the map (RLock);
	// dialing a missing shard client and Close take the write lock.
	cmu     sync.RWMutex
	clients map[string]*Client // keyed by shard primary address

	closed atomic.Bool
}

// RouterRetries is how many map-refresh-and-retry rounds a routed
// operation attempts after WrongShard answers before giving up — enough
// to ride out a split hand-off at the default backoff.
const RouterRetries = 24

// DialRouter connects to a cluster through any reachable seed node,
// fetches the shard map and key geometry, and returns a Router. Seeds
// are only needed for bootstrap and as a refresh fallback; routing uses
// the addresses in the map itself.
func DialRouter(seeds []string, opts Options) (*Router, error) {
	if len(seeds) == 0 {
		return nil, errors.New("client: DialRouter needs at least one seed address")
	}
	opts = opts.withDefaults()
	r := &Router{opts: opts, seeds: append([]string(nil), seeds...), clients: make(map[string]*Client)}
	var lastErr error
	for _, addr := range seeds {
		cl, err := Dial(addr, r.leafOptions())
		if err != nil {
			lastErr = err
			continue
		}
		m, merr := cl.ShardMap()
		st, serr := cl.Stats()
		cl.Close()
		if merr != nil {
			lastErr = fmt.Errorf("%s: %w", addr, merr)
			continue
		}
		if serr != nil {
			lastErr = fmt.Errorf("%s: %w", addr, serr)
			continue
		}
		r.m, r.dims, r.width = m, st.Dims, st.Width
		return r, nil
	}
	return nil, lastErr
}

// leafOptions are the Options used for per-shard Clients: same tuning,
// but replica lists come from the shard map, not Options.Replicas.
func (r *Router) leafOptions() Options {
	o := r.opts
	o.Replicas = nil
	return o
}

// Close tears down every per-shard client.
func (r *Router) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	r.cmu.Lock()
	defer r.cmu.Unlock()
	for _, cl := range r.clients {
		cl.Close()
	}
	r.clients = nil
	return nil
}

// Map returns the router's current cached shard map.
func (r *Router) Map() *cluster.Map {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.m
}

// Geometry returns the cluster's key geometry (dims, component width).
func (r *Router) Geometry() (dims, width int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.dims, r.width
}

// shardClient returns (lazily dialing) the pooled client for shard i of
// map m. Clients are cached by primary address and survive map flips —
// a donor shard keeps its client, a new shard gets a fresh one.
func (r *Router) shardClient(m *cluster.Map, i int) (*Client, error) {
	if r.closed.Load() {
		return nil, ErrClosed
	}
	node := m.Shards[i]
	r.cmu.RLock()
	cl, ok := r.clients[node.Primary]
	r.cmu.RUnlock()
	if ok {
		return cl, nil
	}
	r.cmu.Lock()
	defer r.cmu.Unlock()
	if r.clients == nil {
		return nil, ErrClosed
	}
	if cl, ok := r.clients[node.Primary]; ok {
		return cl, nil
	}
	cl, err := DialCluster(node.Primary, node.Replicas, r.leafOptions())
	if err != nil {
		return nil, err
	}
	r.clients[node.Primary] = cl
	return cl, nil
}

// RefreshMap polls the cluster (every mapped primary, then the seeds)
// for a shard map newer than the cached one and adopts the newest
// found. It returns the epoch now cached.
func (r *Router) RefreshMap() uint64 {
	r.mu.RLock()
	cur := r.m
	r.mu.RUnlock()
	var addrs []string
	if cur != nil {
		for _, n := range cur.Shards {
			addrs = append(addrs, n.Primary)
		}
	}
	addrs = append(addrs, r.seeds...)
	best := cur
	for _, addr := range addrs {
		m, err := r.fetchMap(addr)
		if err != nil {
			continue
		}
		if best == nil || m.Epoch > best.Epoch {
			best = m
		}
	}
	if best == nil {
		return 0
	}
	r.mu.Lock()
	if r.m == nil || best.Epoch > r.m.Epoch {
		r.m = best
	}
	epoch := r.m.Epoch
	r.mu.Unlock()
	return epoch
}

// fetchMap asks one node for its shard map, reusing a cached shard
// client when the address maps to one, dialing a throwaway connection
// otherwise (seed nodes need not be in the map).
func (r *Router) fetchMap(addr string) (*cluster.Map, error) {
	r.cmu.RLock()
	cl := r.clients[addr]
	r.cmu.RUnlock()
	if cl != nil {
		return cl.ShardMap()
	}
	tmp, err := Dial(addr, r.leafOptions())
	if err != nil {
		return nil, err
	}
	defer tmp.Close()
	return tmp.ShardMap()
}

// route runs op against the shard owning key, refreshing the map and
// retrying on WrongShard: immediately when the refresh advanced the
// epoch (stale map), with backoff when it did not (a fence mid-split —
// the flip is coming). Transport errors pass through op's own
// semantics untouched.
func (r *Router) route(key bmeh.Key, op func(cl *Client) error) error {
	var lastErr error
	for attempt := 0; attempt <= RouterRetries; attempt++ {
		r.mu.RLock()
		m, dims, width := r.m, r.dims, r.width
		r.mu.RUnlock()
		if m == nil {
			return ErrNoShardMap
		}
		i := m.ShardFor(cluster.Prefix(key, dims, width))
		cl, err := r.shardClient(m, i)
		if err == nil {
			err = op(cl)
		}
		if err == nil || !errors.Is(err, ErrWrongShard) {
			return err
		}
		lastErr = err
		before := m.Epoch
		after := r.RefreshMap()
		if after <= before {
			// Same epoch everywhere: the range is fenced for a hand-off
			// that has not flipped yet. Wait for it.
			time.Sleep(backoffDelay(r.opts.RedialBackoff, r.opts.RedialBackoffMax, attempt+1))
		}
	}
	return lastErr
}

// Get returns the value under key from the shard that owns it.
func (r *Router) Get(key bmeh.Key) (uint64, bool, error) {
	var v uint64
	var ok bool
	err := r.route(key, func(cl *Client) error {
		var err error
		v, ok, err = cl.Get(key)
		return err
	})
	return v, ok, err
}

// Put stores value under key on the shard that owns it.
func (r *Router) Put(key bmeh.Key, value uint64) error {
	return r.route(key, func(cl *Client) error { return cl.Put(key, value) })
}

// Delete removes key from the shard that owns it.
func (r *Router) Delete(key bmeh.Key) (bool, error) {
	var ok bool
	err := r.route(key, func(cl *Client) error {
		var err error
		ok, err = cl.Delete(key)
		return err
	})
	return ok, err
}

// Batch splits kvs by owning shard and issues one BATCH per shard,
// returning the total inserted. Shard sub-batches whose server answers
// WrongShard are re-split against a refreshed map and retried; each
// sub-batch is all-or-nothing on the server, so a retry never
// double-applies.
func (r *Router) Batch(kvs []bmeh.KV) (int, error) {
	pendingKVs := kvs
	inserted := 0
	var lastErr error
	for attempt := 0; attempt <= RouterRetries && len(pendingKVs) > 0; attempt++ {
		r.mu.RLock()
		m, dims, width := r.m, r.dims, r.width
		r.mu.RUnlock()
		if m == nil {
			return inserted, ErrNoShardMap
		}
		byShard := make(map[int][]bmeh.KV)
		for _, kv := range pendingKVs {
			i := m.ShardFor(cluster.Prefix(kv.Key, dims, width))
			byShard[i] = append(byShard[i], kv)
		}
		var retry []bmeh.KV
		lastErr = nil
		for i, sub := range byShard {
			cl, err := r.shardClient(m, i)
			if err == nil {
				var n int
				n, err = cl.Batch(sub)
				inserted += n
			}
			switch {
			case err == nil:
			case errors.Is(err, ErrWrongShard):
				retry = append(retry, sub...)
				lastErr = err
			default:
				return inserted, err
			}
		}
		pendingKVs = retry
		if len(pendingKVs) == 0 {
			return inserted, nil
		}
		before := m.Epoch
		if r.RefreshMap() <= before {
			time.Sleep(backoffDelay(r.opts.RedialBackoff, r.opts.RedialBackoffMax, attempt+1))
		}
	}
	return inserted, lastErr
}

// Range returns up to limit records in the axis-aligned box [lo, hi],
// gathered from every shard whose pseudo-key range the box's corner
// prefixes span and merged back into global pseudo-key order (limit ≤ 0
// accepts the servers' caps). The second result is true when any shard
// stopped early or the merged stream was truncated to limit — more
// records may exist in the box.
//
// Partial-match queries — some dimensions pinned, others spanning their
// whole domain — are Range queries whose corner prefixes straddle many
// (often all) shards; the fan-out and merge make them transparent.
func (r *Router) Range(lo, hi bmeh.Key, limit int) ([]bmeh.KV, bool, error) {
	if limit < 0 {
		limit = 0
	}
	var lastErr error
	for attempt := 0; attempt <= RouterRetries; attempt++ {
		r.mu.RLock()
		m, dims, width := r.m, r.dims, r.width
		r.mu.RUnlock()
		if m == nil {
			return nil, false, ErrNoShardMap
		}
		// Morton interleaving is monotone per coordinate, so the corner
		// prefixes bound every prefix in the box: only shards overlapping
		// [Prefix(lo), Prefix(hi)] can hold matches.
		shards := m.Overlapping(cluster.Prefix(lo, dims, width), cluster.Prefix(hi, dims, width))
		type result struct {
			idx  int
			kvs  []bmeh.KV
			more bool
			err  error
		}
		results := make([]result, len(shards))
		var wg sync.WaitGroup
		for k, i := range shards {
			wg.Add(1)
			go func(k, i int) {
				defer wg.Done()
				cl, err := r.shardClient(m, i)
				if err != nil {
					results[k] = result{idx: i, err: err}
					return
				}
				kvs, more, err := cl.Range(lo, hi, limit)
				results[k] = result{idx: i, kvs: kvs, more: more, err: err}
			}(k, i)
		}
		wg.Wait()

		wrongShard := false
		more := false
		lists := make([][]wire.KV, 0, len(results))
		for _, res := range results {
			switch {
			case res.err == nil:
				more = more || res.more
				enc := make([]wire.KV, len(res.kvs))
				for j, kv := range res.kvs {
					enc[j] = wire.KV{Key: kv.Key, Value: kv.Value}
				}
				// A shard streams its box matches in tree order, which is
				// pseudo-key order across pages but unordered within one
				// (data pages are hash buckets); sort before the merge,
				// whose inputs must be ordered.
				cluster.SortKVs(enc, dims, width)
				lists = append(lists, enc)
			case errors.Is(res.err, ErrWrongShard):
				wrongShard = true
				lastErr = res.err
			default:
				return nil, false, res.err
			}
		}
		if wrongShard {
			// Some shard's view moved under us; a merged result would mix
			// epochs, so refresh and rerun the whole query.
			before := m.Epoch
			if r.RefreshMap() <= before {
				time.Sleep(backoffDelay(r.opts.RedialBackoff, r.opts.RedialBackoffMax, attempt+1))
			}
			continue
		}
		merged := cluster.MergeOrdered(lists, dims, width, limit)
		if limit > 0 && len(merged) == limit {
			// Truncation anywhere (server cap or our limit) means more may
			// exist; only an untruncated full merge is definitive.
			total := 0
			for _, l := range lists {
				total += len(l)
			}
			more = more || total > limit
		}
		out := make([]bmeh.KV, len(merged))
		for j, kv := range merged {
			out[j] = bmeh.KV{Key: bmeh.Key(kv.Key), Value: kv.Value}
		}
		return out, more, nil
	}
	return nil, false, lastErr
}

// ShardStats fetches Stats from every shard in map order — the
// aggregate view an operator dashboard or bench harness wants.
func (r *Router) ShardStats() ([]Stats, error) {
	r.mu.RLock()
	m := r.m
	r.mu.RUnlock()
	if m == nil {
		return nil, ErrNoShardMap
	}
	out := make([]Stats, m.NumShards())
	var wg sync.WaitGroup
	errs := make([]error, m.NumShards())
	for i := 0; i < m.NumShards(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := r.shardClient(m, i)
			if err != nil {
				errs[i] = err
				return
			}
			out[i], errs[i] = cl.Stats()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Len sums Records across shards (one consistent-ish aggregate; each
// shard's count is its own instant).
func (r *Router) Len() (uint64, error) {
	stats, err := r.ShardStats()
	if err != nil {
		return 0, err
	}
	var n uint64
	for _, s := range stats {
		n += s.Records
	}
	return n, nil
}

// SortByShard groups kvs by the shard that owns each key under the
// router's current map, returned as (shard index, sub-batch) pairs in
// shard order. Exposed for bulk loaders that want to stream per-shard.
func (r *Router) SortByShard(kvs []bmeh.KV) map[int][]bmeh.KV {
	r.mu.RLock()
	m, dims, width := r.m, r.dims, r.width
	r.mu.RUnlock()
	out := make(map[int][]bmeh.KV)
	if m == nil {
		return out
	}
	for _, kv := range kvs {
		i := m.ShardFor(cluster.Prefix(kv.Key, dims, width))
		out[i] = append(out[i], kv)
	}
	return out
}

// Shards returns the router's current shard count.
func (r *Router) Shards() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.m == nil {
		return 0
	}
	return r.m.NumShards()
}
