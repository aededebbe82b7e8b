// Package client is the Go client for bmehserve, the network daemon in
// cmd/bmehserve.
//
// A Client multiplexes requests over a small pool of TCP connections.
// Every connection is pipelined: requests are written back to back with
// distinct IDs and completions are matched by ID as they arrive, in
// whatever order the server finishes them — so N outstanding calls cost
// one round trip of latency, not N. The synchronous methods (Get, Put,
// …) each occupy one in-flight slot; the *Async variants return a Call
// immediately so one goroutine can keep dozens of requests in flight.
//
// Failure semantics: transport-level failures (dial, write, read,
// timeout, connection torn down mid-flight) are wrapped in *ConnError,
// and the synchronous methods retry them automatically — but only for
// idempotent operations (Get, Range, Stats, Sync). A Put, Delete or
// Batch whose connection died mid-flight returns the *ConnError
// unretried, because the server may or may not have applied it; the
// caller owns that ambiguity. Application-level outcomes (key absent,
// duplicate key, a server-side error message) are never retried. A
// StatusBusy response is the exception among retries: the server
// guarantees a busy-rejected request was never executed, so the client
// retries it with backoff regardless of idempotence.
//
// Topology: DialCluster takes a primary plus read replicas. Writes
// (Put, Delete, Batch, Sync) are routed to the primary only; reads
// (Get, Range, Stats) prefer a healthy replica and fall back to the
// primary, so reads keep serving while the primary restarts and a
// primary-down write fails fast with ErrPrimaryDown. A background
// prober measures each replica's replication lag and demotes replicas
// lagging beyond Options.MaxLag until they catch up. Every endpoint's
// redial is gated by capped exponential backoff with full jitter, so a
// dead node costs a bounded trickle of dial attempts, not a hammer.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bmeh"
	"bmeh/internal/cluster"
	"bmeh/internal/wire"
)

// Options configures a Client. The zero value is usable.
type Options struct {
	// PoolSize is how many connections the client multiplexes over
	// (default 4).
	PoolSize int
	// DialTimeout bounds one connection attempt (default 5s).
	DialTimeout time.Duration
	// RequestTimeout bounds one request attempt, send to completion
	// (default 10s). A timeout tears the connection down — pipelined
	// responses cannot be skipped individually — failing its other
	// in-flight calls with a retryable *ConnError.
	RequestTimeout time.Duration
	// Retries is how many times an idempotent operation is re-sent after
	// a transport failure (default 2; total attempts = 1 + Retries).
	Retries int
	// MaxPayload bounds response payloads (default wire.DefaultMaxPayload).
	MaxPayload int
	// Replicas lists read-replica addresses (Dial only; DialCluster
	// takes them as an argument).
	Replicas []string
	// RedialBackoff is the base delay before redialing an endpoint whose
	// dial failed (default 50ms). Successive failures double it, with
	// full jitter, up to RedialBackoffMax.
	RedialBackoff time.Duration
	// RedialBackoffMax caps the redial delay (default 2s).
	RedialBackoffMax time.Duration
	// MaxLag is the replication lag (primary commits not yet applied)
	// beyond which a replica is demoted from read routing until it
	// catches up (default 4096).
	MaxLag uint64
	// HealthInterval is how often replica lag is probed (default 1s;
	// < 0 disables the prober — ProbeNow still works).
	HealthInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.PoolSize <= 0 {
		o.PoolSize = 4
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.MaxPayload <= 0 {
		o.MaxPayload = wire.DefaultMaxPayload
	}
	if o.RedialBackoff <= 0 {
		o.RedialBackoff = 50 * time.Millisecond
	}
	if o.RedialBackoffMax <= 0 {
		o.RedialBackoffMax = 2 * time.Second
	}
	if o.MaxLag == 0 {
		o.MaxLag = 4096
	}
	if o.HealthInterval == 0 {
		o.HealthInterval = time.Second
	}
	return o
}

// backoffDelay returns the capped-exponential, fully jittered delay for
// the given consecutive failure count (1-based): uniform in
// (0, min(base·2^(fails-1), max)].
func backoffDelay(base, max time.Duration, fails int) time.Duration {
	d := base
	for i := 1; i < fails && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return time.Duration(rand.Int64N(int64(d)) + 1)
}

// ConnError wraps a transport-level failure. Operations that return one
// have unknown server-side effect; the client retries them automatically
// only when they are idempotent.
type ConnError struct{ Err error }

func (e *ConnError) Error() string { return "client: connection: " + e.Err.Error() }
func (e *ConnError) Unwrap() error { return e.Err }

// RemoteError is an error message produced by the server for one
// request (for example a key whose dimensionality the index rejects).
type RemoteError string

func (e RemoteError) Error() string { return "client: server: " + string(e) }

// ErrClosed is returned by operations on a closed Client.
var ErrClosed = errors.New("client: closed")

// ErrPrimaryDown marks a write that failed because the primary is
// unreachable (wrapped in a *ConnError). Writes never fail over to a
// replica — replicas are read-only — so the caller decides whether to
// wait and retry.
var ErrPrimaryDown = errors.New("client: primary unavailable")

// ErrBusy is a server's overload rejection (StatusBusy). The request
// was not executed; the client retries it with backoff up to
// Options.Retries before surfacing this.
var ErrBusy = errors.New("client: server busy")

// ErrReadOnly reports a write sent to a read-only replica — the
// configured primary address points at a replica.
var ErrReadOnly = errors.New("client: server is a read-only replica")

// ErrWrongShard reports a request for a key the addressed node does not
// own (or a write into a range fenced for migration). The request was
// not executed. Match with errors.Is; WrongShardEpoch extracts the
// node's shard-map epoch so a router can tell a stale cached map (its
// epoch < the node's) from a split still in flight (epochs equal).
// The Router handles this transparently; it surfaces only from direct
// Client use against a clustered node.
var ErrWrongShard = errors.New("client: wrong shard for key")

// ErrNoShardMap reports a ShardMap call to a node that is not (yet)
// part of a cluster.
var ErrNoShardMap = errors.New("client: node has no shard map")

// wrongShardError carries the answering node's map epoch alongside the
// ErrWrongShard identity.
type wrongShardError struct{ epoch uint64 }

func (e *wrongShardError) Error() string {
	return fmt.Sprintf("client: wrong shard for key (server at map epoch %d)", e.epoch)
}
func (e *wrongShardError) Is(target error) bool { return target == ErrWrongShard }

// WrongShardEpoch returns the shard-map epoch carried by an
// ErrWrongShard failure, and whether err is one.
func WrongShardEpoch(err error) (uint64, bool) {
	var ws *wrongShardError
	if errors.As(err, &ws) {
		return ws.epoch, true
	}
	return 0, false
}

// Stats is the server's index snapshot (see bmeh.Stats), plus the
// geometry a caller needs to build keys and the node's replication
// position.
type Stats struct {
	Scheme            bmeh.Scheme
	Dims              int
	Width             int
	DirectoryLevels   int
	Records           uint64
	Reads, Writes     uint64
	DirectoryElements uint64
	DataPages         int
	DirectoryPages    int
	LoadFactor        float64
	// Role is wire.RolePrimary or wire.RoleReplica.
	Role uint8
	// Replicas is the primary's live subscriber count (0 on a replica).
	Replicas int
	// CommitSeq is the node's last durable commit; PrimarySeq is the
	// primary's (as last observed, on a replica). Their difference is
	// the replica's lag in commits.
	CommitSeq  uint64
	PrimarySeq uint64
	// COW reports whether the server's index runs in copy-on-write mode.
	// When it does, Epoch is the current commit epoch, PinnedEpochs the
	// number of open snapshots, and ReclaimablePages the retired pages
	// waiting for those snapshots to close.
	COW              bool
	Epoch            uint64
	PinnedEpochs     int
	ReclaimablePages int
	// Clustered reports whether the node has a shard map installed. When
	// it does, ShardID is its index in that map, [ShardLo, ShardHi) its
	// owned pseudo-key prefix range (ShardHi 0 meaning 2^64), and
	// ShardMapEpoch the map version it enforces.
	Clustered     bool
	ShardID       int
	ShardLo       uint64
	ShardHi       uint64
	ShardMapEpoch uint64
}

// Client is a pooled, pipelined, topology-aware bmehserve client. Safe
// for concurrent use.
type Client struct {
	opts     Options
	primary  *endpoint
	replicas []*endpoint
	rr       atomic.Uint64 // read round-robin over replicas
	closed   atomic.Bool

	proberStop chan struct{}
	proberDone chan struct{}
}

// endpoint is one server address with its connection pool, redial
// backoff gate, and health state.
type endpoint struct {
	addr    string
	primary bool
	slots   []slot
	next    atomic.Uint64

	mu       sync.Mutex
	fails    int       // consecutive dial failures
	nextDial time.Time // redial gate; zero = dial freely
	lastErr  error     // the failure the gate reports without dialing

	dials atomic.Int64  // total dial attempts (observability, tests)
	lag   atomic.Uint64 // last probed replication lag
	stale atomic.Bool   // lag exceeded MaxLag; demoted from reads
	live  atomic.Int64  // open connections
}

type slot struct {
	mu sync.Mutex
	cn *netConn
}

// Dial connects to a bmehserve at addr ("host:port"), the primary when
// opts.Replicas is set. With no replicas the first connection is
// established eagerly so an unreachable server fails here rather than
// on the first operation; with replicas, any reachable node suffices.
func Dial(addr string, opts Options) (*Client, error) {
	return DialCluster(addr, opts.Replicas, opts)
}

// DialCluster connects to a primary and its read replicas. Reads are
// served by healthy replicas (falling back to the primary); writes go
// to the primary only.
func DialCluster(primary string, replicas []string, opts Options) (*Client, error) {
	opts.Replicas = nil
	c := &Client{opts: opts.withDefaults()}
	c.primary = c.newEndpoint(primary, true)
	for _, addr := range replicas {
		if addr == "" || addr == primary {
			continue
		}
		c.replicas = append(c.replicas, c.newEndpoint(addr, false))
	}
	// Eager reachability check: the primary with no replicas configured;
	// any node otherwise (the cluster is useful for reads even while the
	// primary restarts).
	_, err := c.endpointConn(c.primary)
	if err != nil && len(c.replicas) == 0 {
		return nil, err
	}
	if err != nil {
		ok := false
		for _, e := range c.replicas {
			if _, rerr := c.endpointConn(e); rerr == nil {
				ok = true
				break
			}
		}
		if !ok {
			return nil, err
		}
	}
	if len(c.replicas) > 0 && c.opts.HealthInterval > 0 {
		c.proberStop = make(chan struct{})
		c.proberDone = make(chan struct{})
		go c.proberLoop()
	}
	return c, nil
}

func (c *Client) newEndpoint(addr string, primary bool) *endpoint {
	return &endpoint{addr: addr, primary: primary, slots: make([]slot, c.opts.PoolSize)}
}

// Close tears down every connection. In-flight calls fail with a
// *ConnError.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	if c.proberStop != nil {
		close(c.proberStop)
		<-c.proberDone
	}
	for _, e := range c.endpoints() {
		for i := range e.slots {
			s := &e.slots[i]
			s.mu.Lock()
			if s.cn != nil {
				s.cn.fail(&ConnError{Err: ErrClosed})
				s.cn = nil
			}
			s.mu.Unlock()
		}
	}
	return nil
}

func (c *Client) endpoints() []*endpoint {
	return append([]*endpoint{c.primary}, c.replicas...)
}

// endpointConn returns a connection to e from its pool (round-robin),
// dialing if absent or broken. Redials are gated: after a dial failure
// the endpoint rejects further attempts with the cached error until its
// jittered backoff delay expires, so a dead node is probed at a bounded
// rate no matter how hot the request path is.
func (c *Client) endpointConn(e *endpoint) (*netConn, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	i := int(e.next.Add(1)) % len(e.slots)
	s := &e.slots[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cn != nil && !s.cn.broken() {
		return s.cn, nil
	}
	if s.cn != nil {
		e.live.Add(-1)
		s.cn = nil
	}
	e.mu.Lock()
	if time.Now().Before(e.nextDial) {
		err := e.lastErr
		e.mu.Unlock()
		return nil, &ConnError{Err: fmt.Errorf("%s: backing off: %w", e.addr, err)}
	}
	e.mu.Unlock()
	e.dials.Add(1)
	nc, err := net.DialTimeout("tcp", e.addr, c.opts.DialTimeout)
	if err != nil {
		e.mu.Lock()
		e.fails++
		e.lastErr = err
		e.nextDial = time.Now().Add(backoffDelay(c.opts.RedialBackoff, c.opts.RedialBackoffMax, e.fails))
		e.mu.Unlock()
		return nil, &ConnError{Err: err}
	}
	e.mu.Lock()
	e.fails, e.lastErr, e.nextDial = 0, nil, time.Time{}
	e.mu.Unlock()
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	s.cn = newNetConn(nc, c.opts.MaxPayload)
	e.live.Add(1)
	return s.cn, nil
}

// gated reports whether the endpoint is inside its redial backoff
// window with no live connection to lean on.
func (e *endpoint) gated() bool {
	if e.live.Load() > 0 {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return time.Now().Before(e.nextDial)
}

// pickConn routes one request. Writes go to the primary only — a
// gated primary fails fast with ErrPrimaryDown rather than sleeping.
// Reads walk the healthy (non-stale, non-gated) replicas round-robin,
// fall back to the primary, then — when everything is gated — to any
// replica regardless of staleness, so reads degrade to stale-but-served
// before they degrade to failing.
func (c *Client) pickConn(write bool) (*netConn, error) {
	if write {
		if c.primary.gated() {
			c.primary.mu.Lock()
			err := c.primary.lastErr
			c.primary.mu.Unlock()
			return nil, &ConnError{Err: fmt.Errorf("%w: %v", ErrPrimaryDown, err)}
		}
		cn, err := c.endpointConn(c.primary)
		if err != nil {
			var ce *ConnError
			if errors.As(err, &ce) {
				return nil, &ConnError{Err: fmt.Errorf("%w: %v", ErrPrimaryDown, ce.Err)}
			}
			return nil, err
		}
		return cn, nil
	}
	var lastErr error
	if n := len(c.replicas); n > 0 {
		start := int(c.rr.Add(1))
		for k := 0; k < n; k++ {
			e := c.replicas[(start+k)%n]
			if e.stale.Load() || e.gated() {
				continue
			}
			cn, err := c.endpointConn(e)
			if err == nil {
				return cn, nil
			}
			lastErr = err
		}
	}
	if !c.primary.gated() {
		cn, err := c.endpointConn(c.primary)
		if err == nil {
			return cn, nil
		}
		lastErr = err
	}
	// Everything healthy is gated; a stale replica is still a better
	// answer than none.
	for _, e := range c.replicas {
		if e.gated() {
			continue
		}
		cn, err := c.endpointConn(e)
		if err == nil {
			return cn, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = &ConnError{Err: errors.New("all endpoints backing off")}
	}
	return nil, lastErr
}

// roundTrip sends one request and waits for its completion. Transport
// failures are retried (on a re-picked connection) only when the
// operation is idempotent; StatusBusy — which the server sends before
// executing anything — is retried with backoff for every operation.
func (c *Client) roundTrip(op wire.Op, payload []byte, write, idempotent bool) (*Call, error) {
	var lastErr error
	connRetries, busyRetries := 0, 0
	for {
		var err error
		cn, perr := c.pickConn(write)
		if perr == nil {
			call := cn.send(op, payload, c.opts.RequestTimeout)
			<-call.done
			if call.Err == nil {
				return call, nil
			}
			err = call.Err
		} else {
			err = perr
		}
		lastErr = err
		if c.closed.Load() {
			return nil, lastErr
		}
		var ce *ConnError
		switch {
		case errors.Is(err, ErrBusy):
			if busyRetries >= c.opts.Retries {
				return nil, lastErr
			}
			busyRetries++
			time.Sleep(backoffDelay(c.opts.RedialBackoff, c.opts.RedialBackoffMax, busyRetries))
		case errors.As(err, &ce):
			if !idempotent || connRetries >= c.opts.Retries {
				return nil, lastErr
			}
			connRetries++
		default:
			return nil, lastErr // application-level: never retried
		}
	}
}

// Get returns the value stored under key on the server, and whether the
// key was present. Idempotent: retried on transport failure.
func (c *Client) Get(key bmeh.Key) (uint64, bool, error) {
	call, err := c.roundTrip(wire.OpGet, wire.AppendGetReq(nil, key), false, true)
	if err != nil {
		return 0, false, err
	}
	return call.Value, call.Found, nil
}

// Put stores value under key. It returns bmeh.ErrDuplicate when the key
// is already present. Not idempotent: a transport failure mid-flight is
// returned as a *ConnError without retrying (the server may have applied
// the write).
func (c *Client) Put(key bmeh.Key, value uint64) error {
	_, err := c.roundTrip(wire.OpPut, wire.AppendPutReq(nil, key, value), true, false)
	return err
}

// Delete removes key, reporting whether it was present. Not retried: a
// replayed delete would misreport an already-removed key as absent.
//
// Unlike Put, the ack does not wait for a commit: the server answers as
// soon as the delete is applied in memory. The delete is visible to later
// reads on the primary at once, but it becomes durable — and reaches
// replicas — only with the server's next commit (a PUT batch, a Batch, a
// Sync, or the drain on shutdown). Call Sync after Delete when the delete
// must survive a crash.
func (c *Client) Delete(key bmeh.Key) (bool, error) {
	call, err := c.roundTrip(wire.OpDel, wire.AppendGetReq(nil, key), true, false)
	if err != nil {
		return false, err
	}
	return call.Found, nil
}

// Range returns up to limit records in the axis-aligned box [lo, hi]
// (limit ≤ 0 accepts the server's cap). The second result is true when
// the server stopped early and more records exist in the box.
// Idempotent: retried on transport failure.
func (c *Client) Range(lo, hi bmeh.Key, limit int) ([]bmeh.KV, bool, error) {
	if limit < 0 {
		limit = 0
	}
	call, err := c.roundTrip(wire.OpRange, wire.AppendRangeReq(nil, lo, hi, uint32(limit)), false, true)
	if err != nil {
		return nil, false, err
	}
	return call.KVs, call.More, nil
}

// Batch inserts the given pairs in one request, returning how many were
// inserted (the remainder were duplicates). Not idempotent, not retried.
func (c *Client) Batch(kvs []bmeh.KV) (int, error) {
	enc := make([]wire.KV, len(kvs))
	for i, kv := range kvs {
		enc[i] = wire.KV{Key: kv.Key, Value: kv.Value}
	}
	call, err := c.roundTrip(wire.OpBatch, wire.AppendBatchReq(nil, enc), true, false)
	if err != nil {
		return 0, err
	}
	return call.Inserted, nil
}

// Sync asks the server to commit everything it has acknowledged. A
// write (it must reach the primary), but idempotent: retried on
// transport failure.
func (c *Client) Sync() error {
	_, err := c.roundTrip(wire.OpSync, nil, true, true)
	return err
}

// Stats returns a server's index statistics — from a replica when one
// is serving reads. Idempotent.
func (c *Client) Stats() (Stats, error) {
	call, err := c.roundTrip(wire.OpStats, nil, false, true)
	if err != nil {
		return Stats{}, err
	}
	return call.Stats, nil
}

// GetAsync issues a pipelined GET and returns immediately; read the
// result from the Call after Done. Async calls are not retried.
func (c *Client) GetAsync(key bmeh.Key) *Call {
	return c.async(wire.OpGet, wire.AppendGetReq(nil, key))
}

// PutAsync issues a pipelined PUT and returns immediately. Like Put it
// is not retried; completion carries nil, bmeh.ErrDuplicate, or an
// error.
func (c *Client) PutAsync(key bmeh.Key, value uint64) *Call {
	return c.async(wire.OpPut, wire.AppendPutReq(nil, key, value))
}

func (c *Client) async(op wire.Op, payload []byte) *Call {
	write := op == wire.OpPut
	cn, err := c.pickConn(write)
	if err != nil {
		call := &Call{op: op, done: make(chan struct{})}
		call.Err = err
		close(call.done)
		return call
	}
	return cn.send(op, payload, c.opts.RequestTimeout)
}

// EndpointHealth is one node's routing state as the client sees it.
type EndpointHealth struct {
	Addr      string
	Primary   bool
	Connected bool // at least one live pooled connection
	Backoff   bool // inside its redial backoff window
	Stale     bool // demoted from reads for lagging past MaxLag
	Lag       uint64
	Dials     int64 // dial attempts so far (gated redials don't count)
}

// Health snapshots every endpoint's routing state, primary first.
func (c *Client) Health() []EndpointHealth {
	eps := c.endpoints()
	out := make([]EndpointHealth, len(eps))
	for i, e := range eps {
		e.mu.Lock()
		backoff := time.Now().Before(e.nextDial)
		e.mu.Unlock()
		out[i] = EndpointHealth{
			Addr:      e.addr,
			Primary:   e.primary,
			Connected: e.live.Load() > 0,
			Backoff:   backoff,
			Stale:     e.stale.Load(),
			Lag:       e.lag.Load(),
			Dials:     e.dials.Load(),
		}
	}
	return out
}

// ProbeNow runs one synchronous health probe round: each replica is
// asked for STATS, its lag recorded, and its read eligibility updated.
// The background prober does the same every Options.HealthInterval.
func (c *Client) ProbeNow() {
	for _, e := range c.replicas {
		c.probe(e)
	}
}

func (c *Client) probe(e *endpoint) {
	cn, err := c.endpointConn(e)
	if err != nil {
		// Unreachable: the redial gate already keeps it out of routing;
		// staleness is left as last measured.
		return
	}
	call := cn.send(wire.OpStats, nil, c.opts.RequestTimeout)
	<-call.done
	if call.Err != nil {
		return
	}
	var lag uint64
	if call.Stats.PrimarySeq > call.Stats.CommitSeq {
		lag = call.Stats.PrimarySeq - call.Stats.CommitSeq
	}
	e.lag.Store(lag)
	e.stale.Store(lag > c.opts.MaxLag)
}

func (c *Client) proberLoop() {
	defer close(c.proberDone)
	t := time.NewTicker(c.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.proberStop:
			return
		case <-t.C:
			c.ProbeNow()
		}
	}
}

// Call is one in-flight (or completed) pipelined request. Its result
// fields are valid only after Done is closed / Wait returns.
type Call struct {
	// Err is the call's failure: nil, bmeh.ErrDuplicate, a RemoteError,
	// or a *ConnError.
	Err error
	// Value and Found hold a GET result.
	Value uint64
	Found bool
	// KVs and More hold a RANGE result.
	KVs  []bmeh.KV
	More bool
	// Inserted holds a BATCH result.
	Inserted int
	// Stats holds a STATS result.
	Stats Stats
	// Session and NextSeq hold a LOAD_BEGIN result; AckSeq a LOAD_CHUNK
	// acknowledgment; Loaded and Duplicates a LOAD_COMMIT result.
	Session    uint64
	NextSeq    uint64
	AckSeq     uint64
	Loaded     uint64
	Duplicates uint64
	// ShardMapBlob holds a SHARD_MAP result (encoded map); ShardEpoch a
	// SHARD_MAP_SET acknowledgment; Median and MedianOwned a
	// SHARD_MEDIAN result.
	ShardMapBlob []byte
	ShardEpoch   uint64
	Median       uint64
	MedianOwned  uint64

	op    wire.Op
	done  chan struct{}
	timer *time.Timer
}

// Done is closed when the call completes.
func (ca *Call) Done() <-chan struct{} { return ca.done }

// Wait blocks until the call completes and returns its error.
func (ca *Call) Wait() error {
	<-ca.done
	return ca.Err
}

// netConn is one pipelined connection.
type netConn struct {
	nc  net.Conn
	max int

	wmu sync.Mutex
	bw  *bufio.Writer

	pmu     sync.Mutex
	pending map[uint64]*Call
	err     error // sticky transport failure; guarded by pmu
	idSeq   uint64
}

func newNetConn(nc net.Conn, maxPayload int) *netConn {
	cn := &netConn{
		nc:      nc,
		max:     maxPayload,
		bw:      bufio.NewWriterSize(nc, 64<<10),
		pending: make(map[uint64]*Call),
	}
	go cn.readLoop()
	return cn
}

func (cn *netConn) broken() bool {
	cn.pmu.Lock()
	defer cn.pmu.Unlock()
	return cn.err != nil
}

// fail marks the connection dead and completes every pending call with
// err. Idempotent; the first failure wins.
func (cn *netConn) fail(err error) {
	cn.pmu.Lock()
	if cn.err != nil {
		cn.pmu.Unlock()
		return
	}
	cn.err = err
	calls := cn.pending
	cn.pending = nil
	cn.pmu.Unlock()
	cn.nc.Close()
	for _, call := range calls {
		call.finish(err)
	}
}

func (ca *Call) finish(err error) {
	if ca.timer != nil {
		ca.timer.Stop()
	}
	ca.Err = err
	close(ca.done)
}

// send registers a call, writes its frame, and returns it. The call is
// already completed (with the sticky error) when the connection has
// failed.
func (cn *netConn) send(op wire.Op, payload []byte, timeout time.Duration) *Call {
	call := &Call{op: op, done: make(chan struct{})}
	cn.pmu.Lock()
	if cn.err != nil {
		err := cn.err
		cn.pmu.Unlock()
		call.Err = err
		close(call.done)
		return call
	}
	cn.idSeq++
	id := cn.idSeq
	cn.pending[id] = call
	if timeout > 0 {
		// A pipelined response cannot be abandoned individually, so a
		// timeout declares the whole connection dead; its other calls
		// fail retryably and the pool redials.
		call.timer = time.AfterFunc(timeout, func() {
			cn.fail(&ConnError{Err: fmt.Errorf("request timeout after %v", timeout)})
		})
	}
	cn.pmu.Unlock()

	cn.wmu.Lock()
	buf := wire.AppendFrame(nil, wire.Frame{Op: op, ID: id, Payload: payload})
	_, err := cn.bw.Write(buf)
	if err == nil {
		err = cn.bw.Flush()
	}
	cn.wmu.Unlock()
	if err != nil {
		cn.fail(&ConnError{Err: err})
	}
	return call
}

func (cn *netConn) readLoop() {
	r := wire.NewReader(bufio.NewReaderSize(cn.nc, 64<<10), cn.max)
	for {
		fr, err := r.Next()
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			cn.fail(&ConnError{Err: err})
			return
		}
		cn.pmu.Lock()
		call := cn.pending[fr.ID]
		delete(cn.pending, fr.ID)
		cn.pmu.Unlock()
		if call == nil {
			// A completion we no longer track (late response after the
			// conn was failed); nothing to deliver to.
			continue
		}
		if fr.Op != call.op.Response() {
			cn.fail(&ConnError{Err: fmt.Errorf("response opcode %v for request %v", fr.Op, call.op)})
			return
		}
		call.finish(call.decode(fr.Payload))
	}
}

// decode parses a response payload into the call's result fields; the
// returned error becomes the call's Err. The payload aliases the read
// buffer, so everything retained is copied here.
func (ca *Call) decode(payload []byte) error {
	st, body, err := wire.DecodeStatus(payload)
	if err != nil {
		return err
	}
	switch st {
	case wire.StatusNotFound:
		ca.Found = false
		return nil
	case wire.StatusDuplicate:
		return bmeh.ErrDuplicate
	case wire.StatusErr:
		return RemoteError(string(body))
	case wire.StatusBusy:
		return ErrBusy
	case wire.StatusReadOnly:
		return ErrReadOnly
	case wire.StatusWrongShard:
		return &wrongShardError{epoch: wire.DecodeWrongShardBody(body)}
	case wire.StatusOK:
	default:
		return fmt.Errorf("client: unknown response status %d", st)
	}
	switch ca.op {
	case wire.OpGet:
		v, err := wire.DecodeGetRespBody(body)
		if err != nil {
			return err
		}
		ca.Value, ca.Found = v, true
	case wire.OpDel:
		ca.Found = true
	case wire.OpRange:
		kvs, more, err := wire.DecodeRangeRespBody(body)
		if err != nil {
			return err
		}
		ca.KVs = make([]bmeh.KV, len(kvs))
		for i, kv := range kvs {
			ca.KVs[i] = bmeh.KV{Key: bmeh.Key(kv.Key), Value: kv.Value}
		}
		ca.More = more
	case wire.OpBatch:
		n, err := wire.DecodeBatchRespBody(body)
		if err != nil {
			return err
		}
		ca.Inserted = int(n)
	case wire.OpLoadBegin:
		s, seq, err := wire.DecodeLoadBeginRespBody(body)
		if err != nil {
			return err
		}
		ca.Session, ca.NextSeq = s, seq
	case wire.OpLoadChunk:
		seq, err := wire.DecodeLoadChunkRespBody(body)
		if err != nil {
			return err
		}
		ca.AckSeq = seq
	case wire.OpLoadCommit:
		loaded, dups, err := wire.DecodeLoadCommitRespBody(body)
		if err != nil {
			return err
		}
		ca.Loaded, ca.Duplicates = loaded, dups
	case wire.OpStats:
		s, err := wire.DecodeStatsRespBody(body)
		if err != nil {
			return err
		}
		ca.Stats = Stats{
			Scheme:            bmeh.Scheme(s.Scheme),
			Dims:              int(s.Dims),
			Width:             int(s.Width),
			DirectoryLevels:   int(s.DirectoryLevels),
			Records:           s.Records,
			Reads:             s.Reads,
			Writes:            s.Writes,
			DirectoryElements: s.DirectoryElements,
			DataPages:         int(s.DataPages),
			DirectoryPages:    int(s.DirectoryPages),
			LoadFactor:        s.LoadFactor,
			Role:              s.Role,
			Replicas:          int(s.Replicas),
			CommitSeq:         s.CommitSeq,
			PrimarySeq:        s.PrimarySeq,
			COW:               s.COW != 0,
			Epoch:             s.Epoch,
			PinnedEpochs:      int(s.PinnedEpochs),
			ReclaimablePages:  int(s.ReclaimablePages),
			Clustered:         s.Clustered != 0,
			ShardID:           int(s.ShardID),
			ShardLo:           s.ShardLo,
			ShardHi:           s.ShardHi,
			ShardMapEpoch:     s.ShardMapEpoch,
		}
	case wire.OpShardMap:
		blob, err := wire.DecodeShardMapRespBody(body)
		if err != nil {
			return err
		}
		ca.ShardMapBlob = append([]byte(nil), blob...)
	case wire.OpShardMapSet:
		e, err := wire.DecodeShardEpochRespBody(body)
		if err != nil {
			return err
		}
		ca.ShardEpoch = e
	case wire.OpShardMedian:
		m, n, err := wire.DecodeShardMedianRespBody(body)
		if err != nil {
			return err
		}
		ca.Median, ca.MedianOwned = m, n
	}
	return nil
}

// ShardMap fetches the node's current shard map, or ErrNoShardMap when
// the node is not part of a cluster. Idempotent; served by any node.
func (c *Client) ShardMap() (*cluster.Map, error) {
	call, err := c.roundTrip(wire.OpShardMap, nil, false, true)
	if err != nil {
		return nil, err
	}
	if call.ShardMapBlob == nil {
		return nil, ErrNoShardMap
	}
	return cluster.DecodeMap(call.ShardMapBlob)
}

// SetShardMap pushes a shard map to the connected node, telling it that
// it is shard id in that map. The node adopts the map only if its epoch
// is newer than what it holds; either way the returned epoch is the one
// now in force there. Control-plane: used by the cluster launcher and
// the split controller.
func (c *Client) SetShardMap(id uint32, m *cluster.Map) (epoch uint64, err error) {
	payload := wire.AppendShardMapSetReq(nil, id, cluster.AppendMap(nil, m))
	call, err := c.roundTrip(wire.OpShardMapSet, payload, true, true)
	if err != nil {
		return 0, err
	}
	return call.ShardEpoch, nil
}

// ShardMedian asks the node for the median pseudo-key prefix of its
// owned records — the boundary a balanced split would use — and how
// many owned records that median bisects.
func (c *Client) ShardMedian() (median, owned uint64, err error) {
	call, err := c.roundTrip(wire.OpShardMedian, nil, true, true)
	if err != nil {
		return 0, 0, err
	}
	return call.Median, call.MedianOwned, nil
}

// ShardFence fences writes to the prefix range [lo, hi) on the
// connected node (hi 0 meaning end of space); lo == hi clears the
// fence. Fenced writes answer ErrWrongShard while reads keep serving —
// the split protocol's hand-off latch.
func (c *Client) ShardFence(lo, hi uint64) error {
	_, err := c.roundTrip(wire.OpShardFence, wire.AppendShardFenceReq(nil, lo, hi), true, true)
	return err
}
