// Package server serves a bmeh.Index over TCP using the wire protocol.
//
// Each accepted connection gets one reader goroutine (decode, dispatch)
// and one writer goroutine; responses are encoded by whoever produces
// them, travel through a per-connection channel, carry the request's ID,
// and may complete out of order, so clients can pipeline. The writer
// sends whatever is queued when it wakes as one write (see writeLoop),
// so a pipelined burst of responses costs a few syscalls, not one each.
// Cheap read-side operations (GET, DEL, RANGE, STATS) are answered inline
// by the reader — they ride the index's latch-free lookup path and keep
// its zero-allocation descent hot. Operations that end in a commit (PUT,
// BATCH, SYNC) are completed asynchronously: they funnel from every
// connection into one write queue (see coalesce.go), which batches them
// into shared commits so fsyncs are amortized across clients, and their
// responses are sent when the shared batch commits. DEL is answered
// inline, before it is durable: it reaches the WAL with the next commit.
//
// Ordering model: an acknowledged write is visible to every request the
// server decodes after the acknowledgment was sent. Within one
// connection's pipeline there is no cross-operation ordering beyond
// that — a GET pipelined behind a still-unacknowledged PUT may be
// answered from the pre-PUT state, because lookups run inline while the
// PUT waits for its shared commit. Clients needing read-your-write wait
// for the PUT's completion before issuing the read (the synchronous
// client API does this by construction).
//
// Shutdown drains gracefully: the listener closes, every connection
// stops reading but finishes and flushes its in-flight responses, the
// write queue commits its tail, and the index is Synced — so a subsequent
// open finds a clean shutdown (bmeh.RecoveryInfo.CleanShutdown).
//
// Replication: with Config.Hub set (a primary), a connection may issue
// REPL_SUBSCRIBE; the server answers with its commit sequence, then
// pushes REPL_RECORDS frames — snapshot first if the subscriber is too
// far behind, live segments after — until the connection drops. With
// Config.ReadOnly set (a replica), mutating operations are refused with
// StatusReadOnly while GET/RANGE/STATS keep serving.
//
// Overload protection: connections beyond MaxConns are answered with one
// StatusBusy response and closed; a connection with MaxInflight
// asynchronous requests outstanding gets StatusBusy for further writes
// until its pipeline drains. StatusBusy is retryable by contract.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bmeh"
	"bmeh/internal/cluster"
	"bmeh/internal/repl"
	"bmeh/internal/wire"
)

// Config tunes a Server. The zero value is usable.
type Config struct {
	// MaxPayload bounds the payload size accepted from clients
	// (default wire.DefaultMaxPayload).
	MaxPayload int
	// RangeLimit caps the entries in one RANGE response (default 4096).
	// Clients may ask for less; a truncated response sets its
	// continuation flag.
	RangeLimit int
	// WriteTimeout bounds one physical write to a client (default 30s).
	// A connection that cannot accept bytes for this long is dropped so
	// a stalled client cannot pin the drain path or the write queue.
	WriteTimeout time.Duration
	// MaxConns caps concurrently served connections (default 4096). A
	// connection over the cap receives one StatusBusy response and is
	// closed; clients treat that as retryable.
	MaxConns int
	// MaxInflight caps one connection's outstanding asynchronous
	// requests (PUT/BATCH/SYNC awaiting commit; default 1024). Further
	// writes on that connection answer StatusBusy until the pipeline
	// drains.
	MaxInflight int
	// ReadOnly refuses mutating operations (PUT, DEL, BATCH, SYNC) with
	// StatusReadOnly. Replica servers set it; reads keep serving.
	ReadOnly bool
	// Hub, when non-nil, serves REPL_SUBSCRIBE: this server is a primary
	// and streams its commit batches to subscribed replicas.
	Hub *repl.Hub
	// ReplicaStatus, when non-nil, marks this server a replica and
	// supplies the lag numbers STATS reports: the primary's last
	// observed commit sequence, the locally applied sequence, and
	// whether the replication link is currently up.
	ReplicaStatus func() (primarySeq, appliedSeq uint64, connected bool)
	// Shard, when non-nil, is this node's view of the cluster (shard ID,
	// map, write fence). When nil the server allocates an unclustered
	// state, so any server can be adopted into a cluster later via
	// SHARD_MAP_SET. Once clustered, requests for keys outside the owned
	// pseudo-key range answer StatusWrongShard (see shard.go).
	Shard *cluster.ShardState
	// Logf, when non-nil, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxPayload <= 0 {
		c.MaxPayload = wire.DefaultMaxPayload
	}
	if c.RangeLimit <= 0 {
		c.RangeLimit = 4096
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 4096
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 1024
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("server: closed")

// Server serves one Index over one listener.
type Server struct {
	ix    *bmeh.Index
	cfg   Config
	co    *coalescer
	shard *cluster.ShardState
	// dims and width are the index's key geometry, checked at dispatch.
	dims, width int

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining bool
	wg       sync.WaitGroup // live connection handlers

	// Streaming bulk-load sessions (see load.go). Sessions outlive the
	// connection that opened them so a client can resume after a redial.
	loadMu  sync.Mutex
	loads   map[uint64]*loadSession
	loadSeq uint64
	// loadSweepStop ends the timer-driven session sweeper; loadSweepDone
	// (set under mu when Serve starts the sweeper, nil before) is closed
	// when it has exited, so Shutdown can wait for it before tearing down
	// the remaining sessions.
	loadSweepStop chan struct{}
	loadSweepDone chan struct{}
}

// New returns an unstarted Server for ix.
func New(ix *bmeh.Index, cfg Config) *Server {
	cfg = cfg.withDefaults()
	opts := ix.Options()
	shard := cfg.Shard
	if shard == nil {
		shard = cluster.NewShardState(opts.Dims, opts.Width)
	}
	return &Server{
		ix:            ix,
		cfg:           cfg,
		shard:         shard,
		dims:          opts.Dims,
		width:         opts.Width,
		co:            newCoalescer(ix),
		conns:         make(map[*conn]struct{}),
		loads:         make(map[uint64]*loadSession),
		loadSweepStop: make(chan struct{}),
	}
}

// Addr returns the listener's address once Serve has been called (nil
// before).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// ListenAndServe listens on addr ("host:port") and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown. It always returns a
// non-nil error; after a graceful Shutdown the error is ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	if s.ln != nil {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: Serve called twice")
	}
	s.ln = ln
	s.loadSweepDone = make(chan struct{})
	go s.sweepLoadsLoop(s.loadSweepDone)
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			return err
		}
		c := &conn{
			srv:        s,
			nc:         nc,
			out:        make(chan *[]byte, 128),
			writerDone: make(chan struct{}),
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		if len(s.conns) >= s.cfg.MaxConns {
			s.mu.Unlock()
			go s.rejectBusy(nc)
			continue
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go c.run()
	}
}

// Shutdown drains the server: stop accepting, let every in-flight
// request complete and flush, commit the write queue's tail, then Sync the
// index so its WAL is clean. Connections that cannot drain before ctx
// expires are closed forcibly (their unsent responses are dropped, the
// staged data still commits). Shutdown does not close the index; the
// caller owns that.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil && !already {
		ln.Close()
	}
	// Unblock every reader: all future reads fail immediately, requests
	// already decoded (or buffered) still run and answer.
	for _, c := range conns {
		c.nc.SetReadDeadline(time.Now())
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var forced error
	select {
	case <-done:
	case <-ctx.Done():
		forced = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
	// All producers are gone; stop the session sweeper (so it cannot
	// reap a session out from under the teardown below), tear down any
	// load session still open (its staged pages are freed, the pre-load
	// state stands), then commit whatever is still staged. A Sync with
	// nothing left to commit checkpoints the WAL, and the index's Close
	// does so in any case, so the next open sees a clean shutdown.
	if !already {
		close(s.loadSweepStop)
	}
	s.mu.Lock()
	sweepDone := s.loadSweepDone
	s.mu.Unlock()
	if sweepDone != nil {
		<-sweepDone
	}
	s.abortAllLoads()
	s.co.close()
	if err := s.ix.Sync(); err != nil {
		return err
	}
	return forced
}

// rejectBusy answers one over-the-cap connection: read a single request,
// reply StatusBusy (retryable), close. The deadline bounds how long a
// silent dialer can hold the socket.
func (s *Server) rejectBusy(nc net.Conn) {
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(2 * time.Second))
	fr, err := wire.NewReader(newBufReader(nc), s.cfg.MaxPayload).Next()
	if err != nil {
		return
	}
	nc.Write(wire.AppendFrame(nil, wire.Frame{
		Op:      fr.Op.Response(),
		ID:      fr.ID,
		Payload: wire.AppendStatus(nil, wire.StatusBusy, ""),
	}))
}

// conn is one client connection.
type conn struct {
	srv *Server
	nc  net.Conn
	// out carries encoded response frames to the writer goroutine, which
	// coalesces whatever is queued into one write (see writeLoop). The
	// writer drains it until it is closed — even after a write error —
	// so completion callbacks can never block forever.
	out        chan *[]byte
	writerDone chan struct{}
	// wbuf is the writer's batch buffer, owned by writeLoop: allocated at
	// writeBatchBytes the first time two frames are found queued, never
	// grown past it.
	wbuf []byte
	// pending counts requests whose response is not yet queued on out
	// (PUT/BATCH/SYNC awaiting their commit, plus the replication
	// streamer).
	pending sync.WaitGroup
	// inflight counts asynchronous requests outstanding; at
	// Config.MaxInflight further writes answer StatusBusy.
	inflight atomic.Int64
	// replSub is this connection's hub subscription, set by the reader
	// goroutine on REPL_SUBSCRIBE and read by run() after the reader
	// exits (same-goroutine ordering, no lock needed).
	replSub *repl.Sub
}

// bufPool recycles frame encode buffers across connections; the writer
// drops a buffer above writeBatchBytes rather than pool it.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func (c *conn) run() {
	defer c.srv.wg.Done()
	go c.writeLoop()
	c.readLoop()
	// Closing the subscription ends the replication streamer; then wait
	// for every in-flight asynchronous response to be queued and let the
	// writer flush the channel and exit.
	if c.replSub != nil {
		c.srv.cfg.Hub.Unsubscribe(c.replSub)
	}
	c.pending.Wait()
	close(c.out)
	<-c.writerDone
	c.nc.Close()
	c.srv.mu.Lock()
	delete(c.srv.conns, c)
	c.srv.mu.Unlock()
}

func (c *conn) readLoop() {
	r := wire.NewReader(newBufReader(c.nc), c.srv.cfg.MaxPayload)
	for {
		fr, err := r.Next()
		if err != nil {
			if err != io.EOF && !isExpectedNetErr(err, c.srv) {
				c.srv.cfg.Logf("server: %v: read: %v", c.nc.RemoteAddr(), err)
			}
			return
		}
		if !fr.Op.IsRequest() {
			c.srv.cfg.Logf("server: %v: unexpected opcode %v", c.nc.RemoteAddr(), fr.Op)
			return
		}
		c.dispatch(fr)
	}
}

// writeBatchBytes caps one writer batch: the writer copies queued frames
// into its batch buffer up to this many bytes, so a connection never
// holds a larger write buffer. A frame at or above the cap (a replication
// snapshot chunk, a large RANGE answer) is written as it is, not copied.
const writeBatchBytes = 64 << 10

// writeLoop sends queued frames. After taking a frame it drains whatever
// else is already queued, without blocking, into one batch of at most
// writeBatchBytes, and writes the batch under one deadline with one
// Write: a pipelining client's responses leave in a few syscalls, not one
// per frame. A frame found alone is written straight from its buffer.
func (c *conn) writeLoop() {
	defer close(c.writerDone)
	var err error
	write := func(b []byte) {
		if err != nil {
			return
		}
		c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
		if _, err = c.nc.Write(b); err != nil {
			// Keep draining so queued completions never block; the
			// connection is torn down by run().
			c.nc.Close()
		}
	}
	flush := func() {
		if len(c.wbuf) > 0 {
			write(c.wbuf)
			c.wbuf = c.wbuf[:0]
		}
	}
	for bp := range c.out {
		for bp != nil {
			buf := *bp
			var next *[]byte
			select {
			case next = <-c.out: // nil once out is closed
			default:
			}
			if len(buf) >= writeBatchBytes || (next == nil && len(c.wbuf) == 0) {
				// Too large to copy, or alone: sent from its own buffer.
				flush()
				write(buf)
			} else {
				if len(c.wbuf)+len(buf) > writeBatchBytes {
					flush()
				}
				if c.wbuf == nil {
					c.wbuf = make([]byte, 0, writeBatchBytes)
				}
				c.wbuf = append(c.wbuf, buf...)
			}
			if cap(buf) <= writeBatchBytes {
				bufPool.Put(bp)
			}
			bp = next
		}
		flush()
	}
}

// send encodes a response frame and queues it for the writer.
func (c *conn) send(op wire.Op, id uint64, payload []byte) {
	bp := bufPool.Get().(*[]byte)
	*bp = wire.AppendFrame((*bp)[:0], wire.Frame{Op: op.Response(), ID: id, Payload: payload})
	c.out <- bp
}

// sendStatus queues a bare status (or error-message) response.
func (c *conn) sendStatus(op wire.Op, id uint64, st wire.Status, msg string) {
	c.send(op, id, wire.AppendStatus(nil, st, msg))
}

// checkKey rejects a key the index cannot convert: the wrong number of
// components, or a component past the index's width. Checked at dispatch,
// a malformed write fails alone instead of failing every write that
// shares its commit.
func (s *Server) checkKey(key []uint64) error {
	if len(key) != s.dims {
		return fmt.Errorf("key has %d components, index expects %d", len(key), s.dims)
	}
	if s.width < 64 {
		for j, c := range key {
			if c >= 1<<uint(s.width) {
				return fmt.Errorf("component %d (%d) exceeds the index's %d-bit width", j+1, c, s.width)
			}
		}
	}
	return nil
}

// enqueueWrite hands kvs (none for SYNC) to the write queue, holding a
// pipeline slot until answer has queued the response.
func (c *conn) enqueueWrite(kvs []bmeh.KV, answer func(dup []bool, err error)) {
	c.pending.Add(1)
	c.inflight.Add(1)
	c.srv.co.enqueue(writeReq{kvs: kvs, done: func(dup []bool, err error) {
		answer(dup, err)
		c.inflight.Add(-1)
		c.pending.Done()
	}})
}

// errStatus maps an index error to a wire status.
func errStatus(err error) (wire.Status, string) {
	switch {
	case err == nil:
		return wire.StatusOK, ""
	case errors.Is(err, bmeh.ErrDuplicate):
		return wire.StatusDuplicate, ""
	default:
		return wire.StatusErr, err.Error()
	}
}

func (c *conn) dispatch(fr wire.Frame) {
	switch fr.Op {
	case wire.OpPut, wire.OpDel, wire.OpBatch, wire.OpSync:
		if c.srv.cfg.ReadOnly {
			c.sendStatus(fr.Op, fr.ID, wire.StatusReadOnly, "")
			return
		}
		// Writes either commit asynchronously (holding a pipeline slot)
		// or, past the cap, answer a retryable StatusBusy so one
		// connection cannot queue unbounded commit work.
		if fr.Op != wire.OpDel && c.inflight.Load() >= int64(c.srv.cfg.MaxInflight) {
			c.sendStatus(fr.Op, fr.ID, wire.StatusBusy, "")
			return
		}
	}
	switch fr.Op {
	case wire.OpGet:
		key, err := wire.DecodeGetReq(fr.Payload)
		if err != nil {
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, err.Error())
			return
		}
		if !c.srv.shard.OwnsKey(key) {
			c.sendWrongShard(fr.Op, fr.ID)
			return
		}
		v, ok, err := c.srv.ix.Get(bmeh.Key(key))
		switch {
		case err != nil:
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, err.Error())
		case !ok:
			c.sendStatus(fr.Op, fr.ID, wire.StatusNotFound, "")
		default:
			c.send(fr.Op, fr.ID, wire.AppendGetResp(nil, v))
		}

	case wire.OpDel:
		key, err := wire.DecodeGetReq(fr.Payload)
		if err != nil {
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, err.Error())
			return
		}
		if !c.srv.shard.WriteAllowed(key) {
			c.sendWrongShard(fr.Op, fr.ID)
			return
		}
		ok, err := c.srv.ix.Delete(bmeh.Key(key))
		switch {
		case err != nil:
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, err.Error())
		case !ok:
			c.sendStatus(fr.Op, fr.ID, wire.StatusNotFound, "")
		default:
			c.sendStatus(fr.Op, fr.ID, wire.StatusOK, "")
		}

	case wire.OpPut:
		key, val, err := wire.DecodePutReq(fr.Payload)
		if err == nil {
			err = c.srv.checkKey(key)
		}
		if err != nil {
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, err.Error())
			return
		}
		if !c.srv.shard.WriteAllowed(key) {
			c.sendWrongShard(fr.Op, fr.ID)
			return
		}
		// The response leaves when the shared batch commits; requests
		// decoded after this one may well answer first (pipelining).
		id := fr.ID
		c.enqueueWrite([]bmeh.KV{{Key: bmeh.Key(key), Value: val}}, func(dup []bool, err error) {
			if err == nil && dup[0] {
				err = bmeh.ErrDuplicate
			}
			st, msg := errStatus(err)
			c.sendStatus(wire.OpPut, id, st, msg)
		})

	case wire.OpRange:
		lo, hi, limit, err := wire.DecodeRangeReq(fr.Payload)
		if err != nil {
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, err.Error())
			return
		}
		max := c.srv.cfg.RangeLimit
		if limit != 0 && int(limit) < max {
			max = int(limit)
		}
		kvs := make([]wire.KV, 0, 16)
		more := false
		// A clustered node filters the scan to its owned prefix range:
		// during a split both sides briefly hold the moving records, and
		// the filter keeps a scatter-gather query from seeing them twice.
		shardLo, shardHi, clustered := c.srv.shard.OwnedRange()
		dims, width := c.srv.shard.Geometry()
		collect := func(k bmeh.Key, v uint64) bool {
			if len(kvs) == max {
				more = true
				return false
			}
			if clustered && !cluster.InRange(cluster.Prefix(k, dims, width), shardLo, shardHi) {
				return true
			}
			// k is already a defensive copy (see bmeh.Index.Range); it can
			// be retained across the scan without aliasing pooled buffers.
			kvs = append(kvs, wire.KV{Key: []uint64(k), Value: v})
			return true
		}
		// Under WriteModeCOW the scan runs against a per-request pinned
		// snapshot: the client gets one consistent cut of the index even
		// while writers commit, and the scan itself takes no tree locks.
		// Other modes scan the live index under the structure lock.
		if snap, serr := c.srv.ix.Snapshot(); serr == nil {
			err = snap.Range(bmeh.Key(lo), bmeh.Key(hi), collect)
			snap.Close()
		} else {
			err = c.srv.ix.Range(bmeh.Key(lo), bmeh.Key(hi), collect)
		}
		if err != nil {
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, err.Error())
			return
		}
		c.send(fr.Op, fr.ID, wire.AppendRangeResp(nil, more, kvs))

	case wire.OpBatch:
		kvs, err := wire.DecodeBatchReq(fr.Payload)
		for i := 0; err == nil && i < len(kvs); i++ {
			if err = c.srv.checkKey(kvs[i].Key); err != nil {
				err = fmt.Errorf("batch entry %d: %w", i, err)
			}
		}
		if err != nil {
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, err.Error())
			return
		}
		// A batch is all-or-nothing: if any key is out of range (or
		// fenced), refuse the whole request so the router re-splits it
		// against a fresh map instead of half-applying.
		for _, kv := range kvs {
			if !c.srv.shard.WriteAllowed(kv.Key) {
				c.sendWrongShard(fr.Op, fr.ID)
				return
			}
		}
		batch := make([]bmeh.KV, len(kvs))
		for i, kv := range kvs {
			batch[i] = bmeh.KV{Key: bmeh.Key(kv.Key), Value: kv.Value}
		}
		// Through the write queue like PUT: the whole batch shares one
		// commit with every other write queued beside it.
		id := fr.ID
		c.enqueueWrite(batch, func(dup []bool, err error) {
			if err != nil {
				c.sendStatus(wire.OpBatch, id, wire.StatusErr, err.Error())
				return
			}
			n := len(dup)
			for _, d := range dup {
				if d {
					n--
				}
			}
			c.send(wire.OpBatch, id, wire.AppendBatchResp(nil, uint32(n)))
		})

	case wire.OpSync:
		// A SYNC is an empty write: it returns once the next shared
		// commit, which covers everything applied before it, is durable.
		id := fr.ID
		c.enqueueWrite(nil, func(_ []bool, err error) {
			st, msg := errStatus(err)
			c.sendStatus(wire.OpSync, id, st, msg)
		})

	case wire.OpStats:
		st := c.srv.ix.Stats()
		opts := c.srv.ix.Options()
		role := wire.RolePrimary
		var replicas uint32
		commitSeq := c.srv.ix.ReplCommitSeq()
		primarySeq := commitSeq
		if c.srv.cfg.ReplicaStatus != nil {
			role = wire.RoleReplica
			p, a, _ := c.srv.cfg.ReplicaStatus()
			commitSeq, primarySeq = a, p
			if primarySeq < commitSeq {
				// The link is down and the last observation is stale;
				// never report negative lag.
				primarySeq = commitSeq
			}
		} else if c.srv.cfg.Hub != nil {
			replicas = uint32(c.srv.cfg.Hub.Status().Subscribers)
		}
		ss := c.srv.ix.SnapshotStats()
		var cow uint8
		if ss.COW {
			cow = 1
		}
		var shardID uint32
		var shardLo, shardHi, mapEpoch uint64
		var clustered uint8
		if id, m, ok := c.srv.shard.Snapshot(); ok {
			clustered = 1
			shardID = id
			mapEpoch = m.Epoch
			shardLo, shardHi = m.Range(int(id))
		}
		c.send(fr.Op, fr.ID, wire.AppendStatsResp(nil, wire.Stats{
			Scheme:            uint8(opts.Scheme),
			Dims:              uint8(opts.Dims),
			Width:             uint8(opts.Width),
			DirectoryLevels:   uint8(st.DirectoryLevels),
			Records:           uint64(st.Records),
			Reads:             st.Reads,
			Writes:            st.Writes,
			DirectoryElements: uint64(st.DirectoryElements),
			DataPages:         uint32(st.DataPages),
			DirectoryPages:    uint32(st.DirectoryPages),
			LoadFactor:        st.LoadFactor,
			Role:              role,
			Replicas:          replicas,
			CommitSeq:         commitSeq,
			PrimarySeq:        primarySeq,
			Epoch:             ss.Epoch,
			PinnedEpochs:      uint32(ss.PinnedEpochs),
			ReclaimablePages:  uint32(ss.ReclaimablePages),
			COW:               cow,
			Clustered:         clustered,
			ShardID:           shardID,
			ShardLo:           shardLo,
			ShardHi:           shardHi,
			ShardMapEpoch:     mapEpoch,
		}))

	case wire.OpReplSubscribe:
		lastSeq, err := wire.DecodeSeq(fr.Payload)
		if err != nil {
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, err.Error())
			return
		}
		if c.srv.cfg.Hub == nil {
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, "replication not enabled")
			return
		}
		if c.replSub != nil {
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, "already subscribed")
			return
		}
		sub, snap, err := c.srv.cfg.Hub.Subscribe(lastSeq)
		if err != nil {
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, err.Error())
			return
		}
		c.replSub = sub
		// The acknowledgment leaves before any REPL_RECORDS: both travel
		// c.out, and the streamer starts after this enqueue.
		c.send(fr.Op, fr.ID, wire.AppendSeqResp(nil, c.srv.ix.ReplCommitSeq()))
		c.pending.Add(1)
		go c.streamRepl(sub, snap)

	case wire.OpLoadBegin, wire.OpLoadChunk, wire.OpLoadCommit, wire.OpLoadAbort:
		c.dispatchLoad(fr)

	case wire.OpShardMap, wire.OpShardMapSet, wire.OpShardMedian, wire.OpShardFence:
		c.dispatchShard(fr)

	case wire.OpReplHeartbeat:
		seq, err := wire.DecodeSeq(fr.Payload)
		if err != nil {
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, err.Error())
			return
		}
		if c.srv.cfg.Hub != nil {
			c.srv.cfg.Hub.Ack(c.replSub, seq)
		}
		c.send(fr.Op, fr.ID, wire.AppendSeqResp(nil, c.srv.ix.ReplCommitSeq()))

	default:
		c.sendStatus(fr.Op, fr.ID, wire.StatusErr, fmt.Sprintf("unknown opcode %v", fr.Op))
	}
}

// streamRepl pushes the replication stream to one subscribed connection:
// the seed snapshot if the hub issued one, then every live segment and
// heartbeat from the subscription, deduplicated by sequence (snapshot
// catch-up and the queue may overlap). It ends when the subscription's
// channel closes — on connection teardown, hub close, or when the hub
// drops a subscriber that cannot keep up; the replica then redials and
// resubscribes from its applied sequence.
func (c *conn) streamRepl(sub *repl.Sub, snap *repl.Snapshot) {
	defer c.pending.Done()
	chunk := c.srv.cfg.MaxPayload / 2
	var lastSent uint64
	if snap != nil {
		lastSent = snap.Seq
		for _, m := range repl.EncodeSnapshot(snap, chunk) {
			c.send(wire.OpReplRecords, 0, wire.AppendReplMsgResp(nil, m))
		}
	}
	for msg := range sub.C {
		if msg.Seg == nil {
			c.send(wire.OpReplHeartbeat, 0, wire.AppendSeqResp(nil, msg.Heartbeat))
			continue
		}
		if msg.Seg.Seq <= lastSent {
			continue
		}
		lastSent = msg.Seg.Seq
		for _, m := range repl.EncodeSegment(msg.Seg, chunk) {
			c.send(wire.OpReplRecords, 0, wire.AppendReplMsgResp(nil, m))
		}
	}
}

// isExpectedNetErr reports errors that are part of normal connection
// teardown: the drain deadline firing, or the socket closing under a
// forced shutdown.
func isExpectedNetErr(err error, s *Server) bool {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return true
		}
		if errors.Is(err, net.ErrClosed) {
			return true
		}
	}
	return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed)
}
