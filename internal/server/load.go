package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bmeh"
	"bmeh/internal/wire"
)

// Streaming bulk-load sessions. A session is owned by the Server, not the
// connection that opened it: the client may lose its connection mid-
// stream, redial, and resume by sending LOAD_BEGIN with the session ID it
// was issued — the server answers with the next chunk sequence it
// expects, so the client knows exactly which buffered chunks to resend.
// Chunks ride the reader goroutine into a bounded channel feeding the
// index's BulkLoad iterator; when the channel is full the reader blocks,
// which stops reading from the socket, which fills the client's send
// window — backpressure end to end, no unbounded buffering anywhere.
//
// Durability contract: nothing a chunk carries is acknowledged as
// committed. Only LOAD_COMMIT's response, sent after BulkLoad's root-swap
// Sync returns, promises the records are durable — a crash before that
// recovers the pre-load index, matching the core crash matrix.
//
// Ownership: on a clustered node every record must lie in the node's
// pseudo-key range, as for PUT. One foreign key fails the whole load, so
// nothing of it is stored.

// loadIdleExpiry is how long a session may sit idle (no chunk, commit, or
// resume) before a sweep reclaims it.
const loadIdleExpiry = 2 * time.Minute

// loadChanDepth is the bounded queue between the reader goroutine and the
// bulk builder — the whole server-side buffer for one load stream.
const loadChanDepth = 8

type loadResult struct {
	stats bmeh.BulkStats
	err   error
}

// loadSession is one streaming bulk load in progress.
type loadSession struct {
	id uint64
	// nextSeq is the next chunk sequence the builder will consume;
	// guarded by Server.loadMu.
	nextSeq    uint64
	lastActive time.Time
	committed  bool // recs closed by LOAD_COMMIT (guarded by loadMu)

	recs    chan []bmeh.KV // chunk payloads → builder iterator
	abort   chan struct{}  // closed by LOAD_ABORT / expiry / shutdown
	done    chan struct{}  // closed when the builder goroutine exits
	result  loadResult     // valid once done is closed
	aborted bool           // abort already closed (guarded by loadMu)

	// sendMu serializes chunk sends into recs against LOAD_COMMIT's
	// close(recs): a sender holds it across the committed check and the
	// blocking send, commit takes it before closing, so a late chunk is
	// rejected instead of panicking on a closed channel.
	sendMu sync.Mutex
}

// errLoadAborted is what the builder's iterator returns after an abort;
// BulkLoad fails with it and frees everything it staged.
var errLoadAborted = errors.New("load session aborted")

// openLoadSession registers a new session and starts its builder.
func (s *Server) openLoadSession() *loadSession {
	ls := &loadSession{
		nextSeq: 1,
		recs:    make(chan []bmeh.KV, loadChanDepth),
		abort:   make(chan struct{}),
		done:    make(chan struct{}),
	}
	s.loadMu.Lock()
	s.loadSeq++
	ls.id = s.loadSeq
	ls.lastActive = time.Now()
	s.loads[ls.id] = ls
	s.loadMu.Unlock()

	go func() {
		defer close(ls.done)
		var batch []bmeh.KV
		i := 0
		st, err := s.ix.BulkLoad(func() (bmeh.KV, bool, error) {
			for i >= len(batch) {
				select {
				case b, ok := <-ls.recs:
					if !ok {
						return bmeh.KV{}, false, nil
					}
					batch, i = b, 0
				case <-ls.abort:
					s.loadMu.Lock()
					committed := ls.committed
					s.loadMu.Unlock()
					if !committed {
						return bmeh.KV{}, false, errLoadAborted
					}
					// LOAD_COMMIT already won this race: recs is closed
					// (or about to be, with no further senders admitted),
					// so drain it to EOF — a sweep or shutdown abort must
					// not fail a load whose data is fully received.
					b, ok := <-ls.recs
					if !ok {
						return bmeh.KV{}, false, nil
					}
					batch, i = b, 0
				}
			}
			kv := batch[i]
			i++
			if !s.shard.OwnsKey(kv.Key) {
				return bmeh.KV{}, false, fmt.Errorf("load: key %v lies outside this shard's range", kv.Key)
			}
			return kv, true, nil
		}, bmeh.BulkOptions{})
		ls.result = loadResult{stats: st, err: err}
	}()
	return ls
}

// lookupLoad fetches a session and stamps it active.
func (s *Server) lookupLoad(id uint64) *loadSession {
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	ls := s.loads[id]
	if ls != nil {
		ls.lastActive = time.Now()
	}
	return ls
}

// dropLoad removes a finished or aborted session from the registry.
func (s *Server) dropLoad(id uint64) {
	s.loadMu.Lock()
	delete(s.loads, id)
	s.loadMu.Unlock()
}

// abortLoad signals a session's builder to stop. It is idempotent and
// does not wait; callers that need the builder gone wait on ls.done.
func (s *Server) abortLoad(ls *loadSession) {
	s.loadMu.Lock()
	already := ls.aborted
	ls.aborted = true
	s.loadMu.Unlock()
	if !already {
		close(ls.abort)
	}
}

// sweepLoads aborts sessions idle past the expiry, so an abandoned
// session cannot pin its builder goroutine (and the write gate it will
// eventually want) forever. Called from LOAD_BEGIN and from the timer
// loop below.
func (s *Server) sweepLoads() {
	now := time.Now()
	s.loadMu.Lock()
	var stale []*loadSession
	for id, ls := range s.loads {
		if ls.committed {
			// The commit goroutine owns this session now: it is draining
			// its buffered chunks and building, and will drop it when
			// done. Expiring it here would abort a load whose data was
			// fully received.
			continue
		}
		if now.Sub(ls.lastActive) > loadIdleExpiry {
			stale = append(stale, ls)
			delete(s.loads, id)
		}
	}
	s.loadMu.Unlock()
	for _, ls := range stale {
		s.abortLoad(ls)
	}
}

// sweepLoadsLoop expires idle sessions on a timer, so an abandoned
// session's builder goroutine and buffered chunks are reclaimed even if
// no further LOAD_BEGIN ever arrives. Serve starts it; Shutdown closes
// loadSweepStop and waits for done before tearing down what remains.
func (s *Server) sweepLoadsLoop(done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(loadIdleExpiry / 4)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.sweepLoads()
		case <-s.loadSweepStop:
			return
		}
	}
}

// abortAllLoads tears down every open session and waits for their
// builders; Shutdown calls it before the final Sync so no build is
// mid-flight when the WAL is left clean.
func (s *Server) abortAllLoads() {
	s.loadMu.Lock()
	all := make([]*loadSession, 0, len(s.loads))
	for id, ls := range s.loads {
		all = append(all, ls)
		delete(s.loads, id)
	}
	s.loadMu.Unlock()
	for _, ls := range all {
		s.abortLoad(ls)
		<-ls.done
	}
}

// dispatchLoad handles the four LOAD opcodes on the reader goroutine.
func (c *conn) dispatchLoad(fr wire.Frame) {
	s := c.srv
	switch fr.Op {
	case wire.OpLoadBegin:
		id, err := wire.DecodeLoadBeginReq(fr.Payload)
		if err != nil {
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, err.Error())
			return
		}
		if s.cfg.ReadOnly {
			c.sendStatus(fr.Op, fr.ID, wire.StatusReadOnly, "")
			return
		}
		s.sweepLoads()
		if id == 0 {
			ls := s.openLoadSession()
			c.send(fr.Op, fr.ID, wire.AppendLoadBeginResp(nil, ls.id, 1))
			return
		}
		ls := s.lookupLoad(id)
		if ls == nil {
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, fmt.Sprintf("unknown load session %d", id))
			return
		}
		s.loadMu.Lock()
		next := ls.nextSeq
		s.loadMu.Unlock()
		c.send(fr.Op, fr.ID, wire.AppendLoadBeginResp(nil, ls.id, next))

	case wire.OpLoadChunk:
		id, seq, kvs, err := wire.DecodeLoadChunkReq(fr.Payload)
		if err != nil {
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, err.Error())
			return
		}
		ls := s.lookupLoad(id)
		if ls == nil {
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, fmt.Sprintf("unknown load session %d", id))
			return
		}
		// sendMu makes the committed check and the send one atomic step
		// with respect to LOAD_COMMIT's close(recs): without it a chunk
		// racing the commit could send on the closed channel and panic
		// the process.
		ls.sendMu.Lock()
		s.loadMu.Lock()
		next := ls.nextSeq
		committed := ls.committed
		s.loadMu.Unlock()
		if committed && seq >= next {
			ls.sendMu.Unlock()
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr,
				fmt.Sprintf("load session %d: chunk %d after commit", id, seq))
			return
		}
		if seq < next {
			// A retransmit of a chunk the builder already consumed —
			// normal after a resume; acknowledge it again.
			ls.sendMu.Unlock()
			c.send(fr.Op, fr.ID, wire.AppendLoadChunkResp(nil, seq))
			return
		}
		if seq > next {
			ls.sendMu.Unlock()
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr,
				fmt.Sprintf("load session %d: chunk gap: got %d, want %d", id, seq, next))
			return
		}
		batch := make([]bmeh.KV, len(kvs))
		for i, kv := range kvs {
			batch[i] = bmeh.KV{Key: bmeh.Key(kv.Key), Value: kv.Value}
		}
		// Blocking here is the backpressure: the reader stops pulling
		// frames until the builder drains a slot.
		select {
		case ls.recs <- batch:
		case <-ls.done:
			// The builder died early (abort or error); surface that
			// instead of queueing into nowhere.
			ls.sendMu.Unlock()
			msg := "load session ended"
			if ls.result.err != nil {
				msg = ls.result.err.Error()
			}
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, msg)
			return
		}
		s.loadMu.Lock()
		ls.nextSeq = seq + 1
		s.loadMu.Unlock()
		ls.sendMu.Unlock()
		c.send(fr.Op, fr.ID, wire.AppendLoadChunkResp(nil, seq))

	case wire.OpLoadCommit:
		id, err := wire.DecodeLoadCommitReq(fr.Payload)
		if err != nil {
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, err.Error())
			return
		}
		ls := s.lookupLoad(id)
		if ls == nil {
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, fmt.Sprintf("unknown load session %d", id))
			return
		}
		s.loadMu.Lock()
		first := !ls.committed
		ls.committed = true
		s.loadMu.Unlock()
		if first {
			// Fence out any chunk send in flight: a sender holds sendMu
			// across its committed check and send, so once we hold it no
			// sender can be mid-send and none will start (the flag above
			// rejects them).
			ls.sendMu.Lock()
			close(ls.recs)
			ls.sendMu.Unlock()
		}
		// The build's sort-and-swap (and its durable Sync) can take a
		// while; answer asynchronously like BATCH so pipelined lookups on
		// this connection keep flowing.
		rid := fr.ID
		c.pending.Add(1)
		c.inflight.Add(1)
		go func() {
			defer c.pending.Done()
			defer c.inflight.Add(-1)
			<-ls.done
			s.dropLoad(id)
			if err := ls.result.err; err != nil {
				c.sendStatus(wire.OpLoadCommit, rid, wire.StatusErr, err.Error())
				return
			}
			st := ls.result.stats
			c.send(wire.OpLoadCommit, rid,
				wire.AppendLoadCommitResp(nil, uint64(st.Loaded), uint64(st.Duplicates)))
		}()

	case wire.OpLoadAbort:
		id, err := wire.DecodeLoadAbortReq(fr.Payload)
		if err != nil {
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, err.Error())
			return
		}
		ls := s.lookupLoad(id)
		if ls == nil {
			// Idempotent: aborting a session that is already gone is fine.
			c.sendStatus(fr.Op, fr.ID, wire.StatusOK, "")
			return
		}
		s.dropLoad(id)
		s.abortLoad(ls)
		rid := fr.ID
		c.pending.Add(1)
		go func() {
			defer c.pending.Done()
			<-ls.done
			c.sendStatus(wire.OpLoadAbort, rid, wire.StatusOK, "")
		}()
	}
}
