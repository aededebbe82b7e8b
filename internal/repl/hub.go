// Package repl implements asynchronous replication by WAL shipping: a
// primary publishes every committed pagestore batch to a Hub, which fans
// the batches out to subscribed replicas; a Replica dials a primary,
// subscribes, and applies what arrives through its own store's WAL, so
// replicas are crash-consistent by the same argument as the primary.
//
// The replication stream is decoupled from WAL truncation by design: the
// primary's WAL is truncated at every checkpoint, so subscribers never
// read the log file. Instead, the commit hook hands the Hub the exact
// frames the WAL just journaled — once their fsync has returned, in
// commit order — and the Hub keeps a bounded in-memory history of recent
// segments. A subscriber that resumes within the history replays from
// memory; one that is too far behind (or brand new) is reseeded with a
// full snapshot.
package repl

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"bmeh/internal/pagestore"
)

// Source is the primary-side store a Hub snapshots from. bmeh.Index
// implements it.
type Source interface {
	// ReplCommitSeq returns the store's current commit sequence.
	ReplCommitSeq() uint64
	// ReplPageSize returns the store's page size in bytes.
	ReplPageSize() int
	// ReplSnapshot streams a consistent full-store image to fn and
	// returns the commit sequence and page count it belongs to. The data
	// slice is only valid during the call.
	ReplSnapshot(fn func(id pagestore.PageID, kind pagestore.Kind, data []byte) error) (seq uint64, pageCount uint32, err error)
}

// Segment is one committed batch as published to subscribers.
type Segment struct {
	Seq    uint64
	Frames []pagestore.Frame
}

// Snapshot is a full-store image used to seed a subscriber that cannot
// resume from the segment history.
type Snapshot struct {
	Seq       uint64
	PageSize  int
	PageCount uint32
	Frames    []pagestore.Frame
}

// Msg is what a subscriber receives: either a segment or a heartbeat
// carrying the primary's commit sequence.
type Msg struct {
	Seg       *Segment
	Heartbeat uint64
}

// Sub is one subscriber's queue. The Hub closes C when the subscriber is
// dropped — on Hub close, or when the queue overflows because the
// subscriber cannot keep up (it must resubscribe, and will resume or
// reseed as its lag dictates).
type Sub struct {
	C     chan Msg
	acked atomic.Uint64
}

// Acked returns the subscriber's last acknowledged (applied) sequence.
func (s *Sub) Acked() uint64 { return s.acked.Load() }

// HubOptions configures a Hub. The zero value picks defaults.
type HubOptions struct {
	// Retain bounds the in-memory segment history (default 256). A
	// subscriber further behind than the history is reseeded by snapshot.
	Retain int
	// HeartbeatInterval is how often idle subscribers are sent the
	// primary's commit sequence (default 500ms; < 0 disables, for tests).
	HeartbeatInterval time.Duration
}

func (o HubOptions) withDefaults() HubOptions {
	if o.Retain <= 0 {
		o.Retain = 256
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = 500 * time.Millisecond
	}
	return o
}

// ErrHubClosed reports a Subscribe against a closed Hub.
var ErrHubClosed = errors.New("repl: hub closed")

// Hub fans committed segments out to subscribers. Publish is designed to
// be installed as the store's commit hook: it runs under the store lock,
// never blocks (a subscriber whose queue is full is dropped, not waited
// on), and never calls back into the store. Lock order is therefore
// store → hub, and Subscribe is careful to take its snapshot without
// holding the hub lock.
type Hub struct {
	src  Source
	opts HubOptions

	mu      sync.Mutex
	subs    map[*Sub]struct{}
	ring    []*Segment // contiguous history, ending at lastSeq
	lastSeq uint64
	closed  bool

	done chan struct{}
	wg   sync.WaitGroup
}

// NewHub returns a Hub over src. Install hub.Publish as the store's
// commit hook to start the stream.
func NewHub(src Source, opts HubOptions) *Hub {
	h := &Hub{
		src:     src,
		opts:    opts.withDefaults(),
		subs:    make(map[*Sub]struct{}),
		lastSeq: src.ReplCommitSeq(),
		done:    make(chan struct{}),
	}
	if h.opts.HeartbeatInterval > 0 {
		h.wg.Add(1)
		go h.heartbeatLoop()
	}
	return h
}

// Publish records one committed segment and offers it to every
// subscriber. It is the store's commit hook: calls arrive in commit
// order, under the store lock, and must not block.
func (h *Hub) Publish(seq uint64, frames []pagestore.Frame) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || seq <= h.lastSeq {
		return
	}
	seg := &Segment{Seq: seq, Frames: frames}
	h.lastSeq = seq
	h.ring = append(h.ring, seg)
	if len(h.ring) > h.opts.Retain {
		h.ring = h.ring[len(h.ring)-h.opts.Retain:]
	}
	for s := range h.subs {
		h.offerLocked(s, Msg{Seg: seg})
	}
}

// offerLocked enqueues m without blocking; a subscriber that cannot keep
// up is dropped (its channel closed) so the publisher — the commit path —
// never stalls on a slow or dead replica.
func (h *Hub) offerLocked(s *Sub, m Msg) {
	select {
	case s.C <- m:
	default:
		delete(h.subs, s)
		close(s.C)
	}
}

// Subscribe registers a subscriber that has applied everything up to and
// including lastSeq. If the segment history covers the gap, the missing
// segments are pre-queued on the subscription; otherwise a full Snapshot
// is returned and the caller must deliver it before any segments. Either
// way, segments committed after the call flow into sub.C. Sequence
// numbers can overlap between the snapshot and the queue — senders
// deduplicate by skipping anything at or below what they already sent.
func (h *Hub) Subscribe(lastSeq uint64) (*Sub, *Snapshot, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, nil, ErrHubClosed
	}
	// The queue must absorb a full history replay plus whatever commits
	// while the subscriber drains it.
	s := &Sub{C: make(chan Msg, 2*h.opts.Retain+16)}
	s.acked.Store(lastSeq)
	h.subs[s] = struct{}{}
	needSnap := false
	switch {
	case lastSeq == h.lastSeq:
		// Up to date: live segments only.
	case lastSeq < h.lastSeq && h.ringCoversLocked(lastSeq+1):
		for _, seg := range h.ring {
			if seg.Seq > lastSeq {
				s.C <- Msg{Seg: seg}
			}
		}
	default:
		// Too far behind — or ahead of us, which means the subscriber's
		// store diverged (e.g. it followed a different primary) and must
		// be reseeded.
		needSnap = true
	}
	h.mu.Unlock()
	if !needSnap {
		return s, nil, nil
	}
	// The snapshot is taken without the hub lock: the source's snapshot
	// path ends in the store's commit lock, and Publish runs under that
	// lock and takes the hub lock — so holding it here would deadlock.
	// Segments published meanwhile queue on s.C with sequences the
	// snapshot already covers; the sender's dedupe discards them.
	snap := &Snapshot{PageSize: h.src.ReplPageSize()}
	seq, pageCount, err := h.src.ReplSnapshot(func(id pagestore.PageID, kind pagestore.Kind, data []byte) error {
		snap.Frames = append(snap.Frames, pagestore.Frame{
			ID:   id,
			Kind: kind,
			Data: append([]byte(nil), data...),
		})
		return nil
	})
	if err != nil {
		h.Unsubscribe(s)
		return nil, nil, err
	}
	snap.Seq, snap.PageCount = seq, pageCount
	return s, snap, nil
}

// ringCoversLocked reports whether the history contains segment seq.
func (h *Hub) ringCoversLocked(seq uint64) bool {
	return len(h.ring) > 0 && h.ring[0].Seq <= seq && seq <= h.ring[len(h.ring)-1].Seq
}

// Unsubscribe drops a subscriber and closes its channel. Safe to call
// for a subscriber the Hub already dropped.
func (h *Hub) Unsubscribe(s *Sub) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[s]; ok {
		delete(h.subs, s)
		close(s.C)
	}
}

// Ack records a subscriber's applied sequence (from its heartbeat).
func (h *Hub) Ack(s *Sub, seq uint64) {
	if s != nil {
		s.acked.Store(seq)
	}
}

// HubStatus is an observability snapshot.
type HubStatus struct {
	Subscribers int
	LastSeq     uint64
	// MinAcked is the slowest subscriber's applied sequence (LastSeq when
	// there are none).
	MinAcked uint64
}

// Status returns a snapshot of the hub's state.
func (h *Hub) Status() HubStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := HubStatus{Subscribers: len(h.subs), LastSeq: h.lastSeq, MinAcked: h.lastSeq}
	for s := range h.subs {
		if a := s.Acked(); a < st.MinAcked {
			st.MinAcked = a
		}
	}
	return st
}

// Close drops every subscriber and stops the heartbeat loop. Publish
// becomes a no-op; uninstall the commit hook separately if the store
// outlives the hub.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	for s := range h.subs {
		delete(h.subs, s)
		close(s.C)
	}
	h.mu.Unlock()
	close(h.done)
	h.wg.Wait()
}

func (h *Hub) heartbeatLoop() {
	defer h.wg.Done()
	t := time.NewTicker(h.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-h.done:
			return
		case <-t.C:
			h.mu.Lock()
			for s := range h.subs {
				h.offerLocked(s, Msg{Heartbeat: h.lastSeq})
			}
			h.mu.Unlock()
		}
	}
}
