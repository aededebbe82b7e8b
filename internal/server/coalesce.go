package server

import (
	"bufio"
	"io"
	"time"

	"bmeh"
)

// newBufReader sizes the per-connection read buffer: large enough that a
// pipelined burst of small frames decodes from one syscall.
func newBufReader(r io.Reader) io.Reader { return bufio.NewReaderSize(r, 64<<10) }

const (
	// commitWindow is how long the write queue holds a batch open, counted
	// from the moment its first request is taken and before any insert
	// runs. A client acknowledged by the previous commit sends its next
	// write tens of microseconds later; the window lets it join this batch
	// instead of waiting out a whole commit.
	commitWindow = 200 * time.Microsecond
	// maxBatch is the most requests one batch takes; a full batch commits
	// without waiting out the window.
	maxBatch = 512
)

// writeReq is one PUT (one pair), BATCH (its pairs) or SYNC (none)
// awaiting the shared commit. done is called exactly once, on the queue's
// goroutine, with the batch's duplicate flags for this request's pairs and
// the commit's error; on a non-nil error the flags mean nothing.
type writeReq struct {
	kvs  []bmeh.KV
	done func(dup []bool, err error)
}

// coalescer is the server's write queue and its only commit batcher.
// Every request that ends in a commit — PUT, BATCH and SYNC, from every
// connection — goes through it. Each batch is one InsertBatchStatus call,
// whose single Index.Sync commits the whole batch, so a thousand clients
// each writing one record cost a handful of fsyncs, not a thousand.
//
// Batches form from two sources: the commit window, and the requests that
// queue on the channel while the previous batch commits. Keys are checked
// at dispatch, so one client's malformed key cannot fail the others' writes
// in its batch.
type coalescer struct {
	ix   *bmeh.Index
	ch   chan writeReq
	done chan struct{}
}

func newCoalescer(ix *bmeh.Index) *coalescer {
	co := &coalescer{
		ix: ix,
		// Room for four full batches: a reader blocks on enqueue only
		// when the commits fall that far behind.
		ch:   make(chan writeReq, 4*maxBatch),
		done: make(chan struct{}),
	}
	go co.run()
	return co
}

// enqueue hands a request to the queue; its done callback fires when its
// batch commits. Callers must not enqueue after close (the server stops
// reading requests before closing the queue).
func (co *coalescer) enqueue(r writeReq) { co.ch <- r }

// close commits the queue's tail and stops the loop.
func (co *coalescer) close() {
	close(co.ch)
	<-co.done
}

func (co *coalescer) run() {
	defer close(co.done)
	batch := make([]writeReq, 0, maxBatch)
	for {
		r, ok := <-co.ch
		if !ok {
			return
		}
		batch, ok = co.gather(append(batch[:0], r))
		co.flush(batch)
		if !ok {
			return
		}
	}
}

// gather adds queued requests to batch until the commit window closes or
// the batch is full. A request already queued always joins: the window
// only ends the wait for requests yet to come, so a batch never closes
// short of the cap while requests sit in the channel, however late the
// queue's goroutine runs. The second result is false once the channel
// has closed.
func (co *coalescer) gather(batch []writeReq) ([]writeReq, bool) {
	t := time.NewTimer(commitWindow)
	defer t.Stop()
	for len(batch) < maxBatch {
		var r writeReq
		var ok bool
		select {
		case r, ok = <-co.ch:
		default:
			select {
			case r, ok = <-co.ch:
			case <-t.C:
				return batch, true
			}
		}
		if !ok {
			return batch, false
		}
		batch = append(batch, r)
	}
	return batch, true
}

// flush commits one batch and answers every request in it.
func (co *coalescer) flush(batch []writeReq) {
	var kvs []bmeh.KV
	for _, r := range batch {
		kvs = append(kvs, r.kvs...)
	}
	// A failure mid-batch leaves unknowable which pairs landed, so every
	// request learns it (PUT and BATCH are not retried automatically —
	// they are not idempotent).
	_, dup, err := co.ix.InsertBatchStatus(kvs)
	for _, r := range batch {
		n := len(r.kvs)
		r.done(dup[:n:n], err)
		dup = dup[n:]
	}
}
