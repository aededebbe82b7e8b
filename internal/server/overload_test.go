package server_test

// Overload protection: the connection cap and the per-connection
// in-flight cap both answer with the retryable StatusBusy instead of
// hanging or silently dropping work, and a ReadOnly server fences every
// mutating op with StatusReadOnly.

import (
	"bufio"
	"net"
	"testing"
	"time"

	"bmeh"
	"bmeh/internal/server"
	"bmeh/internal/wire"
)

// rawConn is a minimal single-goroutine wire client for poking at the
// server's edges without the real client's retry machinery.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	r  *wire.Reader
	id uint64
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	return &rawConn{t: t, nc: nc, r: wire.NewReader(bufio.NewReader(nc), 0)}
}

// write queues one request frame; the response is read separately so
// tests can pipeline.
func (rc *rawConn) write(op wire.Op, payload []byte) uint64 {
	rc.t.Helper()
	rc.id++
	buf := wire.AppendFrame(nil, wire.Frame{Op: op, ID: rc.id, Payload: payload})
	if _, err := rc.nc.Write(buf); err != nil {
		rc.t.Fatal(err)
	}
	return rc.id
}

// next reads one response frame and returns its id and status.
func (rc *rawConn) next() (uint64, wire.Status) {
	rc.t.Helper()
	fr, err := rc.r.Next()
	if err != nil {
		rc.t.Fatal(err)
	}
	st, _, err := wire.DecodeStatus(fr.Payload)
	if err != nil {
		rc.t.Fatal(err)
	}
	return fr.ID, st
}

// roundTrip is write + next for the non-pipelined cases.
func (rc *rawConn) roundTrip(op wire.Op, payload []byte) wire.Status {
	rc.t.Helper()
	id := rc.write(op, payload)
	gotID, st := rc.next()
	if gotID != id {
		rc.t.Fatalf("response id %d for request %d", gotID, id)
	}
	return st
}

// TestMaxConnsBusy: connection #MaxConns+1 gets its first request
// answered StatusBusy and the socket closed; existing connections keep
// working.
func TestMaxConnsBusy(t *testing.T) {
	ix := newIndex(t, "mem")
	defer ix.Close()
	_, addr := startServer(t, ix, server.Config{MaxConns: 1})

	c1 := dialRaw(t, addr)
	if st := c1.roundTrip(wire.OpGet, wire.AppendGetReq(nil, []uint64{1, 2})); st != wire.StatusNotFound {
		t.Fatalf("conn 1 get: status %v", st)
	}

	c2 := dialRaw(t, addr)
	if st := c2.roundTrip(wire.OpGet, wire.AppendGetReq(nil, []uint64{1, 2})); st != wire.StatusBusy {
		t.Fatalf("over-cap conn get: status %v, want Busy", st)
	}
	// The rejected socket is closed server-side after the Busy answer.
	if _, err := c2.r.Next(); err == nil {
		t.Fatal("over-cap conn still open after Busy")
	}

	// The in-cap connection is unaffected.
	if st := c1.roundTrip(wire.OpGet, wire.AppendGetReq(nil, []uint64{3, 4})); st != wire.StatusNotFound {
		t.Fatalf("conn 1 get after rejection: status %v", st)
	}
}

// barrier writes a SHARD_MAP request, which the server answers inline
// without taking the index lock, and reads until its answer arrives: every
// request written before it has then been dispatched. Answers that arrive
// meanwhile are recorded in seen by request ID.
func (rc *rawConn) barrier(seen map[uint64]wire.Status) {
	rc.t.Helper()
	id := rc.write(wire.OpShardMap, nil)
	for {
		got, st := rc.next()
		if got == id {
			return
		}
		seen[got] = st
	}
}

// await returns request id's status, from seen or by reading on.
func (rc *rawConn) await(seen map[uint64]wire.Status, id uint64) wire.Status {
	rc.t.Helper()
	for {
		if st, ok := seen[id]; ok {
			return st
		}
		got, st := rc.next()
		seen[got] = st
	}
}

// TestMaxInflightBusy: with the connection's one in-flight slot taken by
// a PUT whose commit is held, the seven PUTs pipelined behind it bounce
// with StatusBusy, and only the first is stored.
func TestMaxInflightBusy(t *testing.T) {
	ix := newIndex(t, "mem")
	defer ix.Close()
	if err := ix.Insert(bmeh.Key{1 << 20, 1 << 20}, 0); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, ix, server.Config{MaxInflight: 1})
	rc := dialRaw(t, addr)
	release := server.HoldCommits(t, ix)

	const n = 8
	first := rc.write(wire.OpPut, wire.AppendPutReq(nil, []uint64{0, 1}, 0))
	for i := 1; i < n; i++ {
		rc.write(wire.OpPut, wire.AppendPutReq(nil, []uint64{uint64(i), 1}, uint64(i)))
	}
	for i := 1; i < n; i++ {
		if id, st := rc.next(); id == first || st != wire.StatusBusy {
			t.Fatalf("pipelined put %d answered %v while the first commit is held, want Busy", id, st)
		}
	}
	release()
	if id, st := rc.next(); id != first || st != wire.StatusOK {
		t.Fatalf("put %d answered %v, want put %d OK", id, st, first)
	}
	// BUSY guarantees non-execution: besides the seed record, only the
	// first PUT is stored.
	if got := ix.Len(); got != 2 {
		t.Fatalf("index holds %d records, want 2", got)
	}
}

// TestMalformedPutFailsAlone: a PUT whose key the index cannot take —
// the wrong number of components, or a component past the width — fails
// by itself, while PUTs from other connections that share its commit
// still succeed.
func TestMalformedPutFailsAlone(t *testing.T) {
	ix := newIndex(t, "mem")
	defer ix.Close()
	if err := ix.Insert(bmeh.Key{1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, ix, server.Config{})
	holder, bad, good := dialRaw(t, addr), dialRaw(t, addr), dialRaw(t, addr)
	// Hold the first commit, so the writes below queue up behind it and
	// share the next one.
	release := server.HoldCommits(t, ix)
	heldSeen, badSeen, goodSeen := map[uint64]wire.Status{}, map[uint64]wire.Status{}, map[uint64]wire.Status{}
	held := holder.write(wire.OpPut, wire.AppendPutReq(nil, []uint64{2, 2}, 2))
	holder.barrier(heldSeen)
	badDims := bad.write(wire.OpPut, wire.AppendPutReq(nil, []uint64{3}, 3))
	badWidth := bad.write(wire.OpPut, wire.AppendPutReq(nil, []uint64{1 << 40, 3}, 3))
	bad.barrier(badSeen)
	ok := good.write(wire.OpPut, wire.AppendPutReq(nil, []uint64{4, 4}, 4))
	good.barrier(goodSeen)
	release()

	for _, c := range []struct {
		rc   *rawConn
		seen map[uint64]wire.Status
		id   uint64
		want wire.Status
		what string
	}{
		{holder, heldSeen, held, wire.StatusOK, "held PUT"},
		{bad, badSeen, badDims, wire.StatusErr, "PUT with one component"},
		{bad, badSeen, badWidth, wire.StatusErr, "PUT with a component past the width"},
		{good, goodSeen, ok, wire.StatusOK, "good PUT"},
	} {
		if st := c.rc.await(c.seen, c.id); st != c.want {
			t.Errorf("%s: status %v, want %v", c.what, st, c.want)
		}
	}
	if got := ix.Len(); got != 3 {
		t.Fatalf("index holds %d records, want 3", got)
	}
}

// TestReadOnlyFencesWrites: every mutating op on a ReadOnly server
// answers StatusReadOnly; reads and STATS serve normally and STATS
// reports the replica role.
func TestReadOnlyFencesWrites(t *testing.T) {
	ix := newIndex(t, "mem")
	defer ix.Close()
	if err := ix.Insert(bmeh.Key{1, 2}, 7); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, ix, server.Config{
		ReadOnly: true,
		ReplicaStatus: func() (uint64, uint64, bool) {
			return 42, 40, true
		},
	})
	rc := dialRaw(t, addr)

	for _, req := range []struct {
		op      wire.Op
		payload []byte
	}{
		{wire.OpPut, wire.AppendPutReq(nil, []uint64{9, 9}, 1)},
		{wire.OpDel, wire.AppendKey(nil, []uint64{1, 2})},
		{wire.OpBatch, wire.AppendBatchReq(nil, []wire.KV{{Key: []uint64{9, 9}, Value: 1}})},
		{wire.OpSync, nil},
	} {
		if st := rc.roundTrip(req.op, req.payload); st != wire.StatusReadOnly {
			t.Fatalf("%v on read-only server: status %v, want ReadOnly", req.op, st)
		}
	}
	if got := ix.Len(); got != 1 {
		t.Fatalf("read-only index mutated: %d records", got)
	}

	id := rc.write(wire.OpGet, wire.AppendGetReq(nil, []uint64{1, 2}))
	fr, err := rc.r.Next()
	if err != nil || fr.ID != id {
		t.Fatalf("get on read-only server: %v", err)
	}
	st, body, err := wire.DecodeStatus(fr.Payload)
	if err != nil || st != wire.StatusOK {
		t.Fatalf("get status: %v err=%v", st, err)
	}
	if v, err := wire.DecodeGetRespBody(body); err != nil || v != 7 {
		t.Fatalf("get value: %d err=%v", v, err)
	}

	id = rc.write(wire.OpStats, nil)
	fr, err = rc.r.Next()
	if err != nil || fr.ID != id {
		t.Fatalf("stats on read-only server: %v", err)
	}
	if st, body, err = wire.DecodeStatus(fr.Payload); err != nil || st != wire.StatusOK {
		t.Fatalf("stats status: %v err=%v", st, err)
	}
	stats, err := wire.DecodeStatsRespBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Role != wire.RoleReplica {
		t.Fatalf("stats role %d, want replica", stats.Role)
	}
	if stats.CommitSeq != 40 || stats.PrimarySeq != 42 {
		t.Fatalf("stats seqs commit=%d primary=%d, want 40/42", stats.CommitSeq, stats.PrimarySeq)
	}
}
