package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"bmeh"
	"bmeh/client"
	"bmeh/internal/cluster"
	"bmeh/internal/pagestore"
	"bmeh/internal/wire"
)

// The traced pass. Spans are recorded from here, around calls into each
// layer's public entry point; nothing inside the program is
// instrumented. The ladder's rungs, top down:
//
//	router  client.Router against the live cluster
//	server  client.Client against the node that owns the key
//	null    client.Client against this file's null responder
//	wire    the frame and payload codecs alone
//	index   bmeh.Index opened on the node's own file
//	store   Index.Sync after a PUT (WAL commit + fsync + checkpoint)
//
// A workload enters at its own rung and is replayed at every rung
// below. One caller, a fixed number of ops: counts repeat exactly.

const (
	keyDims  = 2
	keyWidth = 32
)

type rungID uint8

const (
	rungRouter rungID = iota
	rungServer
	rungNull
	rungWire
	rungIndex
	rungStore
	numRungs
)

var rungNames = [numRungs]string{"router", "server", "null", "wire", "index", "store"}

// rungParent is the rung whose call a rung's span happens inside ("" for
// a workload's entry rung).
var rungParent = [numRungs]string{"", "router", "server", "null", "server", "index"}

type span struct {
	rung       rungID
	kind       opKind
	op         int32
	start, end int64 // ns since the tracer started
}

type tracer struct {
	t0    time.Time
	entry rungID
	spans []span
}

func (tr *tracer) add(rung rungID, kind opKind, op int, end time.Time, d time.Duration) {
	e := int64(end.Sub(tr.t0))
	tr.spans = append(tr.spans, span{rung: rung, kind: kind, op: int32(op), start: e - int64(d), end: e})
}

func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		parent := rungParent[s.rung]
		if s.rung == tr.entry {
			parent = ""
		}
		err := enc.Encode(struct {
			Name   string `json:"name"`
			OpID   int32  `json:"op_id"`
			Rung   string `json:"rung"`
			Parent string `json:"parent_rung"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{rungNames[s.rung] + "." + opNames[s.kind], s.op, rungNames[s.rung], parent, s.start, s.end})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// nullResponder answers every frame with a canned OK of the right
// shape: a client talking to it pays for client, wire and the kernel's
// loopback, and for no server and no tree.
type nullResponder struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func startNull() (*nullResponder, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &nullResponder{ln: ln}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			n.mu.Lock()
			n.conns = append(n.conns, c)
			n.mu.Unlock()
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				n.serve(c)
			}()
		}
	}()
	return n, nil
}

func (n *nullResponder) serve(c net.Conn) {
	rd := wire.NewReader(c, wire.DefaultMaxPayload)
	var out []byte
	for {
		f, err := rd.Next()
		if err != nil {
			return
		}
		var p []byte
		switch f.Op {
		case wire.OpGet:
			p = wire.AppendGetResp(nil, 0)
		case wire.OpRange:
			p = wire.AppendRangeResp(nil, false, nil)
		default:
			p = wire.AppendStatus(nil, wire.StatusOK, "")
		}
		out = wire.AppendFrame(out[:0], wire.Frame{Op: f.Op.Response(), ID: f.ID, Payload: p})
		if _, err := c.Write(out); err != nil {
			return
		}
	}
}

func (n *nullResponder) stop() {
	n.ln.Close()
	n.mu.Lock()
	for _, c := range n.conns {
		c.Close()
	}
	n.mu.Unlock()
	n.wg.Wait()
}

// sharded sends each op to the part that owns its key, as the router
// would; with one part it is that part. Router workloads issue no RANGE,
// so a box is answered by the low corner's owner alone.
type sharded struct {
	parts []kv
	m     *cluster.Map
}

func (s sharded) pick(k bmeh.Key) kv {
	if len(s.parts) == 1 {
		return s.parts[0]
	}
	return s.parts[s.m.ShardFor(cluster.Prefix(k, keyDims, keyWidth))]
}

func (s sharded) Get(k bmeh.Key) (uint64, bool, error) { return s.pick(k).Get(k) }
func (s sharded) Put(k bmeh.Key, v uint64) error       { return s.pick(k).Put(k, v) }
func (s sharded) Delete(k bmeh.Key) (bool, error)      { return s.pick(k).Delete(k) }
func (s sharded) Range(lo, hi bmeh.Key, limit int) ([]bmeh.KV, bool, error) {
	return s.pick(lo).Range(lo, hi, limit)
}

// replayed is one rung's pass over the ladder's ops.
type replayed struct {
	ops     []op
	durs    []int64     // per op, ns
	commits []int64     // per op: ns in the commit hook after a PUT, else 0
	ranges  [][]bmeh.KV // per op: what a RANGE returned
	elapsed time.Duration
	caller  *caller
}

// replay sends the first n ops of caller id's stream to t, one at a
// time, drawing fresh PUT keys from namespace ns. With tr set every call is
// recorded as a span of rung. commit, if set, runs after each PUT and is
// recorded as a store span: the index rung's stand-in for the commit a
// server runs before it acknowledges.
func replay(t kv, w *workload, ks keyspace, preload, n int, id, ns uint64, tr *tracer, rung rungID,
	commit func(bmeh.Key) error) (*replayed, error) {
	c := newCaller(w, ks, preload, id, ns)
	rp := &replayed{caller: c, ops: make([]op, n), durs: make([]int64, n), commits: make([]int64, n), ranges: make([][]bmeh.KV, n)}
	start := time.Now()
	for i := 0; i < n; i++ {
		o := c.st.next()
		d, kvs := c.do(t, o)
		rp.ops[i], rp.durs[i], rp.ranges[i] = o, int64(d), kvs
		if tr != nil {
			tr.add(rung, o.kind, i, time.Now(), d)
		}
		if commit != nil && o.kind == opPut {
			t0 := time.Now()
			if err := commit(o.key); err != nil {
				return nil, err
			}
			cd := time.Since(t0)
			rp.commits[i] = int64(cd)
			if tr != nil {
				tr.add(rungStore, o.kind, i, time.Now(), cd)
			}
		}
	}
	rp.elapsed = time.Since(start)
	return rp, nil
}

// wireRung runs each op's request and reply through the codecs: encode
// the payload and frame, decode the frame and the payload, both ways.
func wireRung(ops []op, ranges [][]bmeh.KV, tr *tracer, tl *tally) (durs []int64, bytesPerOp float64) {
	durs = make([]int64, len(ops))
	var bytes int
	for i, o := range ops {
		var reply []wire.KV
		for _, e := range ranges[i] {
			reply = append(reply, wire.KV{Key: e.Key, Value: e.Value})
		}
		var wop wire.Op
		var req, resp []byte
		var err error
		t0 := time.Now()
		switch o.kind {
		case opGet:
			wop, req = wire.OpGet, wire.AppendGetReq(nil, o.key)
			if o.present {
				resp = wire.AppendGetResp(nil, valueOf(o.key))
			} else {
				resp = wire.AppendStatus(nil, wire.StatusNotFound, "")
			}
		case opPut:
			wop, req, resp = wire.OpPut, wire.AppendPutReq(nil, o.key, valueOf(o.key)), wire.AppendStatus(nil, wire.StatusOK, "")
		case opDel:
			wop, req, resp = wire.OpDel, wire.AppendGetReq(nil, o.key), wire.AppendStatus(nil, wire.StatusOK, "")
		default:
			wop, req, resp = wire.OpRange, wire.AppendRangeReq(nil, o.key, o.hi, rangeLimit), wire.AppendRangeResp(nil, false, reply)
		}
		reqFrame := wire.AppendFrame(nil, wire.Frame{Op: wop, ID: uint64(i), Payload: req})
		respFrame := wire.AppendFrame(nil, wire.Frame{Op: wop.Response(), ID: uint64(i), Payload: resp})
		rf, _, e1 := wire.DecodeFrame(reqFrame, wire.DefaultMaxPayload)
		switch o.kind {
		case opPut:
			_, _, err = wire.DecodePutReq(rf.Payload)
		case opRange:
			_, _, _, err = wire.DecodeRangeReq(rf.Payload)
		default:
			_, err = wire.DecodeGetReq(rf.Payload)
		}
		pf, _, e2 := wire.DecodeFrame(respFrame, wire.DefaultMaxPayload)
		st, body, e3 := wire.DecodeStatus(pf.Payload)
		var e4 error
		switch {
		case o.kind == opGet && st == wire.StatusOK:
			_, e4 = wire.DecodeGetRespBody(body)
		case o.kind == opRange:
			_, _, e4 = wire.DecodeRangeRespBody(body)
		}
		d := time.Since(t0)
		durs[i] = int64(d)
		tr.add(rungWire, o.kind, i, time.Now(), d)
		bytes += len(reqFrame) + len(respFrame)
		tl.check(errors.Join(err, e1, e2, e3, e4) == nil, "wire codec, op %d: %v", i, errors.Join(err, e1, e2, e3, e4))
	}
	return durs, float64(bytes) / float64(len(ops))
}

// nodeOptions are the options the topology's builder opened a node's
// index with, restated so the index rung runs on "an identically opened
// index": local.Start's indexOptions (cache 512, COW, group commit
// 200 µs × 64) and bmehserve's flag defaults.
func nodeOptions(w *workload) bmeh.Options {
	o := bmeh.Options{SyncPolicy: bmeh.SyncPolicy{Interval: serveSyncInterval, MaxBatch: serveSyncBatch}}
	switch {
	case w.topo == topoRouter:
		o.CacheFrames, o.WriteMode = 512, bmeh.WriteModeCOW
	case w.cow:
		o.CacheFrames, o.WriteMode = serveCache, bmeh.WriteModeCOW
	default:
		o.CacheFrames = serveCache
	}
	return o
}

// readPages times FileDisk.Read of n random allocated pages of the
// index file at path.
func readPages(path string, n int, seed uint64) ([]int64, error) {
	d, err := pagestore.OpenFileDisk(path)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	rng := rand.New(rand.NewSource(int64(seed)))
	buf := make([]byte, d.PageSize())
	var durs []int64
	for tries := 0; len(durs) < n && tries < 20*n; tries++ {
		id := pagestore.PageID(1 + rng.Intn(int(d.PageCount())-1))
		if k, err := d.KindOf(id); err != nil || (k != pagestore.KindData && k != pagestore.KindDirectory) {
			continue
		}
		t0 := time.Now()
		if err := d.Read(id, buf); err != nil {
			return nil, err
		}
		durs = append(durs, int64(time.Since(t0)))
	}
	return durs, nil
}

// logicalReads is the paper's λ: page accesses per exact-match search
// with the root pinned (§4 bound: ≤ 3), counted on an in-memory twin of
// the first 100,000 preloaded keys.
func logicalReads(ks keyspace, preload int) (float64, error) {
	n := min(preload, 100_000)
	ix, err := bmeh.New(bmeh.Options{Dims: keyDims})
	if err != nil {
		return 0, err
	}
	defer ix.Close()
	kvs := make([]bmeh.KV, n)
	for i := range kvs {
		k := ks.key(uint64(i))
		kvs[i] = bmeh.KV{Key: k, Value: valueOf(k)}
	}
	if _, err := ix.InsertBatch(kvs); err != nil {
		return 0, err
	}
	const gets = 20_000
	before := ix.Stats().Reads
	for i := 0; i < gets; i++ {
		if _, ok, err := ix.Get(kvs[i*7919%n].Key); err != nil || !ok {
			return 0, fmt.Errorf("twin index: key %d: found %v err %v", i, ok, err)
		}
	}
	return float64(ix.Stats().Reads-before) / gets, nil
}

// sampleLag polls the replica's STATS every 100 ms until stop closes and
// returns the lags seen, in commits.
func sampleLag(rep *client.Client, stop <-chan struct{}) []int64 {
	var lags []int64
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return lags
		case <-tick.C:
			if st, err := rep.Stats(); err == nil {
				lags = append(lags, int64(st.PrimarySeq)-int64(min(st.CommitSeq, st.PrimarySeq)))
			}
		}
	}
}

// clusterCosts times the routing decision (Prefix + ShardFor) over the
// ladder's keys, and MergeOrdered over the per-shard answers to 200
// sample boxes. No workload routes a RANGE yet; the merge cost is
// recorded for when one does.
func clusterCosts(direct sharded, ops []op, ks keyspace, preload int, tl *tally) (routeNs, mergeNs float64, err error) {
	sink := 0
	t0 := time.Now()
	for _, o := range ops {
		sink += direct.m.ShardFor(cluster.Prefix(o.key, keyDims, keyWidth))
	}
	routeNs = float64(time.Since(t0)) / float64(len(ops))
	_ = sink

	boxes := newStream(&workload{rangePct: 100}, ks, preload, 1<<32, 0)
	const samples = 200
	var total time.Duration
	for i := 0; i < samples; i++ {
		o := boxes.next()
		var lists [][]wire.KV
		want := 0
		for _, p := range direct.parts {
			kvs, _, err := p.Range(o.key, o.hi, rangeLimit)
			if err != nil {
				return 0, 0, err
			}
			enc := make([]wire.KV, len(kvs))
			for j, e := range kvs {
				enc[j] = wire.KV{Key: e.Key, Value: e.Value}
			}
			cluster.SortKVs(enc, keyDims, keyWidth)
			lists = append(lists, enc)
			want += len(enc)
		}
		t0 := time.Now()
		merged := cluster.MergeOrdered(lists, keyDims, keyWidth, rangeLimit)
		total += time.Since(t0)
		tl.check(len(merged) == want, "MergeOrdered: %d of %d results", len(merged), want)
	}
	return routeNs, float64(total) / samples, nil
}
