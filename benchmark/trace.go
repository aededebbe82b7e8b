package main

import (
	"fmt"
	"os"
	"time"

	"bmeh"
	"bmeh/client"
)

func medianOf(v []int64) int64 { return percentile(sortedCopy(v), 50) }

// ofKind keeps the entries of v whose op has the given kind.
func ofKind(v []int64, ops []op, kind opKind) []int64 {
	var out []int64
	for i, o := range ops {
		if o.kind == kind {
			out = append(out, v[i])
		}
	}
	return out
}

// traced is the state of one traced pass.
type traced struct {
	w       *workload
	ks      keyspace
	preload int
	n       int // ladder length in ops
	t       *topology
	r       *row
	tr      *tracer
	entry   rungID
	rungs   map[rungID]*replayed
	checked []*caller // every caller whose PUTs must be in the final count
	ns      uint64    // last fresh-key namespace handed to a replay
}

// runTraced is the traced pass of one workload. First the workload runs
// at its own caller count while counters are read at the layer
// boundaries: the ratios. Then the ladder: the times. A per-layer metric
// whose layer is not on the workload's path is reported as 0.
func runTraced(w *workload, seed uint64, window time.Duration, scale int) (*row, error) {
	p := &traced{w: w, ks: newKeyspace(seed), preload: w.preload / scale, n: w.ladderOps / scale,
		rungs: map[rungID]*replayed{}, ns: 1000}
	p.entry = map[topoKind]rungID{topoRouter: rungRouter, topoServer: rungServer, topoIndex: rungIndex}[w.topo]
	dir, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if p.t, err = setup(w, p.ks, p.preload, dir); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer p.t.close()
	p.r = newRow(w, seed, window/2, true)
	for _, m := range theSpec.PerLayer {
		p.r.set(m.Name, 0)
	}
	if err := p.countedWindow(window); err != nil {
		return nil, err
	}
	p.tr = &tracer{t0: time.Now(), entry: p.entry}
	if err := p.liveRungs(); err != nil {
		return nil, err
	}
	vt, err := verify(p.t, p.checked, p.ks, p.preload)
	if err != nil {
		return nil, err
	}
	p.r.tally.add(vt)
	if w.topo != topoIndex {
		if err := p.indexRung(); err != nil {
			return nil, err
		}
	}
	p.layerTimes()

	reads, err := readPages(p.t.files[0], 2000/scale, seed)
	if err != nil {
		return nil, err
	}
	p.r.set("pagestore.read_us", us(medianOf(reads)))
	lambda, err := logicalReads(p.ks, p.preload)
	if err != nil {
		return nil, err
	}
	p.r.set("core.logical_reads_per_get", lambda)

	if err := os.MkdirAll(benchPath("out"), 0o755); err != nil {
		return nil, err
	}
	p.r.Samples = map[string]int{"ladder_ops": p.n, "spans": len(p.tr.spans)}
	return p.r, p.tr.write(benchPath("out", "trace-"+w.name+".jsonl"))
}

// countedWindow runs the workload's callers for half the window and
// turns the counter deltas around it into the per-layer ratios.
func (p *traced) countedWindow(window time.Duration) error {
	t, r := p.t, p.r
	before, err := t.counters()
	if err != nil {
		return err
	}
	stopLag := make(chan struct{})
	lagDone := make(chan []int64, 1)
	if len(t.replicas) > 0 {
		go func() { lagDone <- sampleLag(t.replicas[0], stopLag) }()
	}
	callers := newCallers(p.w, p.ks, p.preload)
	drive(t.entry, callers, warmup(window), window/2)
	close(stopLag)
	if len(t.replicas) > 0 {
		if lags := sortedCopy(<-lagDone); len(lags) > 0 {
			r.set("repl.lag_commits_p99", float64(percentile(lags, 99)))
		}
	}
	after, err := t.counters()
	if err != nil {
		return err
	}
	p.checked = callers
	var done [numOpKinds]float64
	wrongShard := 0
	for _, c := range callers {
		r.tally.add(c.tally)
		wrongShard += c.wrongShard
		for _, rc := range c.recs {
			done[rc.kind]++
		}
	}
	if done[opGet] > 0 {
		r.set("pagestore.reads_per_get", float64(after.reads-before.reads)/done[opGet])
	}
	if writes := done[opPut] + done[opDel]; writes > 0 {
		r.set("pagestore.writes_per_put", float64(after.writes-before.writes)/writes)
	}
	if commits := after.commits - before.commits; commits > 0 && done[opPut] > 0 {
		r.set("server.puts_per_commit", done[opPut]/float64(commits))
	}
	if lookups := (after.poolHits - before.poolHits) + (after.poolMisses - before.poolMisses); lookups > 0 {
		r.set("pagestore.pool_hit_ratio", float64(after.poolHits-before.poolHits)/float64(lookups))
	}
	if t.router != nil {
		wrongShard += int(t.router.Map().Epoch - t.shardMap.Epoch)
		r.set("router.wrongshard_retries", float64(wrongShard))
	}
	return nil
}

// run replays the ladder's ops at one rung and files the result.
func (p *traced) run(target kv, rung rungID, traced bool, commit func(bmeh.Key) error) (*replayed, error) {
	p.ns++
	// The untraced pass only sets the pace tracing is compared with. It
	// replays caller 1's ops, so that it does not warm the caches for
	// the traced pass over caller 0's.
	id, tr := uint64(1), (*tracer)(nil)
	if traced {
		id, tr = 0, p.tr
	}
	rp, err := replay(target, p.w, p.ks, p.preload, p.n, id, p.ns, tr, rung, commit)
	if err != nil {
		return nil, err
	}
	if rung != rungNull { // the null responder's canned replies are not checked
		p.r.tally.add(rp.caller.tally)
		p.checked = append(p.checked, rp.caller)
	}
	if traced {
		p.rungs[rung] = rp
	}
	return rp, nil
}

// liveRungs replays the ladder at the rungs that need the topology up:
// the entry rung without and with spans, then server, null and wire.
func (p *traced) liveRungs() error {
	t, r := p.t, p.r
	untraced, err := p.run(t.entry, p.entry, false, nil)
	if err != nil {
		return err
	}
	entry, err := p.run(t.entry, p.entry, true, nil)
	if err != nil {
		return err
	}
	r.set("trace.overhead_ratio", untraced.elapsed.Seconds()/entry.elapsed.Seconds())
	if p.w.topo == topoIndex {
		return nil
	}
	if p.w.topo == topoRouter {
		direct := sharded{m: t.shardMap}
		for _, node := range t.shardMap.Shards {
			cl, err := client.Dial(node.Primary, clientOptions())
			if err != nil {
				return err
			}
			defer cl.Close()
			direct.parts = append(direct.parts, cl)
		}
		if _, err := p.run(direct, rungServer, true, nil); err != nil {
			return err
		}
		routeNs, mergeNs, err := clusterCosts(direct, entry.ops, p.ks, p.preload, &r.tally)
		if err != nil {
			return err
		}
		r.set("cluster.route_ns", routeNs)
		r.set("cluster.merge_ns_per_range", mergeNs)
	}
	null, err := startNull()
	if err != nil {
		return err
	}
	defer null.stop()
	ncl, err := client.Dial(null.ln.Addr().String(), clientOptions())
	if err != nil {
		return err
	}
	defer ncl.Close()
	if _, err := p.run(ncl, rungNull, true, nil); err != nil {
		return err
	}
	srv := p.rungs[rungServer]
	wireDurs, wireBytes := wireRung(srv.ops, srv.ranges, p.tr, &r.tally)
	r.set("wire.codec_ns_per_op", float64(medianOf(wireDurs)))
	r.set("wire.bytes_per_op", wireBytes)
	return nil
}

// indexRung replays the ladder on each node's own file, reopened as its
// server had it and warmed by one scan, as the server's was by the
// window. Each PUT is followed by the Sync a server runs before it
// acknowledges: the store rung.
func (p *traced) indexRung() error {
	files := p.t.files
	if p.w.topo == topoServer {
		files = files[:1] // the primary; the replica holds the same pages
	}
	below := sharded{m: p.t.shardMap}
	opts := nodeOptions(p.w)
	var ixs []*bmeh.Index
	for _, f := range files {
		ix, err := bmeh.OpenWithOptions(f, opts)
		if err != nil {
			return err
		}
		defer ix.Close()
		ix.SetSyncPolicy(opts.SyncPolicy)
		if err := ix.Scan(func(bmeh.Key, uint64) bool { return true }); err != nil {
			return err
		}
		ixs = append(ixs, ix)
		below.parts = append(below.parts, indexKV{ix})
	}
	commit := func(k bmeh.Key) error { return below.pick(k).(indexKV).ix.Sync() }
	if _, err := p.run(below, rungIndex, true, commit); err != nil {
		return err
	}
	for i, ix := range ixs {
		if err := ix.Close(); err != nil {
			return err
		}
		rep, err := bmeh.Fsck(files[i])
		p.r.tally.check(err == nil && rep.OK(), "fsck %s after the index rung: err %v, report %+v", files[i], err, rep)
	}
	return nil
}

// layerTimes turns the rungs' per-op durations into per-layer times.
// Medians are over the ladder's most frequent op kind, so that the terms
// describe one kind of request and can be added up.
func (p *traced) layerTimes() {
	r, idx := p.r, p.rungs[rungIndex]
	var counts [numOpKinds]int
	for _, o := range idx.ops {
		counts[o.kind]++
	}
	main := opGet
	for k := range counts {
		if counts[k] > counts[main] {
			main = opKind(k)
		}
	}
	med := func(v []int64) float64 { return float64(medianOf(ofKind(v, idx.ops, main))) }
	minus := func(a []int64, bs ...[]int64) []int64 {
		out := append([]int64(nil), a...)
		for _, b := range bs {
			for i := range out {
				out[i] -= b[i]
			}
		}
		return out
	}
	entryP50 := med(p.rungs[p.entry].durs)
	r.set("trace.entry_p50_us", entryP50/1e3)
	sum := med(idx.durs)
	if c := ofKind(idx.commits, idx.ops, opPut); len(c) > 0 {
		r.set("pagestore.sync_us", us(medianOf(c)))
		if main == opPut {
			sum += float64(medianOf(c))
		}
	}
	if srv := p.rungs[rungServer]; srv != nil {
		null := p.rungs[rungNull].durs
		self := med(minus(srv.durs, null, idx.durs, idx.commits))
		r.set("server.self_us", self/1e3)
		r.set("client.null_rtt_us", med(null)/1e3)
		sum += self + med(null)
	}
	if rt := p.rungs[rungRouter]; rt != nil {
		self := med(minus(rt.durs, p.rungs[rungServer].durs))
		r.set("router.self_us", self/1e3)
		sum += self
	}
	r.set("trace.ladder_cover", sum/entryP50)

	for kind, name := range map[opKind]string{opGet: "bmeh.get_ns", opPut: "bmeh.insert_ns", opDel: "bmeh.delete_ns"} {
		if d := ofKind(idx.durs, idx.ops, kind); len(d) > 0 {
			r.set(name, float64(medianOf(d)))
		}
	}
	var rangeNs, results int64
	for i, o := range idx.ops {
		if o.kind == opRange {
			rangeNs += idx.durs[i]
			results += int64(len(idx.ranges[i]))
		}
	}
	if results > 0 {
		r.set("bmeh.range_ns_per_result", float64(rangeNs)/float64(results))
	}
}
