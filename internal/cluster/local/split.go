package local

import (
	"fmt"
	"time"

	"bmeh"
	"bmeh/client"
	"bmeh/internal/cluster"
	"bmeh/internal/repl"
)

// splitCatchUpTimeout bounds each replica catch-up wait of a split.
const splitCatchUpTimeout = 60 * time.Second

// Split moves the upper half of shard i's records onto a brand-new node
// while the cluster keeps serving — reads never fail, writes into the
// moving range stall only for the fence window. The protocol:
//
//  1. SHARD_MEDIAN on the donor picks the boundary: the median owned
//     pseudo-key prefix, computed from a pinned MVCC snapshot.
//  2. A fresh node seeds itself as a replica of the donor (snapshot
//     stream + WAL tail) and catches up to the donor's commit sequence.
//  3. SHARD_FENCE [median, hi) on the donor: writes into the moving
//     range now answer WrongShard (routers hold them back and retry);
//     reads keep being served by the donor. One final Sync publishes
//     the last pre-fence commits and the new node drains them — from
//     here the moving range is byte-identical on both nodes.
//  4. The new node is promoted in-process: the replication link stops,
//     the store reopens copy-on-write, and a primary server starts.
//  5. The map flips: epoch+1 with the boundary inserted, pushed to the
//     acquiring node first (so the moved range always has a willing
//     owner), then the donor (clearing its fence), then everyone else.
//     Routers chasing WrongShard pick the new epoch up from any node.
//  6. Both sides delete the records the flip made foreign — the donor's
//     upper half, the new node's lower half. Purges run on the live
//     indexes after the flip, so neither node ever serves a record it
//     no longer owns (GET/RANGE check ownership before data).
//
// Split appends the new shard at position i+1 and starts opts.Replicas
// read replicas for it before returning.
func (c *Cluster) Split(i int) error {
	c.mu.Lock()
	if i < 0 || i >= len(c.shards) {
		c.mu.Unlock()
		return fmt.Errorf("split: no shard %d", i)
	}
	donor := c.shards[i].primary
	m := c.m.Clone()
	c.mu.Unlock()
	_, hi := m.Range(i)

	ad, err := c.admin(donor.addr)
	if err != nil {
		return err
	}
	defer ad.Close()

	// 1. Boundary.
	median, owned, err := ad.ShardMedian()
	if err != nil {
		return fmt.Errorf("split: median: %w", err)
	}
	c.opts.Logf("split: shard %d: median %#x over %d owned records", i, median, owned)

	// 2. Seed the new node as a replica and catch it up to the donor.
	path := func() string { c.mu.Lock(); defer c.mu.Unlock(); return c.nodePath() }()
	target, err := bmeh.NewReplicaTarget(path)
	if err != nil {
		return err
	}
	rep, err := c.followAndAwait(target, donor, ad)
	if err != nil {
		target.Close()
		return err
	}

	// 3. Fence the moving range and drain the final commits across.
	if err := ad.ShardFence(median, hi); err != nil {
		rep.close()
		return fmt.Errorf("split: fence: %w", err)
	}
	unfence := func() {
		if ferr := ad.ShardFence(0, 0); ferr != nil {
			c.opts.Logf("split: unfence after abort failed: %v", ferr)
		}
	}
	if err := ad.Sync(); err != nil {
		unfence()
		rep.close()
		return fmt.Errorf("split: post-fence sync: %w", err)
	}
	st, err := ad.Stats()
	if err != nil {
		unfence()
		rep.close()
		return fmt.Errorf("split: donor stats: %w", err)
	}
	if !rep.rep.AwaitSeq(st.CommitSeq, splitCatchUpTimeout) {
		unfence()
		rep.close()
		return fmt.Errorf("split: new node never reached donor seq %d", st.CommitSeq)
	}

	// 4. Promote: stop following, reopen copy-on-write, serve.
	rep.close()
	nn, err := c.startPrimary(path)
	if err != nil {
		unfence()
		return fmt.Errorf("split: promote: %w", err)
	}

	// 5. Flip the map, acquiring node first.
	m2, err := m.SplitAt(i, median, cluster.Node{Primary: nn.addr})
	if err != nil {
		unfence()
		nn.close()
		return err
	}
	if err := c.pushMapTo(nn.addr, uint32(i+1), m2); err != nil {
		unfence()
		nn.close()
		return fmt.Errorf("split: push to new node: %w", err)
	}
	c.mu.Lock()
	c.shards = append(c.shards[:i+1], append([]*shard{{primary: nn}}, c.shards[i+1:]...)...)
	c.m = m2
	c.mu.Unlock()
	if err := c.pushMap(m2); err != nil {
		// The new epoch is already live on the new node; a straggler that
		// missed the push catches up from the next WrongShard refresh.
		c.opts.Logf("split: map push incomplete: %v", err)
	}

	// 6. Purge the records the flip made foreign, both sides.
	if err := c.purgeForeign(donor.ix, m2, i); err != nil {
		c.opts.Logf("split: donor purge: %v", err)
	}
	if err := c.purgeForeign(nn.ix, m2, i+1); err != nil {
		c.opts.Logf("split: new-node purge: %v", err)
	}

	// Replicas for the new shard, and a map that names them.
	if c.opts.Replicas > 0 {
		sh := func() *shard { c.mu.Lock(); defer c.mu.Unlock(); return c.shards[i+1] }()
		for r := 0; r < c.opts.Replicas; r++ {
			rn, err := c.startReplica(func() string { c.mu.Lock(); defer c.mu.Unlock(); return c.nodePath() }(), nn.addr)
			if err != nil {
				return fmt.Errorf("split: new-shard replica: %w", err)
			}
			c.mu.Lock()
			sh.replicas = append(sh.replicas, rn)
			c.mu.Unlock()
		}
		c.mu.Lock()
		m3 := c.m.Clone()
		m3.Epoch++
		m3.Shards[i+1] = c.mapNode(sh)
		c.m = m3
		c.mu.Unlock()
		if err := c.pushMap(m3); err != nil {
			c.opts.Logf("split: replica map push incomplete: %v", err)
		}
	}
	c.opts.Logf("split: shard %d done: epoch %d, %d shards", i, c.Map().Epoch, c.Shards())
	return nil
}

// follower pairs a replica link with its target for cleanup.
type follower struct {
	target *bmeh.ReplicaTarget
	rep    *repl.Replica
}

// followAndAwait starts a replication link from target to the donor and
// waits for the initial seed (snapshot + tail) to land and the link to
// reach the donor's published commit sequence.
func (c *Cluster) followAndAwait(target *bmeh.ReplicaTarget, donor *node, ad *client.Client) (*follower, error) {
	rep := repl.NewReplica(target, donor.addr, repl.ReplicaOptions{Logf: c.opts.Logf})
	rep.Start()
	select {
	case <-target.Ready():
	case <-time.After(splitCatchUpTimeout):
		rep.Close()
		return nil, fmt.Errorf("split: new node never seeded from %s", donor.addr)
	}
	// Publish whatever the donor has buffered so the lag number means
	// something, then drain it.
	if err := ad.Sync(); err != nil {
		rep.Close()
		return nil, err
	}
	st, err := ad.Stats()
	if err != nil {
		rep.Close()
		return nil, err
	}
	if !rep.AwaitSeq(st.CommitSeq, splitCatchUpTimeout) {
		rep.Close()
		return nil, fmt.Errorf("split: pre-fence catch-up to seq %d timed out", st.CommitSeq)
	}
	return &follower{target: target, rep: rep}, nil
}

func (f *follower) close() {
	f.rep.Close()
	f.target.Close()
}

// purgeForeign deletes every record of ix whose pseudo-key prefix lies
// outside shard id's range under m. Runs on the live index — deletions
// replicate to the shard's replicas like any other write.
func (c *Cluster) purgeForeign(ix *bmeh.Index, m *cluster.Map, id int) error {
	opts := ix.Options()
	dims, width := opts.Dims, opts.Width
	lo, hi := m.Range(id)
	maxComp := ^uint64(0)
	if width < 64 {
		maxComp = 1<<uint(width) - 1
	}
	blo := make(bmeh.Key, dims)
	bhi := make(bmeh.Key, dims)
	for j := range bhi {
		bhi[j] = maxComp
	}
	var foreign []bmeh.Key
	err := ix.Range(blo, bhi, func(k bmeh.Key, _ uint64) bool {
		if p := cluster.Prefix(k, dims, width); !cluster.InRange(p, lo, hi) {
			foreign = append(foreign, append(bmeh.Key(nil), k...))
		}
		return true
	})
	if err != nil {
		return err
	}
	for _, k := range foreign {
		if _, err := ix.Delete(k); err != nil {
			return err
		}
	}
	if len(foreign) > 0 {
		if err := ix.Sync(); err != nil {
			return err
		}
		c.opts.Logf("split: purged %d foreign record(s) from shard %d", len(foreign), id)
	}
	return nil
}
