package pagestore

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the physical write-ahead log that makes FileDisk's
// Sync an atomic commit. The log journals full page images: a commit
// appends one frame record per dirty page followed by a commit record, and
// fsyncs before any page is written to its home offset. Recovery replays
// every fully committed batch and discards an incomplete tail, so a crash
// at any point leaves the store either at the previous commit or at the
// new one — never in between.
//
// Layout (all integers big-endian):
//
//	header:  magic(8) version(4) pageSize(4)
//	frame:   type=1(1) kind(1) reserved(2) pageID(4) data(pageSize) crc(4)
//	commit:  type=2(1) reserved(3) frameCount(4) crc(4)
//
// A frame's crc covers its first 8 bytes and the page image. A commit
// record's crc covers its count and the crc of every frame in the batch,
// so a batch is applied only if each frame is intact, the count matches,
// and the commit record itself is intact.
const (
	walMagic      uint64 = 0x424d45485f57414c // "BMEH_WAL"
	walVersion           = 1
	walHeaderSize        = 16

	walRecFrame  = 1
	walRecCommit = 2

	walFrameOverhead = 12 // type+kind+reserved+pageID before data, crc after
	walCommitSize    = 12
)

// Frame is one journaled page image.
type Frame struct {
	ID   PageID
	Kind Kind
	Data []byte // exactly pageSize bytes
}

// WAL is a physical redo log over a File. It is not safe for concurrent
// use; FileDisk serializes access under its own lock.
type WAL struct {
	f        File
	pageSize int
	tail     int64 // end of the last durable committed batch
}

// CreateWAL initializes an empty log on f (truncating it).
func CreateWAL(f File, pageSize int) (*WAL, error) {
	if err := f.Truncate(0); err != nil {
		return nil, err
	}
	hdr := make([]byte, walHeaderSize)
	binary.BigEndian.PutUint64(hdr[0:8], walMagic)
	binary.BigEndian.PutUint32(hdr[8:12], walVersion)
	binary.BigEndian.PutUint32(hdr[12:16], uint32(pageSize))
	if _, err := f.WriteAt(hdr, 0); err != nil {
		return nil, err
	}
	if err := f.Sync(); err != nil {
		return nil, err
	}
	return &WAL{f: f, pageSize: pageSize, tail: walHeaderSize}, nil
}

// OpenWAL opens an existing log and validates its header. pageSize 0
// accepts whatever page size the header records; a nonzero value must
// match. The caller must run Recover before committing new batches.
func OpenWAL(f File, pageSize int) (*WAL, error) {
	hdr := make([]byte, walHeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("pagestore: reading WAL header: %w", ErrCorrupt)
	}
	if binary.BigEndian.Uint64(hdr[0:8]) != walMagic {
		return nil, fmt.Errorf("pagestore: bad WAL magic: %w", ErrCorrupt)
	}
	if v := binary.BigEndian.Uint32(hdr[8:12]); v != walVersion {
		return nil, fmt.Errorf("pagestore: unsupported WAL version %d: %w", v, ErrCorrupt)
	}
	ps := int(binary.BigEndian.Uint32(hdr[12:16]))
	if ps <= 0 || (pageSize != 0 && ps != pageSize) {
		return nil, fmt.Errorf("pagestore: WAL page size %d does not match store: %w", ps, ErrCorrupt)
	}
	return &WAL{f: f, pageSize: ps, tail: walHeaderSize}, nil
}

// PageSize returns the page size recorded in the log header.
func (w *WAL) PageSize() int { return w.pageSize }

// frameSize returns the on-log size of one frame record.
func (w *WAL) frameSize() int64 { return int64(walFrameOverhead + w.pageSize) }

// Commit appends the batch and a commit record at the durable tail and
// fsyncs. Only after Commit returns may the pages be written to their home
// offsets. A failed Commit leaves the durable tail unchanged, so a retry
// (or recovery) overwrites any partial garbage.
func (w *WAL) Commit(frames []Frame) error {
	if len(frames) == 0 {
		return nil
	}
	buf := make([]byte, 0, int64(len(frames))*w.frameSize()+walCommitSize)
	frameCRCs := make([]byte, 0, 4*len(frames)+4)
	for _, fr := range frames {
		if len(fr.Data) != w.pageSize {
			return fmt.Errorf("pagestore: WAL frame for page %d has %d bytes, want %d", fr.ID, len(fr.Data), w.pageSize)
		}
		rec := make([]byte, walFrameOverhead+w.pageSize)
		rec[0] = walRecFrame
		rec[1] = byte(fr.Kind)
		binary.BigEndian.PutUint32(rec[4:8], uint32(fr.ID))
		copy(rec[8:], fr.Data)
		crc := checksum(rec[:8+w.pageSize])
		binary.BigEndian.PutUint32(rec[8+w.pageSize:], crc)
		buf = append(buf, rec...)
		var c [4]byte
		binary.BigEndian.PutUint32(c[:], crc)
		frameCRCs = append(frameCRCs, c[:]...)
	}
	commit := make([]byte, walCommitSize)
	commit[0] = walRecCommit
	binary.BigEndian.PutUint32(commit[4:8], uint32(len(frames)))
	var cnt [4]byte
	binary.BigEndian.PutUint32(cnt[:], uint32(len(frames)))
	binary.BigEndian.PutUint32(commit[8:12], checksum(append(frameCRCs, cnt[:]...)))
	buf = append(buf, commit...)
	if _, err := w.f.WriteAt(buf, w.tail); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.tail += int64(len(buf))
	return nil
}

// Recover scans the log and invokes apply for every frame of every fully
// committed batch, in order. It stops — without error — at the first
// incomplete or damaged record, which a crash mid-Commit legitimately
// leaves behind; that tail is simply not part of the durable state. It
// returns the number of batches applied. The caller should Reset the log
// (after making the applied pages durable) to discard the tail.
func (w *WAL) Recover(apply func(Frame) error) (int, error) {
	size, err := w.f.Size()
	if err != nil {
		return 0, err
	}
	pos := int64(walHeaderSize)
	batches := 0
	var pending []Frame
	var pendingCRCs []byte
	w.tail = pos
	for {
		if size-pos < 1 {
			return batches, nil
		}
		kind := make([]byte, 1)
		if _, err := w.f.ReadAt(kind, pos); err != nil {
			return batches, nil
		}
		switch kind[0] {
		case walRecFrame:
			if size-pos < w.frameSize() {
				return batches, nil
			}
			rec := make([]byte, w.frameSize())
			if _, err := w.f.ReadAt(rec, pos); err != nil {
				return batches, nil
			}
			crc := binary.BigEndian.Uint32(rec[8+w.pageSize:])
			if checksum(rec[:8+w.pageSize]) != crc {
				return batches, nil
			}
			pending = append(pending, Frame{
				ID:   PageID(binary.BigEndian.Uint32(rec[4:8])),
				Kind: Kind(rec[1]),
				Data: append([]byte(nil), rec[8:8+w.pageSize]...),
			})
			var c [4]byte
			binary.BigEndian.PutUint32(c[:], crc)
			pendingCRCs = append(pendingCRCs, c[:]...)
			pos += w.frameSize()
		case walRecCommit:
			if size-pos < walCommitSize {
				return batches, nil
			}
			rec := make([]byte, walCommitSize)
			if _, err := w.f.ReadAt(rec, pos); err != nil {
				return batches, nil
			}
			count := binary.BigEndian.Uint32(rec[4:8])
			var cnt [4]byte
			binary.BigEndian.PutUint32(cnt[:], count)
			if int(count) != len(pending) ||
				checksum(append(append([]byte(nil), pendingCRCs...), cnt[:]...)) != binary.BigEndian.Uint32(rec[8:12]) {
				return batches, nil
			}
			for _, fr := range pending {
				if err := apply(fr); err != nil {
					return batches, err
				}
			}
			batches++
			pending, pendingCRCs = nil, nil
			pos += walCommitSize
			w.tail = pos
		default:
			return batches, nil
		}
	}
}

// Reset discards the log's contents, truncating it back to its header.
// Called after a committed batch has been applied and fsynced to the main
// file; a crash before Reset merely replays the batch again (idempotent).
func (w *WAL) Reset() error {
	if err := w.f.Truncate(walHeaderSize); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.tail = walHeaderSize
	return nil
}

// Close closes the underlying file.
func (w *WAL) Close() error { return w.f.Close() }

// Group commit
//
// A WAL commit costs two fsyncs (the log append and the post-apply reset)
// plus the main file's fsync, so a workload that syncs after every
// operation pays three device flushes per operation. Group commit
// amortizes them: concurrent and back-to-back Sync calls are coalesced so
// that one WAL commit makes all of their staged writes durable at once.
//
// The mechanism is the classic leader/follower scheme. The first Sync
// caller to arrive becomes the leader of a commit group; callers arriving
// while the group is open join it and block. The leader optionally holds
// the group open for SyncPolicy.Interval (cut short once SyncPolicy.
// MaxBatch callers have gathered), then waits for any in-flight commit to
// finish — during that wait more followers can still pile on, which is
// what batches back-to-back call bursts even with Interval zero — closes
// the group, runs the commit exactly once, and wakes every member with the
// result. A caller's staged writes always happen-before its Sync call, and
// every member joined before the group closed, which is before the commit
// ran — so one commit durably covers the whole group.

// SyncPolicy configures commit coalescing. The zero value disables it
// (every Sync commits individually, the pre-group-commit behavior).
type SyncPolicy struct {
	// Interval is how long a commit leader holds its group open for more
	// Sync callers to join. Zero means don't wait: only callers that
	// arrive while a previous commit is still in flight are coalesced,
	// which adds no latency to an uncontended Sync.
	Interval time.Duration
	// MaxBatch closes the group early once this many callers (leader
	// included) have joined. Zero means no bound.
	MaxBatch int
}

// Enabled reports whether the policy asks for coalescing at all.
func (p SyncPolicy) Enabled() bool { return p.Interval > 0 || p.MaxBatch > 0 }

// commitGroup is one open batch of Sync callers awaiting a shared commit.
type commitGroup struct {
	done    chan struct{} // closed when the commit finished; err is set
	full    chan struct{} // signaled when MaxBatch members have joined
	err     error
	members int
}

// GroupCommitter coalesces calls to a commit function under a SyncPolicy.
// bmeh.Index wraps its whole flush + meta-marshal + store commit sequence
// in one, so a coalesced group shares every step, not only the fsync.
// Safe for concurrent use.
type GroupCommitter struct {
	policy SyncPolicy
	commit func() error

	mu       sync.Mutex // guards cur
	commitMu sync.Mutex // serializes commit execution
	cur      *commitGroup

	syncs   atomic.Uint64 // Sync calls served
	commits atomic.Uint64 // commit executions performed
}

// NewGroupCommitter returns a committer that coalesces Sync calls into
// invocations of commit according to policy.
func NewGroupCommitter(policy SyncPolicy, commit func() error) *GroupCommitter {
	return &GroupCommitter{policy: policy, commit: commit}
}

// Sync makes everything staged before the call durable, sharing one
// commit with every other caller in the same group. It returns the
// group's commit error.
func (g *GroupCommitter) Sync() error {
	g.syncs.Add(1)
	g.mu.Lock()
	if c := g.cur; c != nil {
		// Follower: the group is still open, so the commit has not run
		// yet and will cover this caller's staged writes.
		c.members++
		if g.policy.MaxBatch > 0 && c.members >= g.policy.MaxBatch {
			select {
			case c.full <- struct{}{}:
			default:
			}
		}
		g.mu.Unlock()
		<-c.done
		return c.err
	}
	c := &commitGroup{done: make(chan struct{}), full: make(chan struct{}, 1), members: 1}
	g.cur = c
	g.mu.Unlock()

	// Leader: optionally hold the group open, then drain any in-flight
	// commit (followers keep joining during both waits), close the group
	// and commit on behalf of everyone who joined.
	if g.policy.Interval > 0 {
		t := time.NewTimer(g.policy.Interval)
		select {
		case <-t.C:
		case <-c.full:
			t.Stop()
		}
	}
	g.commitMu.Lock()
	g.mu.Lock()
	g.cur = nil
	g.mu.Unlock()
	c.err = g.commit()
	g.commits.Add(1)
	g.commitMu.Unlock()
	close(c.done)
	return c.err
}

// Counts returns how many Sync calls were served and how many commit
// executions they cost; syncs − commits is the fsync traffic saved.
func (g *GroupCommitter) Counts() (syncs, commits uint64) {
	return g.syncs.Load(), g.commits.Load()
}
