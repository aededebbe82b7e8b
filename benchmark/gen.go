package main

import (
	"math"
	"math/rand"

	"bmeh"
)

// Workload inputs. Everything a run sends is a pure function of the
// seed: keys are a bijection of a 64-bit index, values a pure function
// of the key (so any reply can be checked without shared state), and
// each caller draws its ops from its own seeded stream.

// mix64 is the splitmix64 finalizer, a bijection on uint64.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// keyspace maps indexes to 2-d, 32-bit-wide keys. Distinct indexes give
// distinct keys, uniform over the whole key space — workload.Uniform
// leaves the top bit of every component clear, which would put every
// key on shard 0 of a uniform shard map.
type keyspace struct{ salt uint64 }

func newKeyspace(seed uint64) keyspace { return keyspace{salt: mix64(seed)} }

func (ks keyspace) key(i uint64) bmeh.Key {
	m := mix64(i + ks.salt)
	return bmeh.Key{m >> 32, m & 0xffffffff}
}

// Index regions of the key space. Preloaded keys are [0, preload);
// caller c's fresh PUT keys start at freshBase(c); absent keys (never
// stored) start at absentBase.
const absentBase = uint64(1) << 62

func freshBase(ns uint64) uint64 { return (ns + 1) << 40 }

// valueOf is the oracle: the only value ever stored under key.
func valueOf(k bmeh.Key) uint64 { return mix64(k[0]<<32 | k[1] ^ 0x6a09e667f3bcc908) }

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDel
	opRange
	numOpKinds
)

var opNames = [numOpKinds]string{"get", "put", "del", "range"}

// op is one request. For opRange, key is the box's low corner and hi
// its high corner; for opGet, present says whether the key is stored.
type op struct {
	kind    opKind
	key, hi bmeh.Key
	present bool
}

const rangeLimit = 4096

// stream generates one caller's ops. rng decides kinds and read keys;
// ns is the namespace its fresh PUT keys come from, so two replays of
// one stream (the ladder's rungs) read the same keys yet never PUT the
// same key twice.
type stream struct {
	w     *workload
	ks    keyspace
	n     int // preloaded keys
	rng   *rand.Rand
	zipf  *rand.Zipf
	fresh uint64   // next fresh key index
	live  []uint64 // indexes this stream PUT and has not deleted, oldest first
	side  uint64   // range box side
}

func newStream(w *workload, ks keyspace, preload int, id, ns uint64) *stream {
	s := &stream{w: w, ks: ks, n: preload, fresh: freshBase(ns)}
	s.rng = rand.New(rand.NewSource(int64(mix64(ks.salt ^ mix64(id)))))
	if w.zipf {
		s.zipf = rand.NewZipf(s.rng, 1.1, 1, uint64(preload-1))
	}
	// A box of side s holds preload·s²/2^64 of the uniform preloaded
	// keys; size it for rangeResults of them.
	s.side = uint64(math.Sqrt(rangeResults/float64(preload)) * (1 << 32))
	return s
}

const rangeResults = 64

func (s *stream) next() op {
	p := s.rng.Intn(100)
	switch {
	case p < s.w.getPct:
		if s.rng.Intn(100) < s.w.absentPct {
			return op{kind: opGet, key: s.ks.key(absentBase + uint64(s.rng.Int63()))}
		}
		var i uint64
		if s.zipf != nil {
			i = s.zipf.Uint64()
		} else {
			i = uint64(s.rng.Intn(s.n))
		}
		return op{kind: opGet, key: s.ks.key(i), present: true}
	case p < s.w.getPct+s.w.rangePct:
		lo := bmeh.Key{uint64(s.rng.Int63n(int64(1<<32 - s.side))), uint64(s.rng.Int63n(int64(1<<32 - s.side)))}
		return op{kind: opRange, key: lo, hi: bmeh.Key{lo[0] + s.side, lo[1] + s.side}}
	case p < s.w.getPct+s.w.rangePct+s.w.delPct && len(s.live) > 0:
		i := s.live[0]
		s.live = s.live[1:]
		return op{kind: opDel, key: s.ks.key(i)}
	default: // PUT, also in place of a DEL with nothing left to delete
		i := s.fresh
		s.fresh++
		s.live = append(s.live, i)
		return op{kind: opPut, key: s.ks.key(i)}
	}
}
