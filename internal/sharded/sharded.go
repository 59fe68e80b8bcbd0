// Package sharded is a power-of-two sharded, per-shard-locked map: the
// session tables of the relay's serving plane (the plane-wide session
// registry, the per-account reservation registry, the egress
// per-tunnel stream map and the client demux). One mutex-guarded map
// is the scaling wall the scan plane already hit and broke (DESIGN.md
// §12); a sharded table spreads keys over independently locked shards,
// so a session touches exactly one shard lock and concurrent sessions
// contend only when they hash together.
//
// Every shard lock is a leaf by construction: the locks are reachable
// only from this package, each method holds one shard lock at a time,
// and no method takes a function argument, so no caller code ever runs
// under a shard lock.
package sharded

import (
	"sync"
	"sync/atomic"

	"github.com/relay-networks/privaterelay/internal/iputil"
)

// defaultShards is the shard count when a table is built with n <= 0.
// 256 shards × a 65-byte padded shard header is 16 KiB of fixed
// overhead, amortized instantly against millions of entries.
const defaultShards = 256

// Map is a sharded map. The zero value is not usable; build tables
// with New. K is hashed with the table's hash function (see
// HashUint32, iputil.HashString).
type Map[K comparable, V any] struct {
	shards []shard[K, V]
	mask   uint64
	hash   func(K) uint64
	n      atomic.Int64
}

// shard pads each lock+map pair to its own cache line so neighbouring
// shard locks never false-share.
type shard[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
	_  [40]byte
}

// New builds a table with n shards (rounded up to a power of two;
// n <= 0 means defaultShards) hashing keys through hash.
func New[K comparable, V any](n int, hash func(K) uint64) *Map[K, V] {
	if n <= 0 {
		n = defaultShards
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &Map[K, V]{
		shards: make([]shard[K, V], size),
		mask:   uint64(size - 1),
		hash:   hash,
	}
}

// HashUint32 mixes a 32-bit key (session and stream IDs are assigned
// sequentially — without mixing, consecutive sessions would walk the
// shards in lockstep and batch workloads would convoy on one lock).
func HashUint32(k uint32) uint64 { return iputil.Mix(uint64(k), 0x6d617371) }

func (t *Map[K, V]) shard(k K) *shard[K, V] {
	return &t.shards[t.hash(k)&t.mask]
}

// Load returns the value stored for k.
func (t *Map[K, V]) Load(k K) (V, bool) {
	s := t.shard(k)
	s.mu.Lock()
	v, ok := s.m[k]
	s.mu.Unlock()
	return v, ok
}

// Store sets k to v, replacing any previous value.
func (t *Map[K, V]) Store(k K, v V) {
	s := t.shard(k)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[K]V)
	}
	_, had := s.m[k]
	s.m[k] = v
	s.mu.Unlock()
	if !had {
		t.n.Add(1)
	}
}

// LoadOrStore returns the existing value for k, or stores and returns
// v. loaded reports whether the value was already present.
func (t *Map[K, V]) LoadOrStore(k K, v V) (actual V, loaded bool) {
	actual, loaded = t.shard(k).loadOrStore(k, v)
	if !loaded {
		t.n.Add(1)
	}
	return actual, loaded
}

func (s *shard[K, V]) loadOrStore(k K, v V) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if have, ok := s.m[k]; ok {
		return have, true
	}
	if s.m == nil {
		s.m = make(map[K]V)
	}
	s.m[k] = v
	return v, false
}

// Delete removes k, returning the removed value.
func (t *Map[K, V]) Delete(k K) (V, bool) {
	s := t.shard(k)
	s.mu.Lock()
	v, ok := s.m[k]
	if ok {
		delete(s.m, k)
	}
	s.mu.Unlock()
	if ok {
		t.n.Add(-1)
	}
	return v, ok
}

// Len reports the number of entries across all shards.
func (t *Map[K, V]) Len() int { return int(t.n.Load()) }

// Values returns a copy of every stored value, each shard copied under
// its own lock; callers act on the copy after the locks are released.
// A value stored or deleted while Values runs may or may not appear.
// The order follows map iteration, so it must not reach an output
// unsorted (this package is outside the determinism analyzer's set).
func (t *Map[K, V]) Values() []V {
	out := make([]V, 0, t.Len())
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for _, v := range s.m {
			out = append(out, v)
		}
		s.mu.Unlock()
	}
	return out
}
