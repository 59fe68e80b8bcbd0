package iputil

import (
	"cmp"
	"encoding/binary"
	"net/netip"
	"slices"
)

// Key is an address as a raw 128-bit integer (IPv4 occupies the low 32
// bits of Lo), so interval comparisons are two machine-word compares
// instead of netip.Addr method calls.
type Key struct{ Hi, Lo uint64 }

// le reports k <= o.
func (k Key) le(o Key) bool { return k.Hi < o.Hi || (k.Hi == o.Hi && k.Lo <= o.Lo) }

// next returns the key one address higher. Callers must not pass the
// all-ones key.
func (k Key) next() Key {
	k.Lo++
	if k.Lo == 0 {
		k.Hi++
	}
	return k
}

// KeyOf flattens a canonical address into its integer key.
func KeyOf(a netip.Addr) Key {
	if a.Is4() {
		b := a.As4()
		return Key{0, uint64(binary.BigEndian.Uint32(b[:]))}
	}
	b := a.As16()
	return Key{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
}

// Masked returns k with its low host bits cleared: the network key of a
// prefix with host = family bits - prefix length.
func (k Key) Masked(host int) Key {
	return Key{k.Hi &^ lowMask(host-64), k.Lo &^ lowMask(host)}
}

// prefixEnd returns the key of the last address inside p for a family
// with famBits address bits.
func prefixEnd(p netip.Prefix, famBits int) Key {
	k, host := KeyOf(p.Addr()), famBits-p.Bits()
	return Key{k.Hi | lowMask(host-64), k.Lo | lowMask(host)}
}

// lowMask returns a word with its low n bits set, n clamped to [0, 64].
func lowMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	if n <= 0 {
		return 0
	}
	return 1<<n - 1
}

// Span is one prefix and its payload: the unit Flatten sweeps.
type Span[V any] struct {
	Prefix netip.Prefix
	Val    V
}

// Flat is a set of spans of both families flattened for longest-prefix
// lookup: each family's prefixes are swept into disjoint boundary
// intervals sorted by start key, so a lookup is a binary search over
// plain integers — no pointer chasing, no lock — that returns the
// longest prefix containing the address. Lookups return the matched span's index in the slice
// Flatten was given. The zero value is empty.
type Flat[V any] struct {
	spans  []Span[V]
	v4, v6 Intervals
}

// Intervals is one family's boundary intervals. The boundary keys live
// in their own densely packed array so the search never drags payloads
// through the cache: IPv4 keys packed as uint32s in keys4 (sixteen per
// cache line), IPv6 keys in keys (four per line); the other family's
// slice is nil. owner holds, at the same position, the span index of the
// most-specific prefix covering the interval, or -1 for a gap.
type Intervals struct {
	keys4    []uint32
	keys     []Key
	owner    []int32
	distinct int
}

// keyAt returns the boundary key at position i.
func (iv *Intervals) keyAt(i int) Key {
	if iv.keys4 != nil {
		return Key{0, uint64(iv.keys4[i])}
	}
	return iv.keys[i]
}

// leAt reports keyAt(i) <= k.
func (iv *Intervals) leAt(i int, k Key) bool {
	if iv.keys4 != nil {
		return uint64(iv.keys4[i]) <= k.Lo
	}
	return iv.keys[i].le(k)
}

// Flatten sweeps spans (every prefix canonical, as CanonicalPrefix
// returns) into a Flat. spans is retained, not copied or reordered.
// A prefix listed more than once resolves to its last span.
func Flatten[V any](spans []Span[V]) Flat[V] {
	return Flat[V]{spans: spans, v4: sweep(spans, 32), v6: sweep(spans, 128)}
}

// sweep flattens the spans of one family (famBits 32 or 128). They are
// sorted by (start, length): at equal start the shorter prefix comes
// first, so a more-specific emitted at the same key replaces it: the
// most specific prefix wins. A stack of open
// prefixes restores the enclosing one when a nested prefix ends.
func sweep[V any](spans []Span[V], famBits int) Intervals {
	type ent struct {
		start Key
		bits  int32
		i     int32
	}
	order := make([]ent, 0, len(spans))
	for i := range spans {
		// Index access: a Span with a large payload is not copied.
		if p := spans[i].Prefix; p.Addr().Is4() == (famBits == 32) {
			order = append(order, ent{KeyOf(p.Addr()), int32(p.Bits()), int32(i)})
		}
	}
	// Early-exit compares: most pairs differ in the first field, and
	// cmp.Or would evaluate all four.
	slices.SortFunc(order, func(a, b ent) int {
		switch {
		case a.start.Hi != b.start.Hi:
			return cmp.Compare(a.start.Hi, b.start.Hi)
		case a.start.Lo != b.start.Lo:
			return cmp.Compare(a.start.Lo, b.start.Lo)
		case a.bits != b.bits:
			return cmp.Compare(a.bits, b.bits)
		}
		return cmp.Compare(a.i, b.i)
	})
	maxKey := Key{lowMask(famBits - 64), lowMask(famBits)}
	iv := Intervals{owner: make([]int32, 0, 2*len(order)+1)}
	if famBits == 32 {
		iv.keys4 = make([]uint32, 0, cap(iv.owner))
	} else {
		iv.keys = make([]Key, 0, cap(iv.owner))
	}
	emit := func(k Key, owner int32) {
		if n := len(iv.owner); n > 0 && iv.keyAt(n-1) == k {
			iv.owner[n-1] = owner
			return
		}
		if famBits == 32 {
			iv.keys4 = append(iv.keys4, uint32(k.Lo))
		} else {
			iv.keys = append(iv.keys, k)
		}
		iv.owner = append(iv.owner, owner)
	}
	type open struct {
		end Key
		i   int32
	}
	// closeTop pops the innermost open prefix and emits what the space
	// just past its end resolves to. An end at the family's last address
	// has no successor key; the interval simply runs out.
	var stack []open
	closeTop := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if top.end == maxKey {
			return
		}
		outer := int32(-1)
		if len(stack) > 0 {
			outer = stack[len(stack)-1].i
		}
		emit(top.end.next(), outer)
	}
	for j, e := range order {
		if j+1 < len(order) && order[j+1].start == e.start && order[j+1].bits == e.bits {
			continue // a later span for the same prefix replaces this one
		}
		iv.distinct++
		for len(stack) > 0 && !e.start.le(stack[len(stack)-1].end) {
			closeTop()
		}
		emit(e.start, e.i)
		stack = append(stack, open{end: prefixEnd(spans[e.i].Prefix, famBits), i: e.i})
	}
	for len(stack) > 0 {
		closeTop()
	}
	return iv
}

// Lookup returns the index into the flattened spans of the most-specific
// prefix containing k, or -1 when none does.
func (iv *Intervals) Lookup(k Key) int32 {
	return iv.ownerAt(iv.bisect(k, -1, len(iv.owner)))
}

// Seek is Lookup for callers whose successive queries are nearby (the
// egress list is ~93% address-ascending): *hint holds the previous
// boundary position, and a short exponential gallop from it brackets the
// answer before bisecting. Seek stores the new position back into *hint.
// Any hint produces the same answer.
func (iv *Intervals) Seek(k Key, hint *int) int32 {
	n := len(iv.owner)
	if n == 0 {
		return -1
	}
	h := min(max(*hint, 0), n-1)
	lo, hi := h, n
	if iv.leAt(h, k) {
		for step := 1; lo+step < n; step <<= 1 {
			if !iv.leAt(lo+step, k) {
				hi = lo + step
				break
			}
			lo += step
		}
	} else {
		lo, hi = -1, h
		for step := 1; hi-step >= 0; step <<= 1 {
			if iv.leAt(hi-step, k) {
				lo = hi - step
				break
			}
			hi -= step
		}
	}
	pos := iv.bisect(k, lo, hi)
	*hint = max(pos, 0)
	return iv.ownerAt(pos)
}

// bisect returns the rightmost boundary position in [lo, hi) whose key
// is <= k, given keys[lo] <= k (or lo == -1) and k < keys[hi] (or
// hi == len(keys)); -1 when every key is greater. The family is
// dispatched once, so the IPv4 loop compares packed words only.
func (iv *Intervals) bisect(k Key, lo, hi int) int {
	if keys4 := iv.keys4; keys4 != nil {
		k4 := uint32(k.Lo)
		for lo+1 < hi {
			mid := int(uint(lo+hi) >> 1)
			if keys4[mid] <= k4 {
				lo = mid
			} else {
				hi = mid
			}
		}
		return lo
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if iv.keys[mid].le(k) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// ownerAt maps a boundary position (or -1) to its span index (or -1).
func (iv *Intervals) ownerAt(pos int) int32 {
	if pos < 0 {
		return -1
	}
	return iv.owner[pos]
}

// Family returns the intervals of addr's family; addr must be canonical.
func (f *Flat[V]) Family(addr netip.Addr) *Intervals {
	if addr.Is4() {
		return &f.v4
	}
	return &f.v6
}

// Lookup returns the span index of the most-specific prefix containing
// addr, or -1 when none does; addr must be canonical and valid.
func (f *Flat[V]) Lookup(addr netip.Addr) int32 { return f.Family(addr).Lookup(KeyOf(addr)) }

// At returns the span at index i (one Lookup or Seek returned).
func (f *Flat[V]) At(i int32) *Span[V] { return &f.spans[i] }

// Len returns the number of interval boundaries.
func (f *Flat[V]) Len() int { return len(f.v4.owner) + len(f.v6.owner) }

// Prefixes returns the number of distinct prefixes flattened.
func (f *Flat[V]) Prefixes() int { return f.v4.distinct + f.v6.distinct }
