package bgp

import (
	"net/netip"
	"slices"

	"github.com/relay-networks/privaterelay/internal/iputil"
)

// Index is a routing table flattened for lookup: the announcements swept
// into an iputil.Flat, so a longest-prefix match is a binary search over
// plain integers — what every origin attribution wants against a table
// that never changes mid-run. A nil Index answers every lookup with "not
// found".
//
// Each announcement's dense ID (see Cursor.CoveringRoute) is its position
// in (address, length) order, IPv4 before IPv6, so equal tables always
// number their routes identically.
type Index struct {
	flat iputil.Flat[ASN]
}

// Index returns a flattened snapshot of the table's current routes. The
// snapshot is memoized — analysis pipelines call Index once per run on a
// table that stopped changing at build time — and invalidated by the
// next Announce, which leaves the snapshot itself untouched.
func (t *Table) Index() *Index {
	t.mu.RLock()
	ix := t.idx
	t.mu.RUnlock()
	if ix != nil {
		return ix
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.idx == nil {
		// A fresh slice: an earlier Index still holds its own spans.
		spans := make([]iputil.Span[ASN], 0, len(t.routes))
		for p, as := range t.routes {
			spans = append(spans, iputil.Span[ASN]{Prefix: p, Val: as})
		}
		slices.SortFunc(spans, func(a, b iputil.Span[ASN]) int { return comparePrefixes(a.Prefix, b.Prefix) })
		t.idx = &Index{flat: iputil.Flatten(spans)}
	}
	return t.idx
}

// Route returns the matched prefix and origin for addr: the longest
// announced prefix containing it.
func (ix *Index) Route(addr netip.Addr) (netip.Prefix, ASN, bool) {
	if ix == nil {
		return netip.Prefix{}, 0, false
	}
	addr = iputil.Canonical(addr)
	if !addr.IsValid() {
		return netip.Prefix{}, 0, false
	}
	return ix.route(addr)
}

// route is the lookup core; addr must already be canonical and valid.
func (ix *Index) route(addr netip.Addr) (netip.Prefix, ASN, bool) {
	i := ix.flat.Lookup(addr)
	if i < 0 {
		return netip.Prefix{}, 0, false
	}
	r := ix.flat.At(i)
	return r.Prefix, r.Val, true
}

// Origin returns the origin AS of the most-specific prefix covering addr.
func (ix *Index) Origin(addr netip.Addr) (ASN, bool) {
	_, as, ok := ix.Route(addr)
	return as, ok
}

// Cursor is a stateful lookup handle over an Index for callers whose
// successive queries are mostly address-sorted, like the attribution
// join walking the egress list. It remembers the last boundary position
// per family and gallops from there instead of binary-searching from
// scratch. Results are identical to the Index's stateless lookups at any
// query order; only the probe count changes. A Cursor is not safe for
// concurrent use — give each worker its own.
type Cursor struct {
	ix         *Index
	pos4, pos6 int
}

// Cursor returns a fresh lookup cursor over the index.
func (ix *Index) Cursor() Cursor { return Cursor{ix: ix} }

// CoveringPrefix returns the announced BGP prefix containing p,
// identical to Index.CoveringPrefix. The masked network key is computed
// with two word operations instead of netip's canonical re-masking.
func (c *Cursor) CoveringPrefix(p netip.Prefix) (netip.Prefix, ASN, bool) {
	pfx, origin, _, ok := c.CoveringRoute(p)
	return pfx, origin, ok
}

// CoveringRoute is CoveringPrefix plus the matched announcement's dense
// ID. Routes are numbered 0..N-1 within the index snapshot — stable
// across rebuilds of an unchanged table — and every lookup landing in the
// same announcement returns the same ID, so downstream aggregations can
// count distinct BGP prefixes with a bitset instead of hashing prefixes.
func (c *Cursor) CoveringRoute(p netip.Prefix) (pfx netip.Prefix, origin ASN, id int32, ok bool) {
	if c.ix == nil {
		return netip.Prefix{}, 0, 0, false
	}
	addr := p.Addr()
	if addr.Is4In6() {
		addr = addr.Unmap()
	}
	if !addr.IsValid() {
		return netip.Prefix{}, 0, 0, false
	}
	hint, famBits := &c.pos6, 128
	if addr.Is4() {
		if p.Bits() > 32 {
			// A 4-in-6 prefix whose length exceeds the unmapped
			// family's: canonicalization makes it invalid.
			return netip.Prefix{}, 0, 0, false
		}
		hint, famBits = &c.pos4, 32
	}
	k := iputil.KeyOf(addr).Masked(famBits - p.Bits())
	i := c.ix.flat.Family(addr).Seek(k, hint)
	if i < 0 {
		return netip.Prefix{}, 0, 0, false
	}
	r := c.ix.flat.At(i)
	return r.Prefix, r.Val, i, true
}

// CoveringPrefix returns the announced BGP prefix containing p: the route
// matched by p's network address. The canonicalized address is passed to
// the lookup core directly, skipping Route's redundant re-canonicalize.
func (ix *Index) CoveringPrefix(p netip.Prefix) (netip.Prefix, ASN, bool) {
	if ix == nil {
		return netip.Prefix{}, 0, false
	}
	addr := iputil.CanonicalPrefix(p).Addr()
	if !addr.IsValid() {
		return netip.Prefix{}, 0, false
	}
	return ix.route(addr)
}

// Len returns the number of interval boundaries (both families).
func (ix *Index) Len() int {
	if ix == nil {
		return 0
	}
	return ix.flat.Len()
}
