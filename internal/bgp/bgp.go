// Package bgp models the parts of interdomain routing the measurement
// study needs: a global routing table with longest-prefix-match origin-AS
// attribution, prefix enumeration per AS, and a monthly visibility history
// used to date the first appearance of an AS (the paper dates AS36183,
// the Akamai private-relay AS, to June 2021).
package bgp

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"

	"github.com/relay-networks/privaterelay/internal/iputil"
)

// ASN is an autonomous system number.
type ASN uint32

// String renders the ASN in the conventional "AS714" form.
func (a ASN) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// Announcement is one routed prefix with its origin AS.
type Announcement struct {
	Prefix netip.Prefix
	Origin ASN
}

// Table is a BGP routing table supporting concurrent lookups after build.
// Every lookup answers from the flattened Index; the routes map holds
// the announcements themselves.
type Table struct {
	mu     sync.RWMutex
	routes map[netip.Prefix]ASN
	byAS   map[ASN][]netip.Prefix
	idx    *Index // memoized flattened snapshot; nil until Index() is called
}

// NewTable returns an empty routing table.
func NewTable() *Table {
	return &Table{routes: make(map[netip.Prefix]ASN), byAS: make(map[ASN][]netip.Prefix)}
}

// Announce inserts a prefix announcement. Re-announcing the same prefix
// with a different origin replaces the previous origin (no MOAS modeling).
func (t *Table) Announce(p netip.Prefix, origin ASN) {
	p = iputil.CanonicalPrefix(p)
	if !p.IsValid() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.idx = nil
	if prev, ok := t.routes[p]; ok {
		// Replace: remove from the previous AS's list.
		lst := t.byAS[prev]
		for i, q := range lst {
			if q == p {
				t.byAS[prev] = append(lst[:i], lst[i+1:]...)
				break
			}
		}
	}
	t.routes[p] = origin
	t.byAS[origin] = append(t.byAS[origin], p)
}

// Origin returns the origin AS of the most-specific prefix covering addr.
func (t *Table) Origin(addr netip.Addr) (ASN, bool) {
	return t.Index().Origin(addr)
}

// Route returns the matched prefix and origin for addr.
func (t *Table) Route(addr netip.Addr) (netip.Prefix, ASN, bool) {
	return t.Index().Route(addr)
}

// Reader is an immutable snapshot of a Table supporting lock-free
// concurrent lookups. Scanners that resolve origins on their hot path
// take one snapshot up front instead of paying the table's read lock on
// every probe. A nil Reader answers every lookup with "not found".
type Reader struct {
	ix *Index
}

// Snapshot returns a read view of the table's current routes: the
// memoized Index, which later announcements replace rather than mutate.
func (t *Table) Snapshot() *Reader {
	return &Reader{ix: t.Index()}
}

// Origin returns the origin AS of the most-specific prefix covering addr.
func (r *Reader) Origin(addr netip.Addr) (ASN, bool) {
	return r.Index().Origin(addr)
}

// Index returns the snapshot's flattened routes (nil for a nil Reader).
func (r *Reader) Index() *Index {
	if r == nil {
		return nil
	}
	return r.ix
}

// PrefixesOf returns the prefixes originated by as, sorted.
func (t *Table) PrefixesOf(as ASN) []netip.Prefix {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := append([]netip.Prefix(nil), t.byAS[as]...)
	slices.SortFunc(out, comparePrefixes)
	return out
}

// Len returns the total number of announcements.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.routes)
}

// Walk visits all announcements in (address, length) order, IPv4 before
// IPv6, stopping early if fn returns false.
func (t *Table) Walk(fn func(Announcement) bool) {
	ix := t.Index()
	// The index holds one span per announcement: routes lists each
	// prefix once.
	for i := range int32(ix.flat.Prefixes()) {
		r := ix.flat.At(i)
		if !fn(Announcement{Prefix: r.Prefix, Origin: r.Val}) {
			return
		}
	}
}

// CoveringPrefix returns the announced BGP prefix containing p (the prefix
// matched by p's network address) — used to aggregate egress subnets into
// routed BGP prefixes as in Table 3.
func (t *Table) CoveringPrefix(p netip.Prefix) (netip.Prefix, ASN, bool) {
	return t.Index().CoveringPrefix(p)
}

// comparePrefixes orders prefixes by address (IPv4 before IPv6), then
// by length: the order Walk visits and Index numbers routes in.
func comparePrefixes(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return a.Bits() - b.Bits()
}

// Month is a calendar month used by the visibility history.
type Month struct {
	Year int
	M    int // 1..12
}

// String renders the month as YYYY-MM.
func (m Month) String() string { return fmt.Sprintf("%04d-%02d", m.Year, m.M) }

// Before reports whether m is strictly earlier than o.
func (m Month) Before(o Month) bool {
	if m.Year != o.Year {
		return m.Year < o.Year
	}
	return m.M < o.M
}

// Next returns the following calendar month.
func (m Month) Next() Month {
	if m.M == 12 {
		return Month{m.Year + 1, 1}
	}
	return Month{m.Year, m.M + 1}
}

// History records which ASes were visible in the global table per month,
// mirroring the paper's monthly BGP archive examination (2016–2022).
type History struct {
	mu      sync.RWMutex
	visible map[Month]map[ASN]bool
	months  []Month
}

// NewHistory returns an empty history.
func NewHistory() *History {
	return &History{visible: make(map[Month]map[ASN]bool)}
}

// Record marks as visible in month m.
func (h *History) Record(m Month, as ASN) {
	h.mu.Lock()
	defer h.mu.Unlock()
	set, ok := h.visible[m]
	if !ok {
		set = make(map[ASN]bool)
		h.visible[m] = set
		h.months = append(h.months, m)
		slices.SortFunc(h.months, func(a, b Month) int {
			switch {
			case a.Before(b):
				return -1
			case b.Before(a):
				return 1
			}
			return 0
		})
	}
	set[as] = true
}

// FirstSeen returns the earliest month in which as was visible.
func (h *History) FirstSeen(as ASN) (Month, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for _, m := range h.months {
		if h.visible[m][as] {
			return m, true
		}
	}
	return Month{}, false
}

// Months returns the recorded months in chronological order.
func (h *History) Months() []Month {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return append([]Month(nil), h.months...)
}
