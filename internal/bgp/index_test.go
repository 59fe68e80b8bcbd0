package bgp

import (
	"math/rand"
	"net/netip"
	"testing"
)

// indexAnnouncements exercise the interval sweep's edge cases: nested
// prefixes (including equal-start nesting), adjacent prefixes, gaps, a
// default route, prefixes ending at the family's last address, and a
// re-announcement.
var indexAnnouncements = []Announcement{
	{netip.MustParsePrefix("0.0.0.0/0"), 1},            // v4 default route: every gap resolves to it
	{netip.MustParsePrefix("10.0.0.0/8"), 10},          // covering
	{netip.MustParsePrefix("10.0.0.0/16"), 11},         // equal-start nested
	{netip.MustParsePrefix("10.0.0.0/24"), 12},         // equal-start nested, deeper
	{netip.MustParsePrefix("10.5.0.0/16"), 13},         // interior nested
	{netip.MustParsePrefix("10.255.255.0/24"), 14},     // nested at the covering prefix's end
	{netip.MustParsePrefix("11.0.0.0/8"), 15},          // adjacent to 10/8
	{netip.MustParsePrefix("23.32.0.0/11"), 36183},     // isolated after a gap
	{netip.MustParsePrefix("255.255.255.0/24"), 99},    // ends at the v4 all-ones address
	{netip.MustParsePrefix("255.255.255.255/32"), 100}, // host route at the very top
	{netip.MustParsePrefix("2600::/12"), 20},           // v6 covering
	{netip.MustParsePrefix("2600:9000::/28"), 21},      // v6 nested
	{netip.MustParsePrefix("2600:9000::/44"), 22},      // v6 equal-start nested
	{netip.MustParsePrefix("2620:149:a44::/48"), 714},  // v6 isolated
	{netip.MustParsePrefix("ff00::/8"), 30},            // near the v6 top
	{netip.MustParsePrefix("10.5.0.0/16"), 16},         // re-announced: replaces AS13
}

func indexFixture() *Table {
	tbl := NewTable()
	for _, a := range indexAnnouncements {
		tbl.Announce(a.Prefix, a.Origin)
	}
	return tbl
}

// linearRoute is the obviously-correct longest-prefix match: a scan over
// every announcement, the later of two equal prefixes winning as a
// re-announcement does.
func linearRoute(anns []Announcement, addr netip.Addr) (netip.Prefix, ASN, bool) {
	best := -1
	for i, a := range anns {
		if a.Prefix.Contains(addr) && (best < 0 || a.Prefix.Bits() >= anns[best].Prefix.Bits()) {
			best = i
		}
	}
	if best < 0 {
		return netip.Prefix{}, 0, false
	}
	return anns[best].Prefix, anns[best].Origin, true
}

func TestIndexMatchesLinearScan(t *testing.T) {
	tbl := indexFixture()
	idx := tbl.Index()
	rng := rand.New(rand.NewSource(7))

	probe := func(addr netip.Addr) {
		t.Helper()
		wantP, wantAS, wantOK := linearRoute(indexAnnouncements, addr)
		if gotP, gotAS, gotOK := idx.Route(addr); gotP != wantP || gotAS != wantAS || gotOK != wantOK {
			t.Fatalf("Route(%v): index = %v,%v,%v; linear scan = %v,%v,%v",
				addr, gotP, gotAS, gotOK, wantP, wantAS, wantOK)
		}
		// CoveringPrefix answers for the prefix's network address.
		p := netip.PrefixFrom(addr, rng.Intn(addr.BitLen()+1))
		wantP, wantAS, wantOK = linearRoute(indexAnnouncements, p.Masked().Addr())
		if gotP, gotAS, gotOK := tbl.CoveringPrefix(p); gotP != wantP || gotAS != wantAS || gotOK != wantOK {
			t.Fatalf("CoveringPrefix(%v): table = %v,%v,%v; linear scan = %v,%v,%v",
				p, gotP, gotAS, gotOK, wantP, wantAS, wantOK)
		}
	}

	// Boundary addresses: first and last address of every announcement,
	// plus the addresses just outside.
	for _, a := range indexAnnouncements {
		first := a.Prefix.Addr()
		probe(first)
		if prev := first.Prev(); prev.IsValid() {
			probe(prev)
		}
		last := lastAddr(a.Prefix)
		probe(last)
		if next := last.Next(); next.IsValid() {
			probe(next)
		}
	}

	// Deterministic random sweep over both families.
	for i := 0; i < 20000; i++ {
		var b4 [4]byte
		rng.Read(b4[:])
		probe(netip.AddrFrom4(b4))
		var b16 [16]byte
		rng.Read(b16[:])
		// Bias half the v6 probes into announced space so hits are tested
		// as often as the (dominant) misses.
		if i%2 == 0 {
			b16[0], b16[1] = 0x26, byte(rng.Intn(2))*0x20
		}
		probe(netip.AddrFrom16(b16))
	}
}

// lastAddr returns the last address inside p.
func lastAddr(p netip.Prefix) netip.Addr {
	if p.Addr().Is4() {
		b := p.Addr().As4()
		host := 32 - p.Bits()
		for i := 3; i >= 0 && host > 0; i-- {
			n := min(host, 8)
			b[i] |= byte(1<<n - 1)
			host -= n
		}
		return netip.AddrFrom4(b)
	}
	b := p.Addr().As16()
	host := 128 - p.Bits()
	for i := 15; i >= 0 && host > 0; i-- {
		n := min(host, 8)
		b[i] |= byte(1<<n - 1)
		host -= n
	}
	return netip.AddrFrom16(b)
}

func TestIndexEmptyAndNil(t *testing.T) {
	var nilIdx *Index
	if _, _, ok := nilIdx.Route(netip.MustParseAddr("10.0.0.1")); ok {
		t.Fatal("nil index found a route")
	}
	idx := NewTable().Index()
	if _, _, ok := idx.Route(netip.MustParseAddr("10.0.0.1")); ok {
		t.Fatal("empty index found a route")
	}
	if idx.Len() != 0 {
		t.Fatalf("empty index Len = %d", idx.Len())
	}
	var nilReader *Reader
	if _, _, ok := nilReader.Index().Route(netip.MustParseAddr("10.0.0.1")); ok {
		t.Fatal("nil reader index found a route")
	}
}

// TestCursorMatchesIndex drives a Cursor with random-order queries — the
// worst case for its locality hint — and checks every answer against the
// stateless lookup.
func TestCursorMatchesIndex(t *testing.T) {
	tbl := indexFixture()
	idx := tbl.Index()
	cur := idx.Cursor()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		var p netip.Prefix
		if i%2 == 0 {
			var b [4]byte
			rng.Read(b[:])
			p = netip.PrefixFrom(netip.AddrFrom4(b), rng.Intn(33))
		} else {
			var b [16]byte
			rng.Read(b[:])
			if i%4 == 1 {
				b[0], b[1] = 0x26, byte(rng.Intn(2))*0x20
			}
			p = netip.PrefixFrom(netip.AddrFrom16(b), rng.Intn(129))
		}
		wantP, wantAS, wantOK := idx.CoveringPrefix(p)
		if gotP, gotAS, gotOK := cur.CoveringPrefix(p); gotP != wantP || gotAS != wantAS || gotOK != wantOK {
			t.Fatalf("Cursor.CoveringPrefix(%v) = %v,%v,%v; Index = %v,%v,%v", p, gotP, gotAS, gotOK, wantP, wantAS, wantOK)
		}
	}
	// 4-in-6 mapped and invalid prefixes take the canonicalization path.
	for _, pfx := range []netip.Prefix{
		netip.MustParsePrefix("::ffff:10.0.0.0/104"), // canonicalizes to an invalid v4 prefix
		netip.MustParsePrefix("::ffff:10.0.0.0/24"),  // canonicalizes to 10.0.0.0/24
		netip.MustParsePrefix("::ffff:10.0.0.0/60"),  // bits > 32 after unmap: invalid
		{},
	} {
		wantP, wantAS, wantOK := idx.CoveringPrefix(pfx)
		if gotP, gotAS, gotOK := cur.CoveringPrefix(pfx); gotP != wantP || gotAS != wantAS || gotOK != wantOK {
			t.Fatalf("Cursor.CoveringPrefix(%v) = %v,%v,%v; Index = %v,%v,%v", pfx, gotP, gotAS, gotOK, wantP, wantAS, wantOK)
		}
	}
}

// TestCoveringRouteIDsFollowWalkOrder pins the dense route IDs: the
// announcement Walk visits k-th has ID k, and a table holding the same
// routes, announced in another order, numbers them identically.
func TestCoveringRouteIDsFollowWalkOrder(t *testing.T) {
	tbl := indexFixture()
	rev := NewTable()
	for i := len(indexAnnouncements) - 1; i >= 0; i-- {
		rev.Announce(indexAnnouncements[i].Prefix, indexAnnouncements[i].Origin)
	}
	rev.Announce(netip.MustParsePrefix("10.5.0.0/16"), 16) // the fixture's re-announcement wins there too
	pos := map[netip.Prefix]int32{}
	tbl.Walk(func(a Announcement) bool { pos[a.Prefix] = int32(len(pos)); return true })

	cur, revCur := tbl.Index().Cursor(), rev.Index().Cursor()
	seen := map[int32]bool{}
	probe := func(addr netip.Addr) {
		t.Helper()
		host := netip.PrefixFrom(addr, addr.BitLen())
		p, as, id, ok := cur.CoveringRoute(host)
		if !ok {
			return
		}
		if want, listed := pos[p]; !listed || id != want {
			t.Fatalf("CoveringRoute(%v) = %v id %d; Walk visits it at %d", host, p, id, want)
		}
		if rp, ras, rid, rok := revCur.CoveringRoute(host); !rok || rp != p || ras != as || rid != id {
			t.Fatalf("reordered table: CoveringRoute(%v) = %v,%v,id %d,%v; want %v,%v,id %d", host, rp, ras, rid, rok, p, as, id)
		}
		seen[id] = true
	}
	for _, a := range indexAnnouncements {
		first, last := a.Prefix.Addr(), lastAddr(a.Prefix)
		for _, addr := range []netip.Addr{first, first.Prev(), last, last.Next()} {
			if addr.IsValid() {
				probe(addr)
			}
		}
	}
	// Every route owns some address in this fixture: each ID was reached.
	if len(seen) != len(pos) {
		t.Fatalf("probes reached %d of %d route IDs", len(seen), len(pos))
	}
}

// TestIndexMemoized checks Index hands out one snapshot until the table
// changes, and that a Snapshot shares it rather than copying.
func TestIndexMemoized(t *testing.T) {
	tbl := indexFixture()
	ix := tbl.Index()
	if tbl.Index() != ix {
		t.Fatal("second Index call rebuilt the snapshot")
	}
	if tbl.Snapshot().Index() != ix {
		t.Fatal("Snapshot does not share the memoized Index")
	}
	tbl.Announce(netip.MustParsePrefix("192.0.2.0/24"), 64500)
	fresh := tbl.Index()
	if fresh == ix {
		t.Fatal("Announce did not invalidate the memoized Index")
	}
	if as, ok := fresh.Origin(netip.MustParseAddr("192.0.2.1")); !ok || as != 64500 {
		t.Fatalf("rebuilt Index misses the new route: %v,%v", as, ok)
	}
	if as, _ := ix.Origin(netip.MustParseAddr("192.0.2.1")); as != 1 {
		t.Fatalf("old Index answers %v for the new route, want the default route's AS1", as)
	}
}
