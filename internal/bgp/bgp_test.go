package bgp

import (
	"net/netip"
	"slices"
	"sync"
	"testing"
)

func TestASNString(t *testing.T) {
	if ASN(714).String() != "AS714" {
		t.Fatalf("ASN.String = %s", ASN(714).String())
	}
}

func TestAnnounceAndOrigin(t *testing.T) {
	tbl := NewTable()
	tbl.Announce(netip.MustParsePrefix("17.0.0.0/8"), 714)
	tbl.Announce(netip.MustParsePrefix("23.32.0.0/11"), 36183)

	as, ok := tbl.Origin(netip.MustParseAddr("17.248.1.1"))
	if !ok || as != 714 {
		t.Fatalf("Origin = %v,%v want AS714", as, ok)
	}
	if _, ok := tbl.Origin(netip.MustParseAddr("9.9.9.9")); ok {
		t.Fatal("unrouted address attributed")
	}
}

func TestLongestMatchWins(t *testing.T) {
	tbl := NewTable()
	tbl.Announce(netip.MustParsePrefix("23.0.0.0/8"), 20940)
	tbl.Announce(netip.MustParsePrefix("23.32.0.0/11"), 36183)
	as, _ := tbl.Origin(netip.MustParseAddr("23.32.5.5"))
	if as != 36183 {
		t.Fatalf("more-specific lost: %v", as)
	}
	as, _ = tbl.Origin(netip.MustParseAddr("23.200.0.1"))
	if as != 20940 {
		t.Fatalf("covering prefix lost: %v", as)
	}
}

func TestReannounceMovesPrefix(t *testing.T) {
	tbl := NewTable()
	p := netip.MustParsePrefix("198.51.100.0/24")
	tbl.Announce(p, 100)
	tbl.Announce(p, 200)
	if as, _ := tbl.Origin(netip.MustParseAddr("198.51.100.1")); as != 200 {
		t.Fatalf("origin after re-announce = %v", as)
	}
	if got := tbl.PrefixesOf(100); len(got) != 0 {
		t.Fatalf("old AS still lists prefix: %v", got)
	}
	if got := tbl.PrefixesOf(200); len(got) != 1 || got[0] != p {
		t.Fatalf("new AS list: %v", got)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tbl.Len())
	}
}

func TestInvalidPrefixIgnored(t *testing.T) {
	tbl := NewTable()
	tbl.Announce(netip.Prefix{}, 1)
	if tbl.Len() != 0 {
		t.Fatal("invalid prefix was stored")
	}
}

// TestWalkOrder pins the order Walk visits announcements in: IPv4
// before IPv6, then address, then length — the order Index numbers its
// routes and netsim's RoutedV4Prefixes lists the scan universe in.
func TestWalkOrder(t *testing.T) {
	tbl := NewTable()
	for _, p := range []string{"2001:db8::/32", "192.0.2.0/24", "10.1.0.0/16", "10.0.0.0/8", "10.0.0.0/16"} {
		tbl.Announce(netip.MustParsePrefix(p), 1)
	}
	var got []string
	tbl.Walk(func(a Announcement) bool { got = append(got, a.Prefix.String()); return true })
	want := []string{"10.0.0.0/8", "10.0.0.0/16", "10.1.0.0/16", "192.0.2.0/24", "2001:db8::/32"}
	if !slices.Equal(got, want) {
		t.Fatalf("Walk order = %v, want %v", got, want)
	}
	n := 0
	tbl.Walk(func(Announcement) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("Walk early stop visited %d, want 2", n)
	}
}

func TestCoveringPrefix(t *testing.T) {
	tbl := NewTable()
	bgpPfx := netip.MustParsePrefix("172.224.0.0/12")
	tbl.Announce(bgpPfx, 36183)
	got, as, ok := tbl.CoveringPrefix(netip.MustParsePrefix("172.224.5.0/24"))
	if !ok || got != bgpPfx || as != 36183 {
		t.Fatalf("CoveringPrefix = %v,%v,%v", got, as, ok)
	}
}

func TestConcurrentLookups(t *testing.T) {
	tbl := NewTable()
	for i := 0; i < 64; i++ {
		tbl.Announce(netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(i), 0, 0, 0}), 8), ASN(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				addr := netip.AddrFrom4([4]byte{byte(i % 64), 1, 2, 3})
				if as, ok := tbl.Origin(addr); !ok || as != ASN(i%64) {
					t.Errorf("goroutine %d: Origin(%v) = %v,%v", g, addr, as, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReaderSnapshot checks the lock-free read view: lookups agree with
// the table, later announcements stay invisible to an existing snapshot,
// and a nil Reader reports "not found" instead of panicking.
func TestReaderSnapshot(t *testing.T) {
	tbl := NewTable()
	tbl.Announce(netip.MustParsePrefix("17.0.0.0/8"), 714)
	r := tbl.Snapshot()

	if as, ok := r.Origin(netip.MustParseAddr("17.248.1.1")); !ok || as != 714 {
		t.Fatalf("Reader.Origin = %v,%v want AS714", as, ok)
	}
	if p, as, ok := r.Index().Route(netip.MustParseAddr("17.248.1.1")); !ok || as != 714 || p != netip.MustParsePrefix("17.0.0.0/8") {
		t.Fatalf("Reader.Index().Route = %v,%v,%v", p, as, ok)
	}

	tbl.Announce(netip.MustParsePrefix("23.32.0.0/11"), 36183)
	if _, ok := r.Origin(netip.MustParseAddr("23.32.0.1")); ok {
		t.Fatal("snapshot sees announcement made after Snapshot()")
	}
	if as, ok := tbl.Origin(netip.MustParseAddr("23.32.0.1")); !ok || as != 36183 {
		t.Fatalf("table lost new announcement: %v,%v", as, ok)
	}

	var nilReader *Reader
	if _, ok := nilReader.Origin(netip.MustParseAddr("17.0.0.1")); ok {
		t.Fatal("nil Reader found a route")
	}
	if _, _, ok := nilReader.Index().Route(netip.MustParseAddr("17.0.0.1")); ok {
		t.Fatal("nil Reader found a route")
	}
}

// TestSnapshotSurvivesReannounce re-announces an existing prefix to
// another AS: a Reader and an Index taken before it keep answering with
// the old origin, while the table answers with the new one.
func TestSnapshotSurvivesReannounce(t *testing.T) {
	tbl := NewTable()
	p := netip.MustParsePrefix("172.224.0.0/12")
	tbl.Announce(netip.MustParsePrefix("17.0.0.0/8"), 714)
	tbl.Announce(p, 36183)
	r, ix := tbl.Snapshot(), tbl.Index()

	tbl.Announce(p, 13335)
	addr := netip.MustParseAddr("172.224.5.1")
	if as, ok := r.Origin(addr); !ok || as != 36183 {
		t.Fatalf("Reader.Origin after re-announce = %v,%v, want AS36183", as, ok)
	}
	if route, as, ok := ix.Route(addr); !ok || as != 36183 || route != p {
		t.Fatalf("old Index.Route after re-announce = %v,%v,%v, want %v AS36183", route, as, ok, p)
	}
	if as, ok := tbl.Origin(addr); !ok || as != 13335 {
		t.Fatalf("Table.Origin after re-announce = %v,%v, want AS13335", as, ok)
	}
	if got := tbl.Index(); got == ix {
		t.Fatal("Announce did not invalidate the memoized Index")
	}
	if as, _ := ix.Origin(netip.MustParseAddr("17.1.1.1")); as != 714 {
		t.Fatalf("old Index lost an untouched route: %v", as)
	}
}

func TestMonthOrdering(t *testing.T) {
	a := Month{2021, 6}
	b := Month{2021, 7}
	c := Month{2022, 1}
	if !a.Before(b) || !b.Before(c) || c.Before(a) {
		t.Fatal("Month.Before broken")
	}
	if a.Next() != b {
		t.Fatalf("Next = %v", a.Next())
	}
	if (Month{2021, 12}).Next() != (Month{2022, 1}) {
		t.Fatal("December rollover broken")
	}
	if a.String() != "2021-06" {
		t.Fatalf("String = %s", a.String())
	}
}

func TestHistoryFirstSeen(t *testing.T) {
	h := NewHistory()
	// AS36183 appears in June 2021 — the paper's dating of the PR AS.
	for m := (Month{2016, 1}); m.Before(Month{2022, 7}); m = m.Next() {
		h.Record(m, 714) // Apple always visible
		if !m.Before(Month{2021, 6}) {
			h.Record(m, 36183)
		}
	}
	first, ok := h.FirstSeen(36183)
	if !ok || first != (Month{2021, 6}) {
		t.Fatalf("FirstSeen(36183) = %v,%v want 2021-06", first, ok)
	}
	first, _ = h.FirstSeen(714)
	if first != (Month{2016, 1}) {
		t.Fatalf("FirstSeen(714) = %v", first)
	}
	if _, ok := h.FirstSeen(99999); ok {
		t.Fatal("unknown AS has FirstSeen")
	}
	months := h.Months()
	if len(months) == 0 || months[0] != (Month{2016, 1}) {
		t.Fatalf("Months[0] = %v", months)
	}
}
