package egress

import (
	"bytes"
	"net/netip"
	"runtime"
	"strings"
	"testing"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/netsim"
)

// sharedWorld and sharedList are built once: generation covers ~240k
// entries and every test in this file reads from the same list.
var (
	sharedWorld *netsim.World
	sharedList  *List
)

func testList(t testing.TB) (*netsim.World, *List) {
	t.Helper()
	if sharedList == nil {
		sharedWorld = netsim.NewWorld(netsim.Params{Seed: 9, Scale: 0.0005})
		sharedList = Generate(sharedWorld, 17)
	}
	return sharedWorld, sharedList
}

// splitByASFam indexes entries per (AS, family) via BGP attribution.
func splitByASFam(t testing.TB, w *netsim.World, l *List) map[bgp.ASN]map[netsim.Family][]Attributed {
	t.Helper()
	out := map[bgp.ASN]map[netsim.Family][]Attributed{}
	for _, a := range AttributeN(l, w.Table, 0) {
		if a.AS == 0 {
			t.Fatalf("unattributed entry %v", a.Prefix)
		}
		fam := netsim.FamilyV4
		if a.Prefix.Addr().Is6() {
			fam = netsim.FamilyV6
		}
		if out[a.AS] == nil {
			out[a.AS] = map[netsim.Family][]Attributed{}
		}
		out[a.AS][fam] = append(out[a.AS][fam], a)
	}
	return out
}

func TestGenerateTable3SubnetCounts(t *testing.T) {
	w, l := testList(t)
	byAS := splitByASFam(t, w, l)
	cases := []struct {
		as      bgp.ASN
		v4, v6  int
		v4Addrs uint64
		v4BGP   int
		v6BGP   int
	}{
		{netsim.ASAkamaiPR, 9890, 142826, 57589, 301, 1172},
		{netsim.ASAkamaiEdge, 1602, 23495, 5100, 1, 1},
		{netsim.ASCloudflare, 18218, 26988, 18218, 112, 2},
		{netsim.ASFastly, 8530, 8530, 17060, 81, 81},
	}
	for _, c := range cases {
		name := netsim.ASName(c.as)
		if got := len(byAS[c.as][netsim.FamilyV4]); got != c.v4 {
			t.Errorf("%s v4 subnets = %d, want %d", name, got, c.v4)
		}
		if got := len(byAS[c.as][netsim.FamilyV6]); got != c.v6 {
			t.Errorf("%s v6 subnets = %d, want %d", name, got, c.v6)
		}
		var addrs uint64
		bgpPfx := map[netip.Prefix]bool{}
		for _, a := range byAS[c.as][netsim.FamilyV4] {
			addrs += iputil.AddrCount(a.Prefix)
			bgpPfx[a.BGPPrefix] = true
		}
		if addrs != c.v4Addrs {
			t.Errorf("%s v4 addresses = %d, want %d", name, addrs, c.v4Addrs)
		}
		if len(bgpPfx) != c.v4BGP {
			t.Errorf("%s v4 BGP prefixes = %d, want %d", name, len(bgpPfx), c.v4BGP)
		}
		bgpPfx6 := map[netip.Prefix]bool{}
		for _, a := range byAS[c.as][netsim.FamilyV6] {
			if a.Prefix.Bits() != 64 {
				t.Fatalf("%s v6 subnet %v is not a /64", name, a.Prefix)
			}
			bgpPfx6[a.BGPPrefix] = true
		}
		if len(bgpPfx6) != c.v6BGP {
			t.Errorf("%s v6 BGP prefixes = %d, want %d", name, len(bgpPfx6), c.v6BGP)
		}
	}
}

func TestGenerateCountryCoverage(t *testing.T) {
	w, l := testList(t)
	byAS := splitByASFam(t, w, l)
	ccsOf := func(as bgp.ASN, fam netsim.Family) map[string]bool {
		set := map[string]bool{}
		for _, a := range byAS[as][fam] {
			set[a.CC] = true
		}
		return set
	}
	// Table 3 IPv6 CC counts.
	if got := len(ccsOf(netsim.ASAkamaiPR, netsim.FamilyV6)); got != 236 {
		t.Errorf("AkamaiPR v6 CCs = %d, want 236", got)
	}
	if got := len(ccsOf(netsim.ASAkamaiEdge, netsim.FamilyV6)); got != 24 {
		t.Errorf("AkamaiEdge v6 CCs = %d, want 24", got)
	}
	if got := len(ccsOf(netsim.ASCloudflare, netsim.FamilyV6)); got != 248 {
		t.Errorf("Cloudflare v6 CCs = %d, want 248", got)
	}
	if got := len(ccsOf(netsim.ASFastly, netsim.FamilyV6)); got != 236 {
		t.Errorf("Fastly v6 CCs = %d, want 236", got)
	}
	// §4.2: AkamaiEdge's 18 IPv4 countries.
	if got := len(ccsOf(netsim.ASAkamaiEdge, netsim.FamilyV4)); got != 18 {
		t.Errorf("AkamaiEdge v4 CCs = %d, want 18", got)
	}
	// Cloudflare-only countries: exactly 11.
	cf := ccsOf(netsim.ASCloudflare, netsim.FamilyV6)
	ak := ccsOf(netsim.ASAkamaiPR, netsim.FamilyV6)
	fast := ccsOf(netsim.ASFastly, netsim.FamilyV6)
	only := 0
	for cc := range cf {
		if !ak[cc] && !fast[cc] {
			only++
		}
	}
	if only != 11 {
		t.Errorf("Cloudflare-only CCs = %d, want 11", only)
	}
	// AkamaiPR covers everything AkamaiEdge covers, plus 212 more.
	edge := ccsOf(netsim.ASAkamaiEdge, netsim.FamilyV6)
	for cc := range edge {
		if !ak[cc] {
			t.Errorf("AkamaiEdge country %s not covered by AkamaiPR", cc)
		}
	}
	if extra := len(ak) - len(edge); extra != 212 {
		t.Errorf("AkamaiPR extra CCs over AkamaiEdge = %d, want 212", extra)
	}
	// KN (Saint Kitts and Nevis) is represented despite having no PoP.
	if !ak["KN"] {
		t.Error("KN missing from AkamaiPR coverage")
	}
}

func TestGenerateTable4CityCounts(t *testing.T) {
	w, l := testList(t)
	byAS := splitByASFam(t, w, l)
	citySet := func(as bgp.ASN, fam netsim.Family) map[string]bool {
		set := map[string]bool{}
		for _, a := range byAS[as][fam] {
			if a.City != "" {
				set[a.CC+"/"+a.City] = true
			}
		}
		return set
	}
	cases := []struct {
		as            bgp.ASN
		total, v4, v6 int
	}{
		{netsim.ASAkamaiPR, 14088, 853, 14085},
		{netsim.ASAkamaiEdge, 7507, 455, 7507},
		{netsim.ASCloudflare, 5228, 1134, 5228},
		{netsim.ASFastly, 848, 848, 848},
	}
	for _, c := range cases {
		name := netsim.ASName(c.as)
		v4 := citySet(c.as, netsim.FamilyV4)
		v6 := citySet(c.as, netsim.FamilyV6)
		union := map[string]bool{}
		for k := range v4 {
			union[k] = true
		}
		for k := range v6 {
			union[k] = true
		}
		if len(v4) != c.v4 {
			t.Errorf("%s v4 cities = %d, want %d", name, len(v4), c.v4)
		}
		if len(v6) != c.v6 {
			t.Errorf("%s v6 cities = %d, want %d", name, len(v6), c.v6)
		}
		if len(union) != c.total {
			t.Errorf("%s total cities = %d, want %d", name, len(union), c.total)
		}
	}
}

func TestGenerateGeoBias(t *testing.T) {
	_, l := testList(t)
	perCC := map[string]int{}
	for _, e := range l.Entries {
		perCC[e.CC]++
	}
	total := len(l.Entries)
	usShare := float64(perCC["US"]) / float64(total) * 100
	if usShare < 50 || usShare > 66 {
		t.Errorf("US share = %.1f%%, want ≈58%%", usShare)
	}
	deShare := float64(perCC["DE"]) / float64(total) * 100
	if deShare < 2.5 || deShare > 5 {
		t.Errorf("DE share = %.1f%%, want ≈3.6%%", deShare)
	}
	// DE is the second-largest country.
	for cc, n := range perCC {
		if cc != "US" && cc != "DE" && n > perCC["DE"] {
			t.Errorf("%s (%d subnets) exceeds DE (%d)", cc, n, perCC["DE"])
		}
	}
	// A long tail of countries below 50 subnets (paper: 123).
	small := 0
	for _, n := range perCC {
		if n < 50 {
			small++
		}
	}
	if small < 90 || small > 160 {
		t.Errorf("countries under 50 subnets = %d, want ≈123", small)
	}
}

func TestGenerateBlankCities(t *testing.T) {
	_, l := testList(t)
	blanks := 0
	for _, e := range l.Entries {
		if e.City == "" {
			blanks++
			if e.Region != "" {
				t.Fatal("blank-city entry has a region")
			}
		}
	}
	share := float64(blanks) / float64(len(l.Entries)) * 100
	if share < 0.8 || share > 2.5 {
		t.Errorf("blank-city share = %.2f%%, want ≈1.6%%", share)
	}
}

func TestGenerateSubnetsDisjoint(t *testing.T) {
	_, l := testList(t)
	// Group by /16 (v4) and /40 (v6) buckets to keep the pairwise check
	// tractable, then verify no overlap within buckets.
	buckets := map[netip.Prefix][]netip.Prefix{}
	for _, e := range l.Entries {
		var key netip.Prefix
		if e.Prefix.Addr().Is4() {
			key = iputil.ParentAt(e.Prefix.Addr(), 16)
		} else {
			key = iputil.ParentAt(e.Prefix.Addr(), 40)
		}
		buckets[key] = append(buckets[key], e.Prefix)
	}
	for key, ps := range buckets {
		seen := map[netip.Prefix]bool{}
		for _, p := range ps {
			if seen[p] {
				t.Fatalf("duplicate subnet %v in bucket %v", p, key)
			}
			seen[p] = true
		}
	}
}

// TestGenerateSameAtAnyGOMAXPROCS: Generate builds its (AS, family)
// parts concurrently, so the list must be the same however many Ps run
// them, and the same as the shared list built at the default.
func TestGenerateSameAtAnyGOMAXPROCS(t *testing.T) {
	w, l := testList(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		again := Generate(w, 17)
		if len(again.Entries) != len(l.Entries) {
			t.Fatalf("GOMAXPROCS=%d: %d entries, want %d", procs, len(again.Entries), len(l.Entries))
		}
		for i := range l.Entries {
			if l.Entries[i] != again.Entries[i] {
				t.Fatalf("GOMAXPROCS=%d: entry %d = %+v, want %+v", procs, i, again.Entries[i], l.Entries[i])
			}
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	_, l := testList(t)
	sub := &List{Entries: l.Entries[:500]}
	var buf bytes.Buffer
	if err := sub.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 500 {
		t.Fatalf("parsed %d entries", len(got.Entries))
	}
	for i := range got.Entries {
		if got.Entries[i] != sub.Entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got.Entries[i], sub.Entries[i])
		}
	}
}

func TestParseCSVErrors(t *testing.T) {
	cases := []string{
		"not-a-prefix,US,r,c\n",
		"10.0.0.0/24,XX,r,c\n",
		"10.0.0.0/24,US,r\n",
	}
	for i, in := range cases {
		if _, err := ParseCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Comments and blank lines are fine.
	got, err := ParseCSV(strings.NewReader("# comment\n\n10.0.0.0/24,US,US-region-00,US-city-000\n"))
	if err != nil || len(got.Entries) != 1 {
		t.Fatalf("comment handling: %v %d", err, len(got.Entries))
	}
}

func TestEntryLocation(t *testing.T) {
	e := Entry{Prefix: netip.MustParsePrefix("1.2.3.0/30"), CC: "DE", Region: "DE-region-00", City: "DE-city-002"}
	loc := e.Location()
	if loc.City != "DE-city-002" || loc.CountryCode != "DE" {
		t.Fatalf("Location = %+v", loc)
	}
	blank := Entry{CC: "DE"}
	bl := blank.Location()
	if bl.Lat == 0 && bl.Lon == 0 {
		t.Fatal("blank-city location should use country centroid")
	}
}

func TestGeoDBAdoptsAppleMapping(t *testing.T) {
	_, l := testList(t)
	db := (&List{Entries: l.Entries[:2000]}).GeoDB()
	e := l.Entries[100]
	addr := e.Prefix.Addr()
	loc, ok := db.Lookup(addr)
	if !ok {
		t.Fatalf("no geo entry for %v", addr)
	}
	if loc.CountryCode != e.CC || loc.City != e.City {
		t.Fatalf("geo db = %+v, list says %s/%s", loc, e.CC, e.City)
	}
}

// TestGeoDBMatchesEntryLocation pins GeoDB's name-free construction to
// the formulation it replaced: every generated entry resolves to its
// own Location() with Region and City overwritten by the entry's.
func TestGeoDBMatchesEntryLocation(t *testing.T) {
	_, l := testList(t)
	db := l.GeoDB()
	if db.Len() != len(l.Entries) {
		t.Fatalf("db holds %d prefixes, list %d entries", db.Len(), len(l.Entries))
	}
	for _, e := range l.Entries {
		want := e.Location()
		want.Region, want.City = e.Region, e.City
		p, got, ok := db.Network(e.Prefix.Addr())
		if !ok || p != e.Prefix || got != want {
			t.Fatalf("%v: db = %v %+v %v, want %+v", e.Prefix, p, got, ok, want)
		}
	}
}

func TestAttributeUnroutedEntry(t *testing.T) {
	w, _ := testList(t)
	l := &List{Entries: []Entry{{Prefix: netip.MustParsePrefix("203.0.113.0/28"), CC: "US"}}}
	attr := AttributeN(l, w.Table, 0)
	if attr[0].AS != 0 || attr[0].BGPPrefix.IsValid() {
		t.Fatalf("unrouted entry attributed: %+v", attr[0])
	}
}

func BenchmarkGenerate(b *testing.B) {
	w := netsim.NewWorld(netsim.Params{Seed: 9, Scale: 0.0005})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Generate(w, 17)
	}
}

// TestAttributeEquivalentAcrossWorkers proves the fanned-out join is
// bit-identical to sequential per-entry table lookups at any worker count.
func TestAttributeEquivalentAcrossWorkers(t *testing.T) {
	w, full := testList(t)
	// A slice of the real list plus hand-placed unrouted entries, so both
	// the found and not-found paths are compared.
	l := &List{Entries: append([]Entry{
		{Prefix: netip.MustParsePrefix("203.0.113.0/28"), CC: "US"},
		{Prefix: netip.MustParsePrefix("2001:db8::/64"), CC: "DE"},
	}, full.Entries[:20000]...)}

	// Reference: the pre-sharding algorithm, entry by entry against the
	// table.
	want := make([]Attributed, len(l.Entries))
	for i, e := range l.Entries {
		want[i] = Attributed{Entry: e}
		if route, as, ok := w.Table.CoveringPrefix(e.Prefix); ok {
			want[i].AS = as
			want[i].BGPPrefix = route
		}
	}

	for _, workers := range []int{1, 8, 64} {
		got := AttributeN(l, w.Table, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		// RouteID is new metadata the reference join doesn't produce:
		// check its contract (0 iff unrouted, bijective with BGPPrefix)
		// and compare everything else verbatim.
		idOf := map[netip.Prefix]int32{}
		pfxOf := map[int32]netip.Prefix{}
		for i := range got {
			g := got[i]
			if (g.RouteID == 0) != (g.AS == 0) {
				t.Fatalf("workers=%d: entry %d RouteID=%d with AS=%v", workers, i, g.RouteID, g.AS)
			}
			if g.RouteID != 0 {
				if prev, seen := idOf[g.BGPPrefix]; seen && prev != g.RouteID {
					t.Fatalf("workers=%d: prefix %v has RouteIDs %d and %d", workers, g.BGPPrefix, prev, g.RouteID)
				}
				if prev, seen := pfxOf[g.RouteID]; seen && prev != g.BGPPrefix {
					t.Fatalf("workers=%d: RouteID %d names prefixes %v and %v", workers, g.RouteID, prev, g.BGPPrefix)
				}
				idOf[g.BGPPrefix] = g.RouteID
				pfxOf[g.RouteID] = g.BGPPrefix
			}
			g.RouteID = 0
			if g != want[i] {
				t.Fatalf("workers=%d: entry %d = %+v, want %+v", workers, i, g, want[i])
			}
		}
	}
}
