package analysis

import (
	"context"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/colstore"
	"github.com/relay-networks/privaterelay/internal/core"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/egress"
	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/scan"
)

var (
	aWorld      *netsim.World
	aAttributed []egress.Attributed
	aOnce       sync.Once
)

func fixtures(t testing.TB) (*netsim.World, []egress.Attributed) {
	t.Helper()
	aOnce.Do(func() {
		aWorld = netsim.NewWorld(netsim.Params{Seed: 20, Scale: 0.0012})
		aAttributed = egress.AttributeN(egress.Generate(aWorld, 20), aWorld.Table, 0)
	})
	return aWorld, aAttributed
}

func scanDataset(t testing.TB, w *netsim.World, month bgp.Month, domain string) *colstore.Dataset {
	t.Helper()
	srv := dnsserver.NewAuthServer(w, month, nil)
	ds, err := core.Scan(context.Background(), core.ScanConfig{
		Exchanger:    &dnsserver.MemTransport{Handler: srv, Source: netip.MustParseAddr("198.51.100.53")},
		Domain:       domain,
		Universe:     w.RoutedV4Prefixes(),
		Attribution:  w.Table,
		RespectScope: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &ds.Dataset
}

func TestTable1MatchesPaperShape(t *testing.T) {
	w, _ := fixtures(t)
	def := map[bgp.Month]*colstore.Dataset{}
	fb := map[bgp.Month]*colstore.Dataset{}
	for _, m := range netsim.ScanMonths {
		def[m] = scanDataset(t, w, m, dnsserver.MaskDomain)
		if m != netsim.MonthJan { // January fallback scan absent
			fb[m] = scanDataset(t, w, m, dnsserver.MaskH2Domain)
		}
	}
	rows := Table1(netsim.ScanMonths, def, fb)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Paper values.
	want := []struct{ da, dk, fa, fk int }{
		{365, 823, 0, 0},
		{355, 845, 356, 0},
		{347, 945, 334, 25},
		{349, 1237, 336, 1062},
	}
	for i, r := range rows {
		if r.DefaultApple != want[i].da || r.DefaultAkamai != want[i].dk {
			t.Errorf("row %d default = %d/%d, want %d/%d", i, r.DefaultApple, r.DefaultAkamai, want[i].da, want[i].dk)
		}
		if i == 0 {
			if r.FallbackPresent {
				t.Error("January fallback should be absent")
			}
			continue
		}
		if !r.FallbackPresent || r.FallbackApple != want[i].fa || r.FallbackAkamai != want[i].fk {
			t.Errorf("row %d fallback = %d/%d, want %d/%d", i, r.FallbackApple, r.FallbackAkamai, want[i].fa, want[i].fk)
		}
	}
	// Akamai share grows monotonically on the default plane (69→78 %).
	prev := -1.0
	for _, r := range rows {
		_, ak := r.SharePct()
		if ak <= prev {
			t.Errorf("Akamai share not growing: %.1f after %.1f", ak, prev)
		}
		prev = ak
	}
	text := RenderTable1(rows)
	if !strings.Contains(text, "1237") || !strings.Contains(text, "78.0%") {
		t.Errorf("rendered table missing key cells:\n%s", text)
	}
}

func TestTable2Shape(t *testing.T) {
	w, _ := fixtures(t)
	ds := scanDataset(t, w, netsim.MonthApr, dnsserver.MaskDomain)
	rows := Table2(ds, w.Pop)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byGroup := map[string]Table2Row{}
	for _, r := range rows {
		byGroup[r.Group] = r
	}
	// Orderings from Table 2.
	if !(byGroup["AkamaiPR"].ASes > byGroup["Apple"].ASes && byGroup["Apple"].ASes > byGroup["Both"].ASes) {
		t.Errorf("AS counts out of order: %+v", rows)
	}
	if !(byGroup["Both"].Subnets > byGroup["AkamaiPR"].Subnets && byGroup["AkamaiPR"].Subnets > byGroup["Apple"].Subnets) {
		t.Errorf("subnet counts out of order: %+v", rows)
	}
	if !(byGroup["Both"].ASPop > byGroup["AkamaiPR"].ASPop && byGroup["AkamaiPR"].ASPop > byGroup["Apple"].ASPop) {
		t.Errorf("populations out of order: %+v", rows)
	}
	share := AppleShareInBoth(ds)
	if share < 70 || share > 82 {
		t.Errorf("Apple share in Both = %.1f%%", share)
	}
	if !strings.Contains(RenderTable2(rows, share), "Both") {
		t.Error("render missing Both row")
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	_, attributed := fixtures(t)
	rows := Table3N(attributed, 0)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	want := map[bgp.ASN]Table3Row{
		netsim.ASCloudflare: {V4Subnets: 18218, V4BGP: 112, V4Addrs: 18218, V6Subnets: 26988, V6BGP: 2, V6CCs: 248},
		netsim.ASAkamaiEdge: {V4Subnets: 1602, V4BGP: 1, V4Addrs: 5100, V6Subnets: 23495, V6BGP: 1, V6CCs: 24},
		netsim.ASAkamaiPR:   {V4Subnets: 9890, V4BGP: 301, V4Addrs: 57589, V6Subnets: 142826, V6BGP: 1172, V6CCs: 236},
		netsim.ASFastly:     {V4Subnets: 8530, V4BGP: 81, V4Addrs: 17060, V6Subnets: 8530, V6BGP: 81, V6CCs: 236},
	}
	for _, r := range rows {
		w, ok := want[r.AS]
		if !ok {
			t.Fatalf("unexpected AS %v", r.AS)
		}
		if r.V4Subnets != w.V4Subnets || r.V4BGP != w.V4BGP || r.V4Addrs != w.V4Addrs ||
			r.V6Subnets != w.V6Subnets || r.V6BGP != w.V6BGP || r.V6CCs != w.V6CCs {
			t.Errorf("%s row = %+v, want %+v", netsim.ASName(r.AS), r, w)
		}
	}
	text := RenderTable3(rows)
	if !strings.Contains(text, "142826") || !strings.Contains(text, "57589") {
		t.Errorf("rendered Table 3 missing cells:\n%s", text)
	}
}

func TestTable4MatchesPaper(t *testing.T) {
	_, attributed := fixtures(t)
	rows := Table4N(attributed, 0)
	want := map[bgp.ASN][3]int{
		netsim.ASAkamaiPR:   {14088, 853, 14085},
		netsim.ASAkamaiEdge: {7507, 455, 7507},
		netsim.ASCloudflare: {5228, 1134, 5228},
		netsim.ASFastly:     {848, 848, 848},
	}
	for _, r := range rows {
		w := want[r.AS]
		if r.Cities != w[0] || r.CitiesV4 != w[1] || r.CitiesV6 != w[2] {
			t.Errorf("%s cities = %d/%d/%d, want %v", netsim.ASName(r.AS), r.Cities, r.CitiesV4, r.CitiesV6, w)
		}
	}
	if !strings.Contains(RenderTable4(rows), "14088") {
		t.Error("rendered Table 4 missing combined city count")
	}
}

func TestCountryShares(t *testing.T) {
	_, attributed := fixtures(t)
	shares, small := CountrySharesN(attributed, 50, 0)
	if shares[0].CC != "US" {
		t.Fatalf("top country = %s", shares[0].CC)
	}
	if shares[0].Share < 50 || shares[0].Share > 66 {
		t.Fatalf("US share = %.1f%%", shares[0].Share)
	}
	if shares[1].CC != "DE" {
		t.Fatalf("second country = %s", shares[1].CC)
	}
	if small < 90 || small > 160 {
		t.Fatalf("small countries = %d, want ≈123", small)
	}
}

func TestGeoScatterAndBounds(t *testing.T) {
	_, attributed := fixtures(t)
	pts := GeoScatter(attributed, netsim.ASCloudflare, netsim.FamilyV4)
	if len(pts) != 18218 {
		t.Fatalf("Cloudflare v4 points = %d", len(pts))
	}
	b := Bounds(pts)
	if b.DistinctCountries != 248 {
		t.Fatalf("scatter countries = %d", b.DistinctCountries)
	}
	// Points span the globe.
	if b.MaxLat-b.MinLat < 60 || b.MaxLon-b.MinLon < 180 {
		t.Fatalf("scatter not global: %+v", b)
	}
	if Bounds(nil).Points != 0 {
		t.Fatal("empty bounds")
	}
	if !strings.Contains(RenderGeoBounds("cf", b), "248") {
		t.Fatal("render misses country count")
	}
}

func TestLocationCDFShape(t *testing.T) {
	_, attributed := fixtures(t)
	cdf := LocationCDF(attributed, netsim.ASAkamaiPR, netsim.FamilyV6, ByCity)
	if len(cdf) != 14085 {
		t.Fatalf("CDF over %d cities, want 14085", len(cdf))
	}
	// Monotonic, ends at 1.
	prev := 0.0
	for _, p := range cdf {
		if p.CumShare < prev {
			t.Fatal("CDF not monotonic")
		}
		prev = p.CumShare
	}
	if prev < 0.999 || prev > 1.001 {
		t.Fatalf("CDF ends at %.4f", prev)
	}
	// Concentration: top 10 % of cities hold around half the subnets
	// (the Figure 4 curves rise steeply).
	if g := GiniLike(cdf); g < 0.45 {
		t.Fatalf("top-decile share = %.2f, want concentrated", g)
	}
	ccCDF := LocationCDF(attributed, netsim.ASAkamaiPR, netsim.FamilyV6, ByCountry)
	if len(ccCDF) != 236 {
		t.Fatalf("country CDF over %d CCs", len(ccCDF))
	}
	if !strings.Contains(RenderCDF("x", cdf), "top") {
		t.Fatal("CDF render broken")
	}
	if RenderCDF("empty", nil) == "" {
		t.Fatal("empty CDF render broken")
	}
}

func TestFigure3Rendering(t *testing.T) {
	obs := []scan.Observation{
		{Round: 0, Operator: netsim.ASCloudflare},
		{Round: 1, Operator: netsim.ASCloudflare},
		{Round: 2, At: 10 * time.Minute, Operator: netsim.ASAkamaiPR},
	}
	s := Figure3("Open Scan", obs)
	if s.Rounds != 3 || len(s.Changes) != 1 {
		t.Fatalf("series: %+v", s)
	}
	text := RenderFigure3([]Figure3Series{s})
	if !strings.Contains(text, "Open Scan") || !strings.Contains(text, "Cloudflare → AkamaiPR") {
		t.Fatalf("render:\n%s", text)
	}
}

// equivFixture is a hand-crafted attributed list for the table
// equivalence tests: shuffled ASes (including unattributed AS-0 rows),
// both families, repeated and unique BGP prefixes, several countries,
// and city-less entries — every branch of the sharded builders.
func equivFixture() []egress.Attributed {
	ccs := []string{"US", "DE", "JP", "BR", "FR", "GB"}
	ases := []bgp.ASN{0, 36183, 20940, 13335, 54113}
	out := make([]egress.Attributed, 0, 10000)
	for i := 0; i < 10000; i++ {
		a := egress.Attributed{AS: ases[i%len(ases)]}
		a.CC = ccs[(i/7)%len(ccs)]
		if i%13 != 0 {
			a.Region = a.CC + "-region-00"
			a.City = a.CC + "-city-" + string(rune('0'+i%5)) // 5 cities per CC
		}
		if i%3 == 0 {
			a.Prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(i >> 8), byte(i), 0, 0}), 24+i%8)
			a.BGPPrefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(i >> 10), 0, 0, 0}), 12)
		} else {
			a.Prefix = netip.PrefixFrom(netip.AddrFrom16([16]byte{0x26, 0, byte(i >> 8), byte(i)}), 64)
			a.BGPPrefix = netip.PrefixFrom(netip.AddrFrom16([16]byte{0x26, 0, byte(i >> 10)}), 32)
		}
		if a.AS == 0 {
			a.BGPPrefix = netip.Prefix{}
		}
		out = append(out, a)
	}
	return out
}

// TestTablesEquivalentAcrossWorkers proves the sharded table builders
// are bit-identical to a straightforward sequential rebuild at any
// worker count.
func TestTablesEquivalentAcrossWorkers(t *testing.T) {
	attributed := equivFixture()

	// Sequential references, written the way the pre-sharding builders
	// worked: plain maps, no memoization, no filters.
	type t3ref struct {
		row                Table3Row
		v4BGP, v6BGP, v6CC map[string]bool
	}
	ref3 := map[bgp.ASN]*t3ref{}
	type t4ref struct{ all, v4, v6 map[string]bool }
	ref4 := map[bgp.ASN]*t4ref{}
	ccCounts := map[string]int{}
	for _, a := range attributed {
		ccCounts[a.CC]++
		if a.AS == 0 {
			continue
		}
		r3 := ref3[a.AS]
		if r3 == nil {
			r3 = &t3ref{row: Table3Row{AS: a.AS}, v4BGP: map[string]bool{}, v6BGP: map[string]bool{}, v6CC: map[string]bool{}}
			ref3[a.AS] = r3
		}
		if a.Prefix.Addr().Is4() {
			r3.row.V4Subnets++
			r3.row.V4Addrs += iputil.AddrCount(a.Prefix)
			r3.v4BGP[a.BGPPrefix.String()] = true
		} else {
			r3.row.V6Subnets++
			r3.v6BGP[a.BGPPrefix.String()] = true
			r3.v6CC[a.CC] = true
		}
		if a.City != "" {
			r4 := ref4[a.AS]
			if r4 == nil {
				r4 = &t4ref{all: map[string]bool{}, v4: map[string]bool{}, v6: map[string]bool{}}
				ref4[a.AS] = r4
			}
			key := a.CC + "/" + a.City
			r4.all[key] = true
			if a.Prefix.Addr().Is4() {
				r4.v4[key] = true
			} else {
				r4.v6[key] = true
			}
		}
	}

	for _, workers := range []int{1, 8, 64} {
		rows3 := Table3N(attributed, workers)
		if len(rows3) != len(ref3) {
			t.Fatalf("workers=%d: Table3 has %d rows, want %d", workers, len(rows3), len(ref3))
		}
		for _, row := range rows3 {
			r := ref3[row.AS]
			want := r.row
			want.V4BGP, want.V6BGP, want.V6CCs = len(r.v4BGP), len(r.v6BGP), len(r.v6CC)
			if row != want {
				t.Fatalf("workers=%d: Table3 %v = %+v, want %+v", workers, row.AS, row, want)
			}
		}

		rows4 := Table4N(attributed, workers)
		if len(rows4) != len(ref4) {
			t.Fatalf("workers=%d: Table4 has %d rows, want %d", workers, len(rows4), len(ref4))
		}
		for _, row := range rows4 {
			r := ref4[row.AS]
			want := Table4Row{AS: row.AS, Cities: len(r.all), CitiesV4: len(r.v4), CitiesV6: len(r.v6)}
			if row != want {
				t.Fatalf("workers=%d: Table4 %v = %+v, want %+v", workers, row.AS, row, want)
			}
		}

		shares, small := CountrySharesN(attributed, 1200, workers)
		if len(shares) != len(ccCounts) {
			t.Fatalf("workers=%d: %d countries, want %d", workers, len(shares), len(ccCounts))
		}
		wantSmall := 0
		for i, s := range shares {
			if s.Subnets != ccCounts[s.CC] {
				t.Fatalf("workers=%d: %s = %d subnets, want %d", workers, s.CC, s.Subnets, ccCounts[s.CC])
			}
			if i > 0 && (shares[i-1].Subnets < s.Subnets || (shares[i-1].Subnets == s.Subnets && shares[i-1].CC > s.CC)) {
				t.Fatalf("workers=%d: shares out of order at %d", workers, i)
			}
		}
		for _, n := range ccCounts {
			if n < 1200 {
				wantSmall++
			}
		}
		if small != wantSmall {
			t.Fatalf("workers=%d: smallCCs = %d, want %d", workers, small, wantSmall)
		}
	}
}

// TestTablesLargeListEquivalence cross-checks the sharded builders on
// the realistic generated list: every worker count must reproduce the
// workers=1 rows exactly.
func TestTablesLargeListEquivalence(t *testing.T) {
	_, attributed := fixtures(t)
	want3 := Table3N(attributed, 1)
	want4 := Table4N(attributed, 1)
	wantShares, wantSmall := CountrySharesN(attributed, 50, 1)
	if len(want3) == 0 || len(want4) == 0 || len(wantShares) == 0 {
		t.Fatal("baseline tables empty; equivalence test would be vacuous")
	}
	for _, workers := range []int{8, 64} {
		if got := Table3N(attributed, workers); !slices.Equal(got, want3) {
			t.Fatalf("workers=%d: Table3 diverges", workers)
		}
		if got := Table4N(attributed, workers); !slices.Equal(got, want4) {
			t.Fatalf("workers=%d: Table4 diverges", workers)
		}
		gotShares, gotSmall := CountrySharesN(attributed, 50, workers)
		if gotSmall != wantSmall || !slices.Equal(gotShares, wantShares) {
			t.Fatalf("workers=%d: country shares diverge", workers)
		}
	}
}
