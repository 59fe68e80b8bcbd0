package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/netip"
	"slices"
	"testing"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/iputil"
)

// testWorld builds a small world shared across tests in this package.
func testWorld(t testing.TB) *World {
	t.Helper()
	return NewWorld(Params{Seed: 1, Scale: 0.001})
}

func TestASNames(t *testing.T) {
	cases := map[bgp.ASN]string{
		ASApple:      "Apple",
		ASAkamaiPR:   "AkamaiPR",
		ASAkamaiEdge: "AkamaiEdge",
		ASCloudflare: "Cloudflare",
		ASFastly:     "Fastly",
		bgp.ASN(99):  "AS99",
	}
	for as, want := range cases {
		if got := ASName(as); got != want {
			t.Errorf("ASName(%v) = %q, want %q", as, got, want)
		}
	}
}

func TestProtoFamilyGroupStrings(t *testing.T) {
	if ProtoDefault.String() != "default" || ProtoFallback.String() != "fallback" {
		t.Error("Proto strings")
	}
	if FamilyV4.String() != "IPv4" || FamilyV6.String() != "IPv6" {
		t.Error("Family strings")
	}
	if GroupAkamaiOnly.String() != "AkamaiPR" || GroupAppleOnly.String() != "Apple" || GroupBoth.String() != "Both" {
		t.Error("Group strings")
	}
}

func TestWorldDeterminism(t *testing.T) {
	a := NewWorld(Params{Seed: 7, Scale: 0.001})
	b := NewWorld(Params{Seed: 7, Scale: 0.001})
	if len(a.ClientASes) != len(b.ClientASes) {
		t.Fatal("client AS counts differ across identical params")
	}
	for i := range a.ClientASes {
		if a.ClientASes[i].Prefixes[0] != b.ClientASes[i].Prefixes[0] {
			t.Fatalf("client %d prefixes differ", i)
		}
	}
	fa := a.IngressFleet(ASAkamaiPR, MonthApr, ProtoDefault, FamilyV4, 0)
	fb := b.IngressFleet(ASAkamaiPR, MonthApr, ProtoDefault, FamilyV4, 0)
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatal("fleets differ across identical params")
		}
	}
	c := NewWorld(Params{Seed: 8, Scale: 0.001})
	if len(c.ClientASes) != len(a.ClientASes) {
		t.Fatal("seed should not change universe size")
	}
}

func TestClientUniverseShape(t *testing.T) {
	w := testWorld(t)
	counts := map[ServeGroup]int{}
	slash24 := map[ServeGroup]int{}
	for _, c := range w.ClientASes {
		counts[c.Group]++
		slash24[c.Group] += c.Slash24s
	}
	// AS-count ordering from Table 2: AkamaiOnly > AppleOnly > Both.
	if !(counts[GroupAkamaiOnly] > counts[GroupAppleOnly] && counts[GroupAppleOnly] > counts[GroupBoth]) {
		t.Fatalf("group AS counts out of order: %v", counts)
	}
	// Subnet-count ordering: Both ≫ AkamaiOnly > AppleOnly.
	if !(slash24[GroupBoth] > slash24[GroupAkamaiOnly] && slash24[GroupAkamaiOnly] > slash24[GroupAppleOnly]) {
		t.Fatalf("group /24 counts out of order: %v", slash24)
	}
	if w.ClientSlash24Count() != slash24[GroupAkamaiOnly]+slash24[GroupAppleOnly]+slash24[GroupBoth] {
		t.Fatal("ClientSlash24Count inconsistent")
	}
}

func TestClientPopulationsFollowTable2Ordering(t *testing.T) {
	w := testWorld(t)
	pops := map[ServeGroup]int64{}
	for _, c := range w.ClientASes {
		pops[c.Group] += w.Pop.Population(c.ASN)
	}
	// Both (2373M) > AkamaiOnly (994M) > AppleOnly (105M), scaled.
	if !(pops[GroupBoth] > pops[GroupAkamaiOnly] && pops[GroupAkamaiOnly] > pops[GroupAppleOnly]) {
		t.Fatalf("population ordering wrong: %v", pops)
	}
}

func TestClientPrefixesDisjointAndRouted(t *testing.T) {
	w := testWorld(t)
	var prev netip.Prefix
	for i, c := range w.ClientASes {
		p := c.Prefixes[0]
		as, ok := w.Table.Origin(p.Addr())
		if !ok || as != c.ASN {
			t.Fatalf("client %d prefix %v not attributed to its AS", i, p)
		}
		if i > 0 && prev.Overlaps(p) {
			// Allocation is sequential, so only adjacent collisions possible.
			t.Fatalf("client prefixes overlap: %v and %v", prev, p)
		}
		prev = p
	}
}

func TestServicePrefixCalibration(t *testing.T) {
	w := testWorld(t)
	// §6 audit numbers for AkamaiPR.
	v4 := len(w.EgressPrefixes(ASAkamaiPR, FamilyV4)) + len(w.IngressPrefixes(ASAkamaiPR, FamilyV4)) + len(w.UnusedPrefixes(ASAkamaiPR, FamilyV4))
	if v4 != 478 {
		t.Fatalf("AkamaiPR v4 prefixes = %d, want 478", v4)
	}
	v6 := len(w.EgressPrefixes(ASAkamaiPR, FamilyV6)) + len(w.IngressPrefixes(ASAkamaiPR, FamilyV6)) + len(w.UnusedPrefixes(ASAkamaiPR, FamilyV6))
	if v6 != 1335 {
		t.Fatalf("AkamaiPR v6 prefixes = %d, want 1335", v6)
	}
	used := len(w.EgressPrefixes(ASAkamaiPR, FamilyV4)) + len(w.IngressPrefixes(ASAkamaiPR, FamilyV4)) +
		len(w.EgressPrefixes(ASAkamaiPR, FamilyV6)) + len(w.IngressPrefixes(ASAkamaiPR, FamilyV6))
	share := float64(used) / float64(v4+v6) * 100
	if share < 91 || share > 94 {
		t.Fatalf("AkamaiPR used-prefix share = %.1f%%, want ≈92.2%%", share)
	}
	// v4 ingress routed prefixes total 123 (Apple 23 + AkamaiPR 100).
	ingress := len(w.IngressPrefixes(ASApple, FamilyV4)) + len(w.IngressPrefixes(ASAkamaiPR, FamilyV4))
	if ingress != 123 {
		t.Fatalf("v4 ingress prefixes = %d, want 123", ingress)
	}
	// Table 3 BGP prefix counts.
	if n := len(w.EgressPrefixes(ASAkamaiEdge, FamilyV4)); n != 1 {
		t.Fatalf("AkamaiEdge v4 egress prefixes = %d, want 1", n)
	}
	if n := len(w.EgressPrefixes(ASCloudflare, FamilyV4)); n != 112 {
		t.Fatalf("Cloudflare v4 egress prefixes = %d, want 112", n)
	}
	if n := len(w.EgressPrefixes(ASCloudflare, FamilyV6)); n != 2 {
		t.Fatalf("Cloudflare v6 egress prefixes = %d, want 2", n)
	}
	if n := len(w.EgressPrefixes(ASFastly, FamilyV4)); n != 81 {
		t.Fatalf("Fastly v4 egress prefixes = %d, want 81", n)
	}
	if n := len(w.EgressPrefixes(ASFastly, FamilyV6)); n != 81 {
		t.Fatalf("Fastly v6 egress prefixes = %d, want 81", n)
	}
}

func TestFleetSizesMatchTable1(t *testing.T) {
	w := testWorld(t)
	cases := []struct {
		month  bgp.Month
		proto  Proto
		apple  int
		akamai int
	}{
		{MonthJan, ProtoDefault, 365, 823},
		{MonthFeb, ProtoDefault, 355, 845},
		{MonthMar, ProtoDefault, 347, 945},
		{MonthApr, ProtoDefault, 349, 1237},
		{MonthFeb, ProtoFallback, 356, 0},
		{MonthMar, ProtoFallback, 334, 25},
		{MonthApr, ProtoFallback, 336, 1062},
	}
	for _, c := range cases {
		na := len(w.IngressFleet(ASApple, c.month, c.proto, FamilyV4, 0))
		nk := len(w.IngressFleet(ASAkamaiPR, c.month, c.proto, FamilyV4, 0))
		if na != c.apple || nk != c.akamai {
			t.Errorf("%v/%v fleet = %d/%d, want %d/%d", c.month, c.proto, na, nk, c.apple, c.akamai)
		}
	}
	// April default total is the paper's 1586 headline.
	if n := len(w.FleetUnion(MonthApr, ProtoDefault, FamilyV4, 0)); n != 1586 {
		t.Fatalf("April default fleet union = %d, want 1586", n)
	}
	// April IPv6 total is 1575 (346 + 1229).
	n6 := len(w.IngressFleet(ASApple, MonthApr, ProtoDefault, FamilyV6, 0)) +
		len(w.IngressFleet(ASAkamaiPR, MonthApr, ProtoDefault, FamilyV6, 0))
	if n6 != 1575 {
		t.Fatalf("IPv6 fleet = %d, want 1575", n6)
	}
}

func TestFleetGrowthOverlap(t *testing.T) {
	w := testWorld(t)
	jan := w.IngressFleet(ASAkamaiPR, MonthJan, ProtoDefault, FamilyV4, 0)
	apr := w.IngressFleet(ASAkamaiPR, MonthApr, ProtoDefault, FamilyV4, 0)
	aprSet := make(map[netip.Addr]bool, len(apr))
	for _, a := range apr {
		aprSet[a] = true
	}
	shared := 0
	for _, a := range jan {
		if aprSet[a] {
			shared++
		}
	}
	if float64(shared)/float64(len(jan)) < 0.9 {
		t.Fatalf("only %d/%d January relays survive to April; want mostly-stable fleet", shared, len(jan))
	}
	if len(apr) <= len(jan) {
		t.Fatal("fleet should grow from January to April")
	}
}

func TestFleetPhaseShiftIntroducesNewAddress(t *testing.T) {
	w := testWorld(t)
	p0 := w.FleetUnion(MonthApr, ProtoDefault, FamilyV4, 0)
	p1 := w.FleetUnion(MonthApr, ProtoDefault, FamilyV4, 1)
	var fresh int
	for a := range p1 {
		if _, ok := p0[a]; !ok {
			fresh++
		}
	}
	if fresh == 0 {
		t.Fatal("phase shift introduced no new address (RIPE-vs-ECS delta unmodelable)")
	}
	if fresh > 5 {
		t.Fatalf("phase shift introduced %d new addresses; want a small delta", fresh)
	}
}

func TestFleetAddressesInsideIngressPrefixes(t *testing.T) {
	w := testWorld(t)
	for _, as := range []bgp.ASN{ASApple, ASAkamaiPR} {
		prefixes := w.IngressPrefixes(as, FamilyV4)
		for _, addr := range w.IngressFleet(as, MonthApr, ProtoDefault, FamilyV4, 0) {
			inside := false
			for _, p := range prefixes {
				if p.Contains(addr) {
					inside = true
					break
				}
			}
			if !inside {
				t.Fatalf("%v relay %v outside ingress prefixes", as, addr)
			}
			if origin, _ := w.Table.Origin(addr); origin != as {
				t.Fatalf("relay %v attributed to %v, want %v", addr, origin, as)
			}
		}
	}
}

func TestServingASGroupInvariants(t *testing.T) {
	w := testWorld(t)
	sawAppleInBoth, sawAkamaiInBoth := false, false
	for _, c := range w.ClientASes {
		p := c.Prefixes[0]
		iputil.Subnets(p, 24, func(s netip.Prefix) bool {
			as, ok := w.ServingAS(s, MonthApr, ProtoDefault)
			if !ok {
				t.Fatalf("unserved client subnet %v", s)
			}
			switch c.Group {
			case GroupAkamaiOnly:
				if as != ASAkamaiPR {
					t.Fatalf("Akamai-only subnet %v served by %v", s, as)
				}
			case GroupAppleOnly:
				if as != ASApple {
					t.Fatalf("Apple-only subnet %v served by %v", s, as)
				}
			default:
				if as == ASApple {
					sawAppleInBoth = true
				} else {
					sawAkamaiInBoth = true
				}
			}
			return true
		})
	}
	if !sawAppleInBoth || !sawAkamaiInBoth {
		t.Fatal("'both' ASes should mix operators across their /24s")
	}
}

func TestServingASFallbackTimeline(t *testing.T) {
	w := testWorld(t)
	// Before March no subnet may be served by Akamai on the fallback plane.
	for _, c := range w.ClientASes {
		s := iputil.NthSubnet(c.Prefixes[0], 24, 0)
		if as, _ := w.ServingAS(s, MonthJan, ProtoFallback); as == ASAkamaiPR {
			t.Fatalf("January fallback served by Akamai for %v", s)
		}
		if as, _ := w.ServingAS(s, MonthFeb, ProtoFallback); as == ASAkamaiPR {
			t.Fatalf("February fallback served by Akamai for %v", s)
		}
	}
}

func TestServingASUnroutedSubnet(t *testing.T) {
	w := testWorld(t)
	if _, ok := w.ServingAS(netip.MustParsePrefix("240.0.0.0/24"), MonthApr, ProtoDefault); ok {
		t.Fatal("unrouted subnet got a serving AS")
	}
}

func TestIngressAnswerProperties(t *testing.T) {
	w := testWorld(t)
	for _, c := range w.ClientASes[:10] {
		s := iputil.NthSubnet(c.Prefixes[0], 24, 0)
		ans := w.IngressAnswer(s, MonthApr, ProtoDefault)
		if len(ans) == 0 || len(ans) > 8 {
			t.Fatalf("answer size %d for %v", len(ans), s)
		}
		want, _ := w.ServingAS(s, MonthApr, ProtoDefault)
		seen := map[netip.Addr]bool{}
		for _, a := range ans {
			if seen[a] {
				t.Fatalf("duplicate answer %v for %v", a, s)
			}
			seen[a] = true
			if as, _ := w.Table.Origin(a); as != want {
				t.Fatalf("answer %v in %v, want all records in serving AS %v", a, as, want)
			}
		}
		// Deterministic.
		again := w.IngressAnswer(s, MonthApr, ProtoDefault)
		for i := range ans {
			if ans[i] != again[i] {
				t.Fatalf("answer for %v not deterministic", s)
			}
		}
	}
}

// TestIngressAnswerScopeHonesty is the invariant the scanner's scope
// skipping rests on: wherever the server advertises a scope shorter than
// /24 — every route of a single-operator AS — all /24s inside that route
// get the same class and the same answer, in every scan month and on
// both planes (the March fallback ramp included).
func TestIngressAnswerScopeHonesty(t *testing.T) {
	w := testWorld(t)
	routes := 0
	for _, c := range w.ClientASes {
		for _, p := range c.Prefixes {
			first := iputil.NthSubnet(p, 24, 0)
			scope, ok := w.AnswerScope(first)
			if !ok {
				t.Fatalf("client route %v has no answer scope", p)
			}
			if c.Group != GroupBoth && int(scope) != p.Bits() {
				t.Fatalf("AnswerScope(%v) = %d, want the route length %d", first, scope, p.Bits())
			}
			if scope >= 24 {
				continue
			}
			routes++
			for _, month := range ScanMonths {
				for _, proto := range []Proto{ProtoDefault, ProtoFallback} {
					wantClass := w.AnswerClass(first, month, proto)
					wantAnswer := w.IngressAnswer(first, month, proto)
					iputil.Subnets(p, 24, func(s netip.Prefix) bool {
						if got := w.AnswerClass(s, month, proto); got != wantClass {
							t.Fatalf("%v %v: class of %v = %+v, but %v in the same /%d scope has %+v",
								month, proto, s, got, first, scope, wantClass)
						}
						if got := w.IngressAnswer(s, month, proto); !slices.Equal(got, wantAnswer) {
							t.Fatalf("%v %v: answer for %v differs from %v in the same /%d scope",
								month, proto, s, first, scope)
						}
						return true
					})
				}
			}
		}
	}
	if routes == 0 {
		t.Fatal("no client route with a scope shorter than /24")
	}
}

func TestAnswerScopeBothIs24(t *testing.T) {
	w := testWorld(t)
	for _, c := range w.ClientASes {
		if c.Group != GroupBoth {
			continue
		}
		scope, ok := w.AnswerScope(iputil.NthSubnet(c.Prefixes[0], 24, 0))
		if !ok || scope != 24 {
			t.Fatalf("both-group scope = %d,%v want 24", scope, ok)
		}
		return
	}
	t.Fatal("no both-group AS in world")
}

func TestIngressAnswerV6(t *testing.T) {
	w := testWorld(t)
	sawApple, sawAkamai := false, false
	for key := uint64(0); key < 200; key++ {
		ans := w.IngressAnswerV6(nil, key, MonthApr, ProtoDefault)
		if len(ans) == 0 || len(ans) > 8 {
			t.Fatalf("v6 answer size %d", len(ans))
		}
		as, _ := w.Table.Origin(ans[0])
		switch as {
		case ASApple:
			sawApple = true
		case ASAkamaiPR:
			sawAkamai = true
		default:
			t.Fatalf("v6 answer from %v", as)
		}
		for _, a := range ans {
			if !a.Is6() || a.Is4In6() {
				t.Fatalf("v6 answer contains non-IPv6 %v", a)
			}
		}
	}
	if !sawApple || !sawAkamai {
		t.Fatal("v6 answers should come from both operators across resolvers")
	}
}

func TestHistoryAkamaiPRFirstSeen(t *testing.T) {
	w := testWorld(t)
	first, ok := w.History.FirstSeen(ASAkamaiPR)
	if !ok || first != (bgp.Month{Year: 2021, M: 6}) {
		t.Fatalf("AkamaiPR FirstSeen = %v,%v want 2021-06", first, ok)
	}
	firstApple, _ := w.History.FirstSeen(ASApple)
	if firstApple != (bgp.Month{Year: 2016, M: 1}) {
		t.Fatalf("Apple FirstSeen = %v", firstApple)
	}
}

func TestLastHopSharedBetweenAkamaiPRIngressAndEgress(t *testing.T) {
	w := testWorld(t)
	routers := map[RouterID]struct{ ingress, egress bool }{}
	for _, p := range w.IngressPrefixes(ASAkamaiPR, FamilyV4) {
		r, ok := w.LastHop(p.Addr().Next())
		if !ok {
			t.Fatalf("no last hop for ingress prefix %v", p)
		}
		e := routers[r]
		e.ingress = true
		routers[r] = e
	}
	for _, p := range w.EgressPrefixes(ASAkamaiPR, FamilyV4) {
		r, ok := w.LastHop(p.Addr().Next())
		if !ok {
			t.Fatalf("no last hop for egress prefix %v", p)
		}
		e := routers[r]
		e.egress = true
		routers[r] = e
	}
	shared := 0
	for _, e := range routers {
		if e.ingress && e.egress {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no shared last-hop router between AkamaiPR ingress and egress — correlation finding unreproducible")
	}
}

func TestLastHopUnrouted(t *testing.T) {
	w := testWorld(t)
	if _, ok := w.LastHop(netip.MustParseAddr("255.255.255.254")); ok {
		t.Fatal("unrouted address has last hop")
	}
}

func TestTracerouteShape(t *testing.T) {
	w := testWorld(t)
	src := w.ClientASes[0].Prefixes[0].Addr().Next()
	dst := w.IngressFleet(ASAkamaiPR, MonthApr, ProtoDefault, FamilyV4, 0)[0]
	hops := w.Traceroute(src, dst)
	if len(hops) < 4 {
		t.Fatalf("traceroute too short: %v", hops)
	}
	if hops[len(hops)-1].Router != RouterID("host-"+dst.String()) {
		t.Fatalf("last hop = %v", hops[len(hops)-1])
	}
	penult := hops[len(hops)-2]
	if penult.AS != ASAkamaiPR {
		t.Fatalf("penultimate hop AS = %v, want AkamaiPR", penult.AS)
	}
	// Determinism.
	again := w.Traceroute(src, dst)
	for i := range hops {
		if hops[i] != again[i] {
			t.Fatal("traceroute not deterministic")
		}
	}
	lh, ok := w.LastHopBeforeDest(src, dst)
	if !ok || lh != penult.Router {
		t.Fatalf("LastHopBeforeDest = %v,%v", lh, ok)
	}
}

func TestIsServiceAS(t *testing.T) {
	if !IsServiceAS(ASApple) || !IsServiceAS(ASFastly) {
		t.Fatal("service AS not recognized")
	}
	if IsServiceAS(bgp.ASN(asnBaseBoth)) {
		t.Fatal("client AS recognized as service")
	}
}

func TestClientOf(t *testing.T) {
	w := testWorld(t)
	c := w.ClientASes[3]
	got, ok := w.ClientOf(c.Prefixes[0].Addr().Next())
	if !ok || got.ASN != c.ASN {
		t.Fatalf("ClientOf = %+v,%v", got, ok)
	}
	if _, ok := w.ClientOf(netip.MustParseAddr("203.0.113.77")); ok {
		t.Fatal("reserved address mapped to a client")
	}
}

func TestRoutedV4PrefixesCoversClientsAndServices(t *testing.T) {
	w := testWorld(t)
	ps := w.RoutedV4Prefixes()
	if len(ps) < len(w.ClientASes)+478+23+112+81+1 {
		t.Fatalf("routed v4 prefixes = %d, too few", len(ps))
	}
	for _, p := range ps {
		if !p.Addr().Is4() {
			t.Fatalf("non-v4 prefix in v4 universe: %v", p)
		}
	}
}

// TestRoutedV4PrefixesOrderPinned pins the scan universe's order, which
// checkpoint journals index /24s by: ascending (address, length), and at
// seed 6, scale 0.0008, the exact list a digest records.
func TestRoutedV4PrefixesOrderPinned(t *testing.T) {
	ps := NewWorld(Params{Seed: 6, Scale: 0.0008}).RoutedV4Prefixes()
	for i := 1; i < len(ps); i++ {
		if c := ps[i-1].Addr().Compare(ps[i].Addr()); c > 0 || (c == 0 && ps[i-1].Bits() >= ps[i].Bits()) {
			t.Fatalf("RoutedV4Prefixes[%d..%d] = %v, %v out of (address, length) order", i-1, i, ps[i-1], ps[i])
		}
	}
	h := sha256.New()
	for _, p := range ps {
		fmt.Fprintln(h, p)
	}
	const want = "e1a395b651f234e534931cadc8a65cd6e7216bcf5ee4725e825907fd36be254b"
	if got := hex.EncodeToString(h.Sum(nil)); len(ps) != 773 || got != want {
		t.Fatalf("RoutedV4Prefixes: %d prefixes, digest %s; want 773, %s", len(ps), got, want)
	}
}

func BenchmarkNewWorldSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NewWorld(Params{Seed: 1, Scale: 0.001})
	}
}

func BenchmarkIngressAnswer(b *testing.B) {
	w := NewWorld(Params{Seed: 1, Scale: 0.001})
	s := iputil.NthSubnet(w.ClientASes[0].Prefixes[0], 24, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.IngressAnswer(s, MonthApr, ProtoDefault)
	}
}

func TestMultiPrefixClientASes(t *testing.T) {
	w := testWorld(t)
	multi := 0
	for _, c := range w.ClientASes {
		total := 0
		for _, p := range c.Prefixes {
			as, ok := w.Table.Origin(p.Addr())
			if !ok || as != c.ASN {
				t.Fatalf("prefix %v of %v not attributed", p, c.ASN)
			}
			total += int(iputil.SubnetCount(p, 24))
		}
		if total != c.Slash24s {
			t.Fatalf("%v prefixes hold %d /24s, Slash24s says %d", c.ASN, total, c.Slash24s)
		}
		if len(c.Prefixes) > 1 {
			multi++
			// Discontiguous pieces must still be per-prefix scoped:
			// answers are keyed by covering route for single-op groups.
			if c.Group != GroupBoth {
				for _, p := range c.Prefixes {
					scope, ok := w.AnswerScope(iputil.NthSubnet(p, 24, 0))
					if !ok || int(scope) != p.Bits() {
						t.Fatalf("scope for %v = %d,%v", p, scope, ok)
					}
				}
			}
		}
	}
	if multi == 0 {
		t.Fatal("no multi-prefix client ASes generated")
	}
}
