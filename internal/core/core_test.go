package core

import (
	"bytes"
	"context"
	"net/netip"
	"strings"
	"sync"
	"testing"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/colstore"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/netsim"
)

var (
	coreWorld *netsim.World
	coreOnce  sync.Once
)

func testWorld(t testing.TB) *netsim.World {
	t.Helper()
	coreOnce.Do(func() {
		coreWorld = netsim.NewWorld(netsim.Params{Seed: 6, Scale: 0.0008})
	})
	return coreWorld
}

func scanConfig(w *netsim.World, month bgp.Month, domain string) ScanConfig {
	srv := dnsserver.NewAuthServer(w, month, nil)
	return ScanConfig{
		Exchanger:    &dnsserver.MemTransport{Handler: srv, Source: netip.MustParseAddr("198.51.100.53")},
		Domain:       domain,
		Universe:     w.RoutedV4Prefixes(),
		Attribution:  w.Table,
		RespectScope: true,
		Concurrency:  8,
		Retries:      1,
	}
}

func TestScanDiscoversFullAprilFleet(t *testing.T) {
	w := testWorld(t)
	ds, err := Scan(context.Background(), scanConfig(w, netsim.MonthApr, dnsserver.MaskDomain))
	if err != nil {
		t.Fatal(err)
	}
	truth := w.FleetUnion(netsim.MonthApr, netsim.ProtoDefault, netsim.FamilyV4, 0)
	if ds.Addrs() != len(truth) {
		t.Fatalf("discovered %d addresses, fleet has %d", ds.Addrs(), len(truth))
	}
	for addr, as := range addrMap(&ds.Dataset) {
		wantAS, ok := truth[addr]
		if !ok {
			t.Fatalf("scanner invented address %v", addr)
		}
		if as != wantAS {
			t.Fatalf("address %v attributed to %v, want %v", addr, as, wantAS)
		}
	}
	// §4.1: 1586 = 349 Apple + 1237 AkamaiPR in April.
	counts := ds.OperatorCounts()
	if counts[netsim.ASApple] != 349 || counts[netsim.ASAkamaiPR] != 1237 {
		t.Fatalf("operator counts = %v, want 349/1237", counts)
	}
}

func TestScanScopeSkipReducesQueries(t *testing.T) {
	w := testWorld(t)
	ctx := context.Background()

	withSkip, err := Scan(ctx, scanConfig(w, netsim.MonthApr, dnsserver.MaskDomain))
	if err != nil {
		t.Fatal(err)
	}
	cfg := scanConfig(w, netsim.MonthApr, dnsserver.MaskDomain)
	cfg.RespectScope = false
	withoutSkip, err := Scan(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if withSkip.Stats.QueriesSent >= withoutSkip.Stats.QueriesSent {
		t.Fatalf("scope skip sent %d queries, naive sent %d — no saving",
			withSkip.Stats.QueriesSent, withoutSkip.Stats.QueriesSent)
	}
	if withSkip.Stats.SubnetsSkipped == 0 {
		t.Fatal("no subnets skipped despite short scopes")
	}
	// Both scans must discover the identical address set.
	if withSkip.Addrs() != withoutSkip.Addrs() {
		t.Fatalf("skip changed discovery: %d vs %d addresses",
			withSkip.Addrs(), withoutSkip.Addrs())
	}
	// And identical serving /24 totals (the skip accounts covered scopes).
	tot := func(ds *Dataset) int64 {
		var n int64
		for _, c := range ds.SrvCount {
			n += c
		}
		return n
	}
	if tot(withSkip) != tot(withoutSkip) {
		t.Fatalf("serving totals differ: %d vs %d", tot(withSkip), tot(withoutSkip))
	}
}

func TestScanServingMatchesTable2Structure(t *testing.T) {
	w := testWorld(t)
	ds, err := Scan(context.Background(), scanConfig(w, netsim.MonthApr, dnsserver.MaskDomain))
	if err != nil {
		t.Fatal(err)
	}
	var akOnly, apOnly, both int
	var akSub, apSub, bothSub, bothAppleSub int64
	for _, ops := range servingMap(&ds.Dataset) {
		ak := ops[netsim.ASAkamaiPR]
		ap := ops[netsim.ASApple]
		switch {
		case ak > 0 && ap > 0:
			both++
			bothSub += ak + ap
			bothAppleSub += ap
		case ak > 0:
			akOnly++
			akSub += ak
		case ap > 0:
			apOnly++
			apSub += ap
		}
	}
	if akOnly == 0 || apOnly == 0 || both == 0 {
		t.Fatalf("missing serving groups: %d/%d/%d", akOnly, apOnly, both)
	}
	// Table 2 orderings.
	if !(akOnly > apOnly && apOnly > both) {
		t.Errorf("AS counts out of order: akamai-only=%d apple-only=%d both=%d", akOnly, apOnly, both)
	}
	if !(bothSub > akSub && akSub > apSub) {
		t.Errorf("subnet counts out of order: both=%d akamai=%d apple=%d", bothSub, akSub, apSub)
	}
	// Apple's subnet share inside "both" ASes ≈ 76 %.
	share := float64(bothAppleSub) / float64(bothSub) * 100
	if share < 70 || share > 82 {
		t.Errorf("Apple share in both-ASes = %.1f%%, want ≈76%%", share)
	}
}

func TestScanFallbackPlaneEvolution(t *testing.T) {
	w := testWorld(t)
	ctx := context.Background()
	feb, err := Scan(ctx, scanConfig(w, netsim.MonthFeb, dnsserver.MaskH2Domain))
	if err != nil {
		t.Fatal(err)
	}
	apr, err := Scan(ctx, scanConfig(w, netsim.MonthApr, dnsserver.MaskH2Domain))
	if err != nil {
		t.Fatal(err)
	}
	febCounts := feb.OperatorCounts()
	if febCounts[netsim.ASAkamaiPR] != 0 {
		t.Fatalf("February fallback found %d Akamai relays, want 0", febCounts[netsim.ASAkamaiPR])
	}
	if febCounts[netsim.ASApple] != 356 {
		t.Fatalf("February fallback Apple = %d, want 356", febCounts[netsim.ASApple])
	}
	aprCounts := apr.OperatorCounts()
	if aprCounts[netsim.ASApple] != 336 || aprCounts[netsim.ASAkamaiPR] != 1062 {
		t.Fatalf("April fallback = %v, want 336/1062", aprCounts)
	}
	// +293 % fallback growth (356 → 1398).
	growth := GrowthPercent(&feb.Dataset, &apr.Dataset)
	if growth < 280 || growth > 300 {
		t.Fatalf("fallback growth = %.0f%%, want ≈293%%", growth)
	}
}

func TestScanMonthlyGrowthDefaultPlane(t *testing.T) {
	w := testWorld(t)
	ctx := context.Background()
	jan, err := Scan(ctx, scanConfig(w, netsim.MonthJan, dnsserver.MaskDomain))
	if err != nil {
		t.Fatal(err)
	}
	apr, err := Scan(ctx, scanConfig(w, netsim.MonthApr, dnsserver.MaskDomain))
	if err != nil {
		t.Fatal(err)
	}
	// §4.1: QUIC relays grew 34 % (1188 → 1586).
	growth := GrowthPercent(&jan.Dataset, &apr.Dataset)
	if growth < 30 || growth > 38 {
		t.Fatalf("default-plane growth = %.1f%%, want ≈34%%", growth)
	}
	n := colstore.DiffCounts(&jan.Dataset, &apr.Dataset)
	added, removed := n[colstore.Appeared], n[colstore.Vanished]
	if added == 0 {
		t.Fatal("no added addresses between Jan and Apr")
	}
	if removed == 0 {
		t.Fatal("no churn at all between Jan and Apr")
	}
	if removed > jan.Addrs()/5 {
		t.Fatalf("churn too high: %d removed of %d", removed, jan.Addrs())
	}
}

func TestScanHandlesTimeouts(t *testing.T) {
	w := testWorld(t)
	cfg := scanConfig(w, netsim.MonthApr, dnsserver.MaskDomain)
	mt := cfg.Exchanger.(*dnsserver.MemTransport)
	mt.LossEvery = 7
	cfg.Retries = 0
	ds, err := Scan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Stats.Timeouts == 0 {
		t.Fatal("no timeouts recorded despite injected loss")
	}
	// Retries recover most losses.
	cfg2 := scanConfig(w, netsim.MonthApr, dnsserver.MaskDomain)
	cfg2.Exchanger.(*dnsserver.MemTransport).LossEvery = 7
	cfg2.Retries = 3
	ds2, err := Scan(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if ds2.Stats.Timeouts >= ds.Stats.Timeouts {
		t.Fatalf("retries did not help: %d vs %d timeouts", ds2.Stats.Timeouts, ds.Stats.Timeouts)
	}
}

func TestScanContextCancellation(t *testing.T) {
	w := testWorld(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ds, err := Scan(ctx, scanConfig(w, netsim.MonthApr, dnsserver.MaskDomain))
	if err == nil {
		t.Fatal("cancelled scan returned no error")
	}
	if ds == nil {
		t.Fatal("cancelled scan should still return partial dataset")
	}
}

func TestScanRequiresExchanger(t *testing.T) {
	if _, err := Scan(context.Background(), ScanConfig{}); err != ErrNoExchanger {
		t.Fatalf("err = %v", err)
	}
}

func TestAddressesOfSorted(t *testing.T) {
	ds := datasetOf(t, "", map[netip.Addr]bgp.ASN{
		netip.MustParseAddr("17.2.0.1"):  714,
		netip.MustParseAddr("17.0.0.1"):  714,
		netip.MustParseAddr("23.32.0.1"): 36183,
	}, nil)
	got := ds.AddressesOf(714)
	if len(got) != 2 || !got[0].Less(got[1]) {
		t.Fatalf("AddressesOf = %v", got)
	}
}

func TestClassifier(t *testing.T) {
	w := testWorld(t)
	ds, err := Scan(context.Background(), scanConfig(w, netsim.MonthApr, dnsserver.MaskDomain))
	if err != nil {
		t.Fatal(err)
	}
	egressSubnets := map[netip.Prefix]bgp.ASN{
		netip.MustParsePrefix("172.224.224.0/27"): netsim.ASAkamaiPR,
		netip.MustParsePrefix("104.16.7.32/32"):   netsim.ASCloudflare,
	}
	cl := NewClassifier(&ds.Dataset, egressSubnets)

	client := w.ClientASes[0].Prefixes[0].Addr().Next()
	ingress := ds.AddressesOf(netsim.ASAkamaiPR)[0]

	class, as := cl.Classify(client, ingress)
	if class != ClassToIngress || as != netsim.ASAkamaiPR {
		t.Fatalf("Classify(client→ingress) = %v,%v", class, as)
	}
	class, as = cl.Classify(netip.MustParseAddr("172.224.224.5"), netip.MustParseAddr("93.184.216.34"))
	if class != ClassFromEgress || as != netsim.ASAkamaiPR {
		t.Fatalf("Classify(egress→server) = %v,%v", class, as)
	}
	class, _ = cl.Classify(client, netip.MustParseAddr("93.184.216.34"))
	if class != ClassUnrelated {
		t.Fatalf("ordinary flow classified as %v", class)
	}
	if !cl.IsIngress(ingress) || cl.IsIngress(client) {
		t.Fatal("IsIngress wrong")
	}
	if !cl.IsEgress(netip.MustParseAddr("104.16.7.32")) || cl.IsEgress(client) {
		t.Fatal("IsEgress wrong")
	}
	if ClassToIngress.String() != "to-ingress" || ClassUnrelated.String() != "unrelated" {
		t.Fatal("class strings")
	}
}

func TestClassifierAddIngressMerges(t *testing.T) {
	a := datasetOf(t, "", map[netip.Addr]bgp.ASN{netip.MustParseAddr("17.0.0.1"): 714}, nil)
	b := datasetOf(t, "", map[netip.Addr]bgp.ASN{netip.MustParseAddr("23.32.0.1"): 36183}, nil)
	cl := NewClassifier(&a.Dataset, nil)
	cl.AddIngress(&b.Dataset)
	if !cl.IsIngress(netip.MustParseAddr("23.32.0.1")) {
		t.Fatal("merged ingress not recognized")
	}
}

func BenchmarkScanSmallWorld(b *testing.B) {
	w := testWorld(b)
	cfg := scanConfig(w, netsim.MonthApr, dnsserver.MaskDomain)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Scan(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClassify(b *testing.B) {
	w := testWorld(b)
	ds, err := Scan(context.Background(), scanConfig(w, netsim.MonthApr, dnsserver.MaskDomain))
	if err != nil {
		b.Fatal(err)
	}
	cl := NewClassifier(&ds.Dataset, map[netip.Prefix]bgp.ASN{
		netip.MustParsePrefix("172.224.224.0/27"): netsim.ASAkamaiPR,
	})
	src := netip.MustParseAddr("198.51.100.1")
	dst := ds.AddressesOf(netsim.ASApple)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Classify(src, dst)
	}
}

func TestDatasetPersistenceRoundTrip(t *testing.T) {
	w := testWorld(t)
	ds, err := Scan(context.Background(), scanConfig(w, netsim.MonthApr, dnsserver.MaskDomain))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadCanonical(bytes.NewReader(canonicalBytes(t, ds)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Domain != ds.Domain {
		t.Fatalf("domain = %q", got.Domain)
	}
	if got.Addrs() != ds.Addrs() {
		t.Fatalf("addresses = %d, want %d", got.Addrs(), ds.Addrs())
	}
	for a, as := range addrMap(&ds.Dataset) {
		if g, _ := got.Lookup(a); g != as {
			t.Fatalf("address %v attributed %v, want %v", a, g, as)
		}
	}
	// Diffing across persisted datasets works like in-memory diffing.
	if n := colstore.DiffCounts(got, &ds.Dataset); n != [3]int{} {
		t.Fatalf("round-trip diff nonzero: %v", n)
	}
}

func TestReadCanonicalErrors(t *testing.T) {
	cases := map[string]string{
		"A not-an-addr,714\n":                     "line 1",
		"# canonical x\nA 17.0.0.1\n":             "line 2",
		"A 17.0.0.1,notanumber\n":                 "line 1",
		"A 17.0.0.1,4294967296\n":                 "line 1",
		"A fe80::1%eth0,714\n":                    "zoned",
		"# domain x\n# queries 9\n17.0.0.1,714\n": "line 3",
		"A 17.0.0.1,714\nA 17.0.0.1,715\n":        "line 2: address 17.0.0.1: duplicate row",
		"A 17.0.0.2,714\nA 17.0.0.1,714\n":        "line 2: address 17.0.0.1: row out of canonical order",
		"A ::1,714\nA 17.0.0.1,714\n":             "out of canonical order",
		"S 1,2,3\nS 1,2,4\n":                      "line 2: serving 1,2: duplicate row",
		"S 1,3,3\n\nS 1,2,4\n":                    "line 3: serving 1,2: row out of canonical order",
		"S 1,2\n":                                 "line 1",
	}
	for in, want := range cases {
		_, err := ReadCanonical(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ReadCanonical(%q) = %v, want an error naming %q", in, err, want)
		}
	}
	// Blank lines and unknown comments are tolerated.
	cs, err := ReadCanonical(strings.NewReader("# future-field x\n\nA 17.0.0.1,714\n"))
	if err != nil || cs.Addrs() != 1 {
		t.Fatalf("lenient parse: %v %v", err, cs)
	}
}

func TestScanAAAAViaECSDoesNotEnumerate(t *testing.T) {
	// §3: "This ECS-based approach does not work for IPv6" — the server
	// answers AAAA with scope 0, keyed on the resolver, so a full-space
	// ECS sweep from one vantage sees only that vantage's record set.
	w := testWorld(t)
	cfg := scanConfig(w, netsim.MonthApr, dnsserver.MaskDomain)
	cfg.QType = dnswire.TypeAAAA
	ds, err := Scan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Addrs() > 8 {
		t.Fatalf("AAAA ECS scan enumerated %d addresses; the paper shows ECS cannot enumerate IPv6", ds.Addrs())
	}
	if ds.Addrs() == 0 {
		t.Fatal("AAAA scan should still see the vantage's own answer set")
	}
}

func TestFlowReportIngressIsHighlyActiveDestination(t *testing.T) {
	w := testWorld(t)
	ds, err := Scan(context.Background(), scanConfig(w, netsim.MonthApr, dnsserver.MaskDomain))
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClassifier(&ds.Dataset, map[netip.Prefix]bgp.ASN{
		netip.MustParsePrefix("172.224.224.0/27"): netsim.ASAkamaiPR,
	})

	ingress := ds.AddressesOf(netsim.ASAkamaiPR)[0]
	client1 := w.ClientASes[0].Prefixes[0].Addr().Next()
	client2 := w.ClientASes[1].Prefixes[0].Addr().Next()
	web := netip.MustParseAddr("203.0.113.80")

	var flows []Flow
	// Many relay users hammer the same ingress; ordinary browsing spreads
	// over distinct destinations.
	for i := 0; i < 50; i++ {
		flows = append(flows, Flow{Src: client1, Dst: ingress, Bytes: 1000})
		flows = append(flows, Flow{Src: client2, Dst: ingress, Bytes: 500})
	}
	for i := 0; i < 30; i++ {
		dst := netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)})
		flows = append(flows, Flow{Src: client1, Dst: dst, Bytes: 2000})
	}
	flows = append(flows, Flow{Src: netip.MustParseAddr("172.224.224.5"), Dst: web, Bytes: 300})

	report := cl.AnalyzeFlows(flows)
	if report.Flows != len(flows) {
		t.Fatalf("flows = %d", report.Flows)
	}
	if report.ToIngress != 100 || report.FromEgress != 1 || report.Unrelated != 30 {
		t.Fatalf("classes: %d/%d/%d", report.ToIngress, report.FromEgress, report.Unrelated)
	}
	if report.IngressRank != 1 {
		t.Fatalf("ingress rank = %d; the paper expects ingress to be a highly active destination", report.IngressRank)
	}
	if !report.TopDestinations[0].Ingress || report.TopDestinations[0].Flows != 100 {
		t.Fatalf("top destination: %+v", report.TopDestinations[0])
	}
	// 100 × (1000+500)/2 flows hide their service-level destination.
	wantHidden := float64(50*1000+50*500) / float64(report.Bytes)
	if got := report.HiddenByteShare(); got < wantHidden-0.01 || got > wantHidden+0.01 {
		t.Fatalf("hidden byte share = %.3f, want %.3f", got, wantHidden)
	}
	if report.OperatorFlows[netsim.ASAkamaiPR] != 101 {
		t.Fatalf("operator flows = %v", report.OperatorFlows)
	}
}

func TestFlowReportEmpty(t *testing.T) {
	cl := NewClassifier(nil, nil)
	report := cl.AnalyzeFlows(nil)
	if report.Flows != 0 || report.HiddenByteShare() != 0 || report.IngressRank != 0 {
		t.Fatalf("empty report: %+v", report)
	}
}
