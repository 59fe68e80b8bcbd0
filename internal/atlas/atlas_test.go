package atlas

import (
	"context"
	"net/netip"
	"reflect"
	"sync"
	"testing"

	"github.com/relay-networks/privaterelay/internal/core"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/resolver"
)

var (
	atlasWorld *netsim.World
	atlasPop   *Population
	atlasOnce  sync.Once
)

func testPopulation(t testing.TB) (*netsim.World, *Population) {
	t.Helper()
	atlasOnce.Do(func() {
		atlasWorld = netsim.NewWorld(netsim.Params{Seed: 11, Scale: 0.0008})
		atlasPop = NewPopulation(atlasWorld, netsim.MonthApr, Config{Seed: 11, N: 4000, SubnetClusters: 1500, Phase: 1})
	})
	return atlasWorld, atlasPop
}

func TestPopulationShape(t *testing.T) {
	_, pop := testPopulation(t)
	if len(pop.Probes) != 4000 {
		t.Fatalf("probes = %d", len(pop.Probes))
	}
	subnets := map[netip.Prefix]bool{}
	timeoutProne := 0
	for _, p := range pop.Probes {
		if !p.Addr.Is4() {
			t.Fatalf("probe %d has no v4 addr", p.ID)
		}
		subnets[netip.PrefixFrom(p.Addr, 24).Masked()] = true
		if p.TimeoutProne {
			timeoutProne++
		}
		if p.Resolver == nil {
			t.Fatalf("probe %d has no resolver", p.ID)
		}
	}
	if len(subnets) > 1500 {
		t.Fatalf("probes spread over %d /24s, want clustering ≤ 1500", len(subnets))
	}
	share := float64(timeoutProne) / float64(len(pop.Probes)) * 100
	if share < 7 || share > 13 {
		t.Fatalf("timeout-prone share = %.1f%%, want ≈10%%", share)
	}
}

func TestPublicResolverShare(t *testing.T) {
	_, pop := testPopulation(t)
	perMille := IdentifyResolvers(pop)
	if perMille < 480 || perMille > 580 {
		t.Fatalf("public resolver share = %d‰, want ≈520‰ (paper: more than half)", perMille)
	}
}

func TestAValidationAgainstECS(t *testing.T) {
	w, pop := testPopulation(t)
	ctx := context.Background()

	// Reference: the full ECS scan (phase 0).
	srv := dnsserver.NewAuthServer(w, netsim.MonthApr, nil)
	ecs, err := core.Scan(ctx, core.ScanConfig{
		Exchanger:    &dnsserver.MemTransport{Handler: srv, Source: netip.MustParseAddr("198.51.100.53")},
		Domain:       dnsserver.MaskDomain,
		Universe:     w.RoutedV4Prefixes(),
		Attribution:  w.Table,
		RespectScope: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	results, err := Campaign{Domain: dnsserver.MaskDomain, Type: dnswire.TypeA}.Run(ctx, pop)
	if err != nil {
		t.Fatal(err)
	}
	found := DistinctAddrs(results)
	// Drop the hijack substitute if present.
	clean := found[:0]
	for _, a := range found {
		if a != resolver.HijackAddr {
			clean = append(clean, a)
		}
	}
	found = clean

	if len(found) >= ecs.Addrs() {
		t.Fatalf("Atlas found %d ≥ ECS %d; clustering should limit coverage", len(found), ecs.Addrs())
	}
	if len(found) < ecs.Addrs()/2 {
		t.Fatalf("Atlas found only %d of %d; too sparse", len(found), ecs.Addrs())
	}
	// All but a small handful of Atlas addresses appear in the ECS scan
	// (the paper saw exactly one extra, from fleet churn between scans).
	extra := 0
	for _, a := range found {
		if _, ok := ecs.Lookup(a); !ok {
			extra++
		}
	}
	if extra == 0 {
		t.Fatal("no churn-induced extra address; phase shift not visible")
	}
	if extra > 6 {
		t.Fatalf("%d extra addresses beyond ECS; want ≈1", extra)
	}
}

func TestAAAAEnumeration(t *testing.T) {
	w, pop := testPopulation(t)
	ctx := context.Background()
	viaResolver, err := Campaign{Domain: dnsserver.MaskDomain, Type: dnswire.TypeAAAA}.Run(ctx, pop)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Campaign{Domain: dnsserver.MaskDomain, Type: dnswire.TypeAAAA}.RunDirect(ctx, pop)
	if err != nil {
		t.Fatal(err)
	}
	setR := DistinctAddrs(viaResolver)
	all := DistinctAddrs(append(viaResolver, direct...))

	fleet := map[netip.Addr]bool{}
	for _, a := range w.IngressFleet(netsim.ASApple, netsim.MonthApr, netsim.ProtoDefault, netsim.FamilyV6, 0) {
		fleet[a] = true
	}
	for _, a := range w.IngressFleet(netsim.ASAkamaiPR, netsim.MonthApr, netsim.ProtoDefault, netsim.FamilyV6, 0) {
		fleet[a] = true
	}
	for _, a := range all {
		if a == resolver.HijackAddr {
			continue
		}
		if !fleet[a] {
			t.Fatalf("AAAA campaign invented address %v", a)
		}
	}
	// Combined coverage approaches the full 1575; direct queries add
	// little beyond the resolver scan (§4.1).
	if len(all) < 1500 {
		t.Fatalf("combined v6 coverage = %d, want ≈1575", len(all))
	}
	added := len(all) - len(setR)
	if added > len(setR)/10 {
		t.Fatalf("direct queries added %d addrs over %d — paper found no significant difference", added, len(setR))
	}
}

func TestBlockingStudyShares(t *testing.T) {
	_, pop := testPopulation(t)
	report, err := BlockingStudyWorkers(context.Background(), pop, 0)
	if err != nil {
		t.Fatal(err)
	}
	if report.Probes != len(pop.Probes) {
		t.Fatalf("report covers %d probes", report.Probes)
	}
	if ts := report.TimeoutShare(); ts < 7 || ts > 13 {
		t.Errorf("timeout share = %.1f%%, want ≈10%%", ts)
	}
	if bs := report.BlockedShare(); bs < 3.0 || bs > 8.0 {
		t.Errorf("blocked share = %.1f%%, want ≈5.5%%", bs)
	}
	// NXDOMAIN dominates the failure mix (paper: 72 %).
	fails := report.FailedWithResponse
	if fails == 0 {
		t.Fatal("no failed-with-response probes")
	}
	nxShare := float64(report.ByRCode[dnswire.RCodeNXDomain]) / float64(fails) * 100
	if nxShare < 55 || nxShare > 85 {
		t.Errorf("NXDOMAIN share of failures = %.0f%%, want ≈72%%", nxShare)
	}
	if report.ByRCode[dnswire.RCodeNoError] == 0 {
		t.Error("no NOERROR-without-data blocking observed")
	}
	if report.ByRCode[dnswire.RCodeRefused] == 0 {
		t.Error("no REFUSED blocking observed")
	}
	if report.Hijacked != 0 && report.Hijacked > 3 {
		t.Errorf("hijacked probes = %d, want ≈1", report.Hijacked)
	}
	if report.String() == "" {
		t.Error("empty report string")
	}
}

func TestBlockingStudyCountsHijackAsBlocked(t *testing.T) {
	w := netsim.NewWorld(netsim.Params{Seed: 12, Scale: 0.0005})
	pop := NewPopulation(w, netsim.MonthApr, Config{Seed: 12, N: 50, SubnetClusters: 10, TimeoutPerMille: 1, ISPBlockedPerMille: 1, PublicResolverShare: 1})
	// Force one probe's resolver to hijack.
	pop.Probes[0].Resolver.Block("icloud.com", resolver.PolicyHijack)
	report, err := BlockingStudyWorkers(context.Background(), pop, 0)
	if err != nil {
		t.Fatal(err)
	}
	if report.Hijacked == 0 {
		t.Fatal("hijack not observed")
	}
	if report.Blocked < report.Hijacked {
		t.Fatal("hijacks not counted as blocked")
	}
}

func TestCampaignDeterminism(t *testing.T) {
	_, pop := testPopulation(t)
	a, err := Campaign{Domain: dnsserver.MaskDomain, Type: dnswire.TypeA}.Run(context.Background(), pop)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Campaign{Domain: dnsserver.MaskDomain, Type: dnswire.TypeA}.Run(context.Background(), pop)
	if err != nil {
		t.Fatal(err)
	}
	da, db := DistinctAddrs(a), DistinctAddrs(b)
	if len(da) != len(db) {
		t.Fatalf("campaign results differ: %d vs %d addrs", len(da), len(db))
	}
}

func TestPopulationDeterminism(t *testing.T) {
	w := netsim.NewWorld(netsim.Params{Seed: 13, Scale: 0.0005})
	a := NewPopulation(w, netsim.MonthApr, Config{Seed: 13, N: 200, SubnetClusters: 50})
	b := NewPopulation(w, netsim.MonthApr, Config{Seed: 13, N: 200, SubnetClusters: 50})
	for i := range a.Probes {
		if a.Probes[i].Addr != b.Probes[i].Addr || a.Probes[i].ResolverName != b.Probes[i].ResolverName {
			t.Fatalf("probe %d differs", i)
		}
	}
}

// TestCampaignEquivalentAcrossWorkers proves resolver-mediated, direct
// and blocking campaigns produce bit-identical results at any worker
// count. Caches are flushed between runs so each run replays the same
// cold-path resolver work, including the phase-dependent answers.
func TestCampaignEquivalentAcrossWorkers(t *testing.T) {
	_, pop := testPopulation(t)
	ctx := context.Background()

	run := func(workers int) (a, aaaa, direct []MeasurementResult, blocking *BlockingReport) {
		t.Helper()
		pop.FlushCaches()
		var err error
		if a, err = (Campaign{Domain: dnsserver.MaskDomain, Type: dnswire.TypeA, Workers: workers}).Run(ctx, pop); err != nil {
			t.Fatalf("workers=%d A: %v", workers, err)
		}
		if aaaa, err = (Campaign{Domain: dnsserver.MaskDomain, Type: dnswire.TypeAAAA, Workers: workers}).Run(ctx, pop); err != nil {
			t.Fatalf("workers=%d AAAA: %v", workers, err)
		}
		if direct, err = (Campaign{Domain: dnsserver.MaskDomain, Type: dnswire.TypeAAAA, Workers: workers}).RunDirect(ctx, pop); err != nil {
			t.Fatalf("workers=%d direct: %v", workers, err)
		}
		if blocking, err = BlockingStudyWorkers(ctx, pop, workers); err != nil {
			t.Fatalf("workers=%d blocking: %v", workers, err)
		}
		return a, aaaa, direct, blocking
	}

	wantA, wantAAAA, wantDirect, wantBlocking := run(1)
	if DistinctAddrs(wantA) == nil || DistinctAddrs(wantAAAA) == nil {
		t.Fatal("baseline campaign found no addresses; equivalence test would be vacuous")
	}
	for _, workers := range []int{8, 64} {
		gotA, gotAAAA, gotDirect, gotBlocking := run(workers)
		for name, pair := range map[string][2][]MeasurementResult{
			"A":      {wantA, gotA},
			"AAAA":   {wantAAAA, gotAAAA},
			"direct": {wantDirect, gotDirect},
		} {
			want, got := pair[0], pair[1]
			if len(got) != len(want) {
				t.Fatalf("workers=%d %s: %d results, want %d", workers, name, len(got), len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("workers=%d %s: probe %d = %+v, want %+v", workers, name, i, got[i], want[i])
				}
			}
		}
		if !reflect.DeepEqual(gotBlocking, wantBlocking) {
			t.Fatalf("workers=%d blocking report = %+v, want %+v", workers, gotBlocking, wantBlocking)
		}
	}
}
