// Benchmark harness: one benchmark per table and figure of the paper
// (see DESIGN.md's per-experiment index) plus the ablations of the
// design choices called out there. Each benchmark regenerates its
// artifact end to end at a reduced world scale and reports the headline
// quantity as a custom metric, so `go test -bench=.` both times the
// pipelines and re-derives the paper's numbers.
package privaterelay_test

import (
	"context"
	"fmt"
	"net/netip"
	"runtime/metrics"
	"sync"
	"testing"

	"github.com/relay-networks/privaterelay/internal/analysis"
	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/core"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/egress"
	"github.com/relay-networks/privaterelay/internal/experiments"
	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/masque"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/quicsim"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

// env returns the shared benchmark environment (built once per process).
func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() { benchEnv = experiments.NewEnv(42, 0.0008) })
	return benchEnv
}

// --- Tables ---

// BenchmarkTable1IngressEvolution regenerates Table 1: eight ECS scans
// (four months × two planes, January fallback absent).
func BenchmarkTable1IngressEvolution(b *testing.B) {
	e := env(b)
	ctx := context.Background()
	var rows []analysis.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = e.Table1(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	apr := rows[3]
	b.ReportMetric(float64(apr.DefaultApple+apr.DefaultAkamai), "apr_ingress_addrs")
	_, ak := apr.SharePct()
	b.ReportMetric(ak, "apr_akamai_share_pct")
}

// BenchmarkTable2ClientAttribution regenerates Table 2: the April scan's
// serving statistics joined with AS populations.
func BenchmarkTable2ClientAttribution(b *testing.B) {
	e := env(b)
	ctx := context.Background()
	var rows []analysis.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = e.Table2(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Group == "Both" {
			b.ReportMetric(float64(r.Subnets), "both_group_slash24s")
		}
	}
}

// BenchmarkTable3EgressSubnets regenerates Table 3 from the attributed
// egress list (240k entries).
func BenchmarkTable3EgressSubnets(b *testing.B) {
	e := env(b)
	var rows []analysis.Table3Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = e.Table3()
	}
	for _, r := range rows {
		if r.AS == netsim.ASAkamaiPR {
			b.ReportMetric(float64(r.V6Subnets), "akamaipr_v6_subnets")
		}
	}
}

// BenchmarkTable4CoveredCities regenerates Table 4.
func BenchmarkTable4CoveredCities(b *testing.B) {
	e := env(b)
	var rows []analysis.Table4Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = e.Table4()
	}
	for _, r := range rows {
		if r.AS == netsim.ASAkamaiPR {
			b.ReportMetric(float64(r.Cities), "akamaipr_cities")
		}
	}
}

// --- Figures ---

// BenchmarkFigure2GeoScatter builds the IPv4 geolocation panels.
func BenchmarkFigure2GeoScatter(b *testing.B) {
	e := env(b)
	var panels map[string]analysis.GeoBounds
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		panels = e.Figure2()
	}
	b.ReportMetric(float64(panels["Cloudflare"].DistinctCountries), "cloudflare_ccs")
}

// BenchmarkFigure3OperatorChanges runs the through-relay operator scan
// (a virtual day at 5-minute cadence, open + fixed DNS).
func BenchmarkFigure3OperatorChanges(b *testing.B) {
	e := env(b)
	ctx := context.Background()
	var res *experiments.RelayScanResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = e.RelayScan(ctx, 96, 60)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.OpenChanges)), "open_scan_changes")
	b.ReportMetric(float64(len(res.FixedChanges)), "fixed_scan_changes")
}

// BenchmarkFigure4LocationCDFs builds all per-operator city CDFs.
func BenchmarkFigure4LocationCDFs(b *testing.B) {
	e := env(b)
	var cdfs map[string][]analysis.CDFPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cdfs = e.Figure4(analysis.ByCity, netsim.FamilyV6)
	}
	b.ReportMetric(float64(len(cdfs["AkamaiPR"])), "akamaipr_v6_cities")
}

// BenchmarkFigure5GeoScatterV4V6 builds all six geolocation panels.
func BenchmarkFigure5GeoScatterV4V6(b *testing.B) {
	e := env(b)
	var panels map[string]analysis.GeoBounds
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		panels = e.Figure5()
	}
	b.ReportMetric(float64(len(panels)), "panels")
}

// --- Section-level experiments ---

// BenchmarkS1ECSScanApril is the headline April default-plane scan.
func BenchmarkS1ECSScanApril(b *testing.B) {
	e := env(b)
	srv := dnsserver.NewAuthServer(e.World, netsim.MonthApr, nil)
	cfg := core.ScanConfig{
		Exchanger:    &dnsserver.MemTransport{Handler: srv, Source: netip.MustParseAddr("198.51.100.53")},
		Domain:       dnsserver.MaskDomain,
		Universe:     e.World.RoutedV4Prefixes(),
		Attribution:  e.World.Table,
		RespectScope: true,
	}
	var ds *core.Dataset
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		ds, err = core.Scan(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ds.Addrs()), "ingress_addrs")
	b.ReportMetric(float64(ds.Stats.QueriesSent), "queries")
}

// BenchmarkScanThroughput measures the scan hot path itself: subnets
// processed per second on the in-memory transport at several concurrency
// levels. The paper's live scan took ≈40 h for 12M /24s; this benchmark
// tracks how far the pipeline is from wire speed. Alongside throughput
// it reports mutex-wait nanoseconds per subnet from runtime/metrics, so
// a run shows whether a scaling change came from contention or from
// per-op cost.
//
// There is no separate BenchmarkScanCold (fresh world per iteration):
// the answer path keeps no memo, so nothing warms between iterations
// and the first pass over a world costs what every later one does —
// this is the number the CLIs and relayd see.
func BenchmarkScanThroughput(b *testing.B) {
	e := env(b)
	for _, conc := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("conc-%d", conc), func(b *testing.B) {
			srv := dnsserver.NewAuthServer(e.World, netsim.MonthApr, nil)
			cfg := core.ScanConfig{
				Exchanger:    &dnsserver.MemTransport{Handler: srv, Source: netip.MustParseAddr("198.51.100.53")},
				Domain:       dnsserver.MaskDomain,
				Universe:     e.World.RoutedV4Prefixes(),
				Attribution:  e.World.Table,
				RespectScope: true,
				Concurrency:  conc,
			}
			var subnets int64
			waitBefore := mutexWaitSeconds()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds, err := core.Scan(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				subnets += ds.Stats.SubnetsTotal
			}
			b.ReportMetric(float64(subnets)/b.Elapsed().Seconds(), "subnets/sec")
			if waited := mutexWaitSeconds() - waitBefore; subnets > 0 && waited >= 0 {
				b.ReportMetric(waited*1e9/float64(subnets), "contended-ns/subnet")
			}
		})
	}
}

// mutexWaitSeconds reads the process-wide cumulative mutex wait time.
// The counter covers every goroutine, so per-benchmark deltas are only
// meaningful because each sub-benchmark runs its scans to completion
// before sampling again.
func mutexWaitSeconds() float64 {
	sample := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return sample[0].Value.Float64()
}

// BenchmarkS2AtlasValidation runs the A-record validation campaign and
// BenchmarkS3/S4 quantities alongside (one Atlas run covers S2–S4).
func BenchmarkS2AtlasValidation(b *testing.B) {
	e := env(b)
	var res *experiments.AtlasResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = e.Atlas(context.Background(), 2000, 800)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.V4Found), "v4_found")
	b.ReportMetric(float64(res.V4ExtraVsECS), "v4_extra_vs_ecs")
}

// BenchmarkS3AtlasIPv6 measures the AAAA enumeration.
func BenchmarkS3AtlasIPv6(b *testing.B) {
	e := env(b)
	var res *experiments.AtlasResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = e.Atlas(context.Background(), 2000, 800)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.V6Found), "v6_found")
}

// BenchmarkS4BlockingStudy measures the blocking classification.
func BenchmarkS4BlockingStudy(b *testing.B) {
	e := env(b)
	var res *experiments.AtlasResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = e.Atlas(context.Background(), 2000, 800)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Blocking.BlockedShare(), "blocked_pct")
	b.ReportMetric(res.Blocking.TimeoutShare(), "timeout_pct")
}

// BenchmarkS5QUICVersionNegotiation runs the §3 probe matrix.
func BenchmarkS5QUICVersionNegotiation(b *testing.B) {
	e := env(b)
	var res *experiments.QUICResult
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = e.QUICProbes()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.VersionNegotiation.Versions)), "advertised_versions")
}

// BenchmarkS6EgressRotation runs the 30-second rotation scan.
func BenchmarkS6EgressRotation(b *testing.B) {
	e := env(b)
	var res *experiments.RelayScanResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = e.RelayScan(context.Background(), 8, 240)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Rotation.DistinctAddrs), "distinct_addrs")
	b.ReportMetric(float64(res.Rotation.DistinctSubnets), "distinct_subnets")
	b.ReportMetric(res.Rotation.ChangeRate*100, "change_rate_pct")
}

// BenchmarkS7CorrelationAudit runs the §6 audit.
func BenchmarkS7CorrelationAudit(b *testing.B) {
	e := env(b)
	var res *experiments.CorrelationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = e.Correlation(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Utilization.UsedShare(), "prefix_used_pct")
	b.ReportMetric(float64(len(res.LastHopPairs)), "shared_lasthop_pairs")
}

// BenchmarkS8GeoBias computes the §4.2 country-share summary.
func BenchmarkS8GeoBias(b *testing.B) {
	e := env(b)
	var usShare float64
	var small int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shares, s := analysis.CountrySharesN(e.Attributed, 50, 0)
		usShare, small = shares[0].Share, s
	}
	b.ReportMetric(usShare, "us_share_pct")
	b.ReportMetric(float64(small), "ccs_under_50")
}

// BenchmarkS9ODoHPath checks the Appendix B DNS path.
func BenchmarkS9ODoHPath(b *testing.B) {
	e := env(b)
	var bits int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, ecs := e.ODoHCheck()
		bits = ecs.Bits()
	}
	b.ReportMetric(float64(bits), "ecs_bits")
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationScopeSkip compares the §7 scope-respecting scan with
// the naive full-/24 iteration: same discovery, fewer queries.
func BenchmarkAblationScopeSkip(b *testing.B) {
	e := env(b)
	for _, mode := range []struct {
		name string
		skip bool
	}{{"respect-scope", true}, {"naive", false}} {
		b.Run(mode.name, func(b *testing.B) {
			srv := dnsserver.NewAuthServer(e.World, netsim.MonthApr, nil)
			cfg := core.ScanConfig{
				Exchanger:    &dnsserver.MemTransport{Handler: srv, Source: netip.MustParseAddr("198.51.100.53")},
				Domain:       dnsserver.MaskDomain,
				Universe:     e.World.RoutedV4Prefixes(),
				Attribution:  e.World.Table,
				RespectScope: mode.skip,
			}
			var ds *core.Dataset
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				ds, err = core.Scan(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ds.Stats.QueriesSent), "queries")
			b.ReportMetric(float64(ds.Addrs()), "addrs_found")
		})
	}
}

// BenchmarkAblationLPM compares the flattened-index longest-prefix match
// with a linear scan over the announcement list.
func BenchmarkAblationLPM(b *testing.B) {
	e := env(b)
	var announcements []bgp.Announcement
	e.World.Table.Walk(func(a bgp.Announcement) bool {
		announcements = append(announcements, a)
		return true
	})
	addrs := make([]netip.Addr, 512)
	for i := range addrs {
		c := e.World.ClientASes[i%len(e.World.ClientASes)]
		addrs[i] = iputil.AddrAtIndex(c.Prefixes[0], uint64(i))
	}
	b.Run("flat-index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := e.World.Table.Origin(addrs[i%len(addrs)]); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("linear-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			addr := addrs[i%len(addrs)]
			bestBits := -1
			for _, a := range announcements {
				if a.Prefix.Contains(addr) && a.Prefix.Bits() > bestBits {
					bestBits = a.Prefix.Bits()
				}
			}
			if bestBits < 0 {
				b.Fatal("miss")
			}
		}
	})
}

// BenchmarkAblationRotation compares per-connection egress rotation with
// a sticky egress, reporting the linkability a passive observer gets:
// the share of consecutive connections reusing the same address.
func BenchmarkAblationRotation(b *testing.B) {
	pool := make([]netip.Addr, 6)
	for i := range pool {
		pool[i] = netip.AddrFrom4([4]byte{172, 224, 224, byte(i + 1)})
	}
	policies := []struct {
		name string
		rot  masque.RotationPolicy
	}{
		{"per-connection", &masque.PerConnectionRotation{Pool: pool, Seed: 1}},
		{"sticky", &masque.StickyRotation{Addr: pool[0]}},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			same := 0
			prev := p.rot.Next(0)
			for i := 1; i < b.N+1; i++ {
				a := p.rot.Next(uint64(i))
				if a == prev {
					same++
				}
				prev = a
			}
			if b.N > 0 {
				b.ReportMetric(float64(same)/float64(b.N)*100, "linkable_pct")
			}
		})
	}
}

// BenchmarkQUICVersionProbeWire measures raw probe encode/handle/decode.
func BenchmarkQUICVersionProbeWire(b *testing.B) {
	ep := &quicsim.IngressEndpoint{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := quicsim.VersionProbe(ep)
		if err != nil || !res.Responded {
			b.Fatal("probe failed")
		}
	}
}

// BenchmarkEgressListGeneration regenerates the full 240k-entry list.
func BenchmarkEgressListGeneration(b *testing.B) {
	e := env(b)
	var list *egress.List
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		list = egress.Generate(e.World, 42)
	}
	b.ReportMetric(float64(len(list.Entries)), "entries")
}

// BenchmarkExtensionQoE runs the latency extension (future-work iii).
func BenchmarkExtensionQoE(b *testing.B) {
	e := env(b)
	var res *experiments.QoEResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = e.QoE(400)
	}
	b.ReportMetric(res.MedianOverhead, "median_overhead_x")
	b.ReportMetric(res.RelayFasterShare*100, "relay_faster_pct")
}

// BenchmarkExtensionGeoDBAdoption measures the geolocation-adoption scan.
func BenchmarkExtensionGeoDBAdoption(b *testing.B) {
	e := env(b)
	var adoption float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adoption = e.GeoDBAdoption(5000)
	}
	b.ReportMetric(adoption*100, "adoption_pct")
}
