// Package experiments wires the substrates into the paper's evaluation:
// one entry point per table, figure and section-level result, all sharing
// a single lazily-built environment. The report binary, the benchmark
// harness and the examples all run through these functions, so every
// published number has exactly one implementation.
package experiments

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/relay-networks/privaterelay/internal/analysis"
	"github.com/relay-networks/privaterelay/internal/atlas"
	"github.com/relay-networks/privaterelay/internal/atomicio"
	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/colstore"
	"github.com/relay-networks/privaterelay/internal/core"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/egress"
	"github.com/relay-networks/privaterelay/internal/faults"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/quicsim"
	"github.com/relay-networks/privaterelay/internal/relay"
	"github.com/relay-networks/privaterelay/internal/resolver"
	"github.com/relay-networks/privaterelay/internal/scan"
	"github.com/relay-networks/privaterelay/internal/trace"
	"github.com/relay-networks/privaterelay/internal/vclock"
	"github.com/relay-networks/privaterelay/internal/workpool"
)

// Env is a shared experiment environment: the world, the egress list and
// memoized scan datasets.
type Env struct {
	Seed  uint64
	Scale float64
	// ScanConcurrency is the worker count for ECS scans run through the
	// environment (0 falls back to core.Scan's default). Scan results are
	// concurrency-independent, so raising it only changes wall-clock time.
	ScanConcurrency int
	// PipelineWorkers is the worker count for the attribution, table and
	// Atlas-campaign pipelines (0 falls back to each pipeline's default).
	// Like scans, those pipelines are worker-count-independent.
	PipelineWorkers int
	// FaultProfile, when non-nil, routes every DNS exchange the
	// environment builds — ECS scans, the relay device's resolver and the
	// Atlas probe transports — through a faults.Injector with this
	// profile. Scans then run core.MonthScan's resilience policy on a
	// virtual clock, so the published numbers stay identical to a
	// fault-free run (the chaos tests pin this equivalence).
	FaultProfile *faults.Profile
	// ConnectRetries shapes tunnel-establishment retries for the
	// through-relay scans. The zero value uses the library defaults
	// (3 attempts, 50ms base backoff).
	ConnectRetries relay.ConnectRetry

	World      *netsim.World
	List       *egress.List
	Attributed []egress.Attributed
	Dep        *relay.Deployment

	mu    sync.Mutex
	scans map[string]*core.Dataset
}

// NewEnv builds the environment. Scale follows netsim.Params semantics.
func NewEnv(seed uint64, scale float64) *Env {
	w := netsim.NewWorld(netsim.Params{Seed: seed, Scale: scale})
	list := egress.Generate(w, seed)
	dep := relay.NewDeployment(w, list)
	return &Env{
		Seed:            seed,
		Scale:           scale,
		ScanConcurrency: 8,
		PipelineWorkers: 8,
		World:           w,
		List:            list,
		Attributed:      dep.Attributed(),
		Dep:             dep,
		scans:           make(map[string]*core.Dataset),
	}
}

// ScanMonth runs (or returns the memoized) ECS scan for a month/domain.
// Concurrent calls are safe for distinct keys, as Table1's fan-out
// makes them; two concurrent calls for the same key both scan, and the
// later one's dataset replaces the earlier in the memo.
func (e *Env) ScanMonth(ctx context.Context, month bgp.Month, domain string) (*core.Dataset, error) {
	key := month.String() + "|" + domain
	e.mu.Lock()
	if ds, ok := e.scans[key]; ok {
		e.mu.Unlock()
		return ds, nil
	}
	e.mu.Unlock()
	// A faulted scan gets its own virtual clock: backoff costs no wall
	// time, and concurrent scans do not move each other's fault windows.
	var clock vclock.Clock
	if e.FaultProfile != nil {
		clock = vclock.NewVirtualClock()
	}
	cfg := core.MonthScan(e.World, month, domain, nil, e.FaultProfile, clock)
	cfg.Concurrency = e.ScanConcurrency
	ds, err := core.Scan(ctx, cfg)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.scans[key] = ds
	e.mu.Unlock()
	return ds, nil
}

// Table1 runs the four monthly dual-plane scans (T1). Its seven
// (month, domain) scans are distinct ScanMonth keys, so they run at once
// through workpool.Run, each into its own result index; the first error
// in plan order is returned.
func (e *Env) Table1(ctx context.Context) ([]analysis.Table1Row, error) {
	return e.table1(ctx, nil)
}

// table1 is Table1 under FullReport's slot rule: with slots non-nil,
// each scan holds one token of it while it runs.
func (e *Env) table1(ctx context.Context, slots chan struct{}) ([]analysis.Table1Row, error) {
	type planned struct {
		month  bgp.Month
		domain string
	}
	var plan []planned
	for _, m := range netsim.ScanMonths {
		plan = append(plan, planned{m, dnsserver.MaskDomain})
		if m != netsim.MonthJan { // the paper's January fallback scan is absent
			plan = append(plan, planned{m, dnsserver.MaskH2Domain})
		}
	}
	scans := make([]*core.Dataset, len(plan))
	errs := make([]error, len(plan))
	workpool.Run(len(plan), 1, 0, func(_, i, _ int) {
		if slots != nil {
			slots <- struct{}{}
			defer func() { <-slots }()
		}
		scans[i], errs[i] = e.ScanMonth(ctx, plan[i].month, plan[i].domain)
	})
	def := map[bgp.Month]*colstore.Dataset{}
	fb := map[bgp.Month]*colstore.Dataset{}
	for i, p := range plan {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if p.domain == dnsserver.MaskDomain {
			def[p.month] = &scans[i].Dataset
		} else {
			fb[p.month] = &scans[i].Dataset
		}
	}
	return analysis.Table1(netsim.ScanMonths, def, fb), nil
}

// Table2 joins the April scan with AS populations (T2).
func (e *Env) Table2(ctx context.Context) ([]analysis.Table2Row, float64, error) {
	ds, err := e.ScanMonth(ctx, netsim.MonthApr, dnsserver.MaskDomain)
	if err != nil {
		return nil, 0, err
	}
	return analysis.Table2(&ds.Dataset, e.World.Pop), analysis.AppleShareInBoth(&ds.Dataset), nil
}

// Table3 aggregates the attributed egress list (T3).
func (e *Env) Table3() []analysis.Table3Row { return analysis.Table3N(e.Attributed, e.PipelineWorkers) }

// Table4 counts covered cities (T4).
func (e *Env) Table4() []analysis.Table4Row { return analysis.Table4N(e.Attributed, e.PipelineWorkers) }

// Figure2 returns the per-operator IPv4 geolocation panels (F2). Both
// Akamai ASes merge into one panel, as in the paper.
func (e *Env) Figure2() map[string]analysis.GeoBounds {
	return e.geoPanels(netsim.FamilyV4)
}

// Figure5 returns panels for both families (F5).
func (e *Env) Figure5() map[string]analysis.GeoBounds {
	out := e.geoPanels(netsim.FamilyV4)
	for k, v := range e.geoPanels(netsim.FamilyV6) {
		out[k+"-v6"] = v
	}
	return out
}

func (e *Env) geoPanels(fam netsim.Family) map[string]analysis.GeoBounds {
	akamai := analysis.GeoScatter(e.Attributed, netsim.ASAkamaiPR, fam)
	akamai = append(akamai, analysis.GeoScatter(e.Attributed, netsim.ASAkamaiEdge, fam)...)
	return map[string]analysis.GeoBounds{
		"Akamai":     analysis.Bounds(akamai),
		"Cloudflare": analysis.Bounds(analysis.GeoScatter(e.Attributed, netsim.ASCloudflare, fam)),
		"Fastly":     analysis.Bounds(analysis.GeoScatter(e.Attributed, netsim.ASFastly, fam)),
	}
}

// Figure4 returns the location CDFs per operator (F4).
func (e *Env) Figure4(kind analysis.LocationKind, fam netsim.Family) map[string][]analysis.CDFPoint {
	out := map[string][]analysis.CDFPoint{}
	for _, as := range relay.EgressOperators {
		out[netsim.ASName(as)] = analysis.LocationCDF(e.Attributed, as, fam, kind)
	}
	return out
}

// RelayScanResult bundles the through-relay scan outputs (F3 + S6).
type RelayScanResult struct {
	Open  []scan.Observation
	Fixed []scan.Observation
	// OpenChanges / FixedChanges are the Figure 3 series.
	OpenChanges  []scan.OperatorChange
	FixedChanges []scan.OperatorChange
	// Rotation summarizes the 30 s cadence scan for the dominant egress
	// operator (§4.3); RotationAll covers every round regardless of
	// operator, and RotationObs holds the filtered observations.
	Rotation         scan.RotationStats
	RotationAll      scan.RotationStats
	RotationOperator bgp.ASN
	RotationObs      []scan.Observation
}

// RelayScan runs the Figure 3 operator scan (5-minute cadence over a
// virtual day, open and fixed DNS) plus the 30-second rotation scan.
func (e *Env) RelayScan(ctx context.Context, dayRounds, rotationRounds int) (*RelayScanResult, error) {
	// The paper measures from a German vantage (TUM) whose dominant
	// egress operator pool spans multiple multi-address subnets (§4.3:
	// six addresses from four subnets). Pick a DE client whose sticky
	// operator is AkamaiPR; fall back to any DE client, then to any.
	client := e.World.ClientASes[len(e.World.ClientASes)/2].Prefixes[0].Addr().Next()
	foundDE := false
	for _, c := range e.World.ClientASes {
		cand := c.Prefixes[0].Addr().Next()
		if e.Dep.ClientCountry(cand) != "DE" {
			continue
		}
		if !foundDE {
			client = cand
			foundDE = true
		}
		if e.Dep.SelectOperator(cand, 0) == netsim.ASAkamaiPR {
			client = cand
			break
		}
	}
	svc, err := relay.StartService(e.Dep, relay.ServiceConfig{Client: client, Month: netsim.MonthApr, Seed: e.Seed})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	svc.Issuer.DailyLimit = 1 << 20

	auth := dnsserver.NewAuthServer(e.World, netsim.MonthApr, nil)
	var upstream dnsserver.Exchanger = &dnsserver.MemTransport{Handler: auth, Source: netip.MustParseAddr("9.9.9.9")}
	if e.FaultProfile != nil {
		upstream = faults.NewInjector(upstream, e.FaultProfile, nil, e.World.Table.Origin)
	}
	res := resolver.New(netip.MustParseAddr("9.9.9.9"), upstream)
	dev := &relay.Device{Client: client, Resolver: res, Service: svc, Account: "scan", Day: "2022-05-11"}

	ws, err := scan.StartWebServer()
	if err != nil {
		return nil, err
	}
	defer ws.Close()
	es, err := scan.StartEchoServer()
	if err != nil {
		return nil, err
	}
	defer es.Close()

	result := &RelayScanResult{}
	result.Open, err = scan.Run(ctx, scan.Config{Device: dev, Web: ws, Echo: es, Rounds: dayRounds, Interval: 5 * time.Minute, Connect: e.ConnectRetries})
	if err != nil {
		return nil, err
	}

	forced := e.World.IngressFleet(netsim.ASAkamaiPR, netsim.MonthApr, netsim.ProtoDefault, netsim.FamilyV4, 0)[0]
	res.AddLocalZone(dnsserver.MaskDomain, []dnswire.Record{{
		Name: dnsserver.MaskDomain, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60, Addr: forced,
	}})
	result.Fixed, err = scan.Run(ctx, scan.Config{Device: dev, Web: ws, Echo: es, Rounds: dayRounds, Interval: 5 * time.Minute, Connect: e.ConnectRetries})
	if err != nil {
		return nil, err
	}
	res.ClearLocalZone(dnsserver.MaskDomain)

	rot, err := scan.Run(ctx, scan.Config{Device: dev, Web: ws, Echo: es, Rounds: rotationRounds, Interval: 30 * time.Second, Connect: e.ConnectRetries})
	if err != nil {
		return nil, err
	}
	db := e.Dep.GeoDB()
	lookup := func(a netip.Addr) (netip.Prefix, bool) {
		p, _, ok := db.Network(a)
		return p, ok
	}
	// Headline rotation numbers describe the dominant operator's pool,
	// matching the paper's single-location 48 h observation.
	var haveDominant bool
	result.RotationOperator, result.RotationObs, haveDominant = scan.DominantOperator(rot)
	if !haveDominant && len(rot) > 0 {
		return nil, fmt.Errorf("experiments: rotation scan had no successful rounds")
	}
	result.Rotation = scan.Rotation(result.RotationObs, lookup)
	result.RotationAll = scan.Rotation(rot, lookup)
	result.OpenChanges = scan.OperatorChanges(result.Open)
	result.FixedChanges = scan.OperatorChanges(result.Fixed)
	return result, nil
}

// QUICResult captures the §3 probing matrix (S5).
type QUICResult struct {
	VersionNegotiation quicsim.ProbeResult
	StandardHandshake  quicsim.ProbeResult
	RelayHandshake     quicsim.ProbeResult
}

// QUICProbes runs the three probe types against an ingress endpoint.
func (e *Env) QUICProbes() (*QUICResult, error) {
	ep := &quicsim.IngressEndpoint{}
	vn, err := quicsim.VersionProbe(ep)
	if err != nil {
		return nil, err
	}
	std, err := quicsim.StandardHandshakeProbe(ep)
	if err != nil {
		return nil, err
	}
	rel, err := quicsim.RelayHandshakeProbe(ep)
	if err != nil {
		return nil, err
	}
	return &QUICResult{VersionNegotiation: vn, StandardHandshake: std, RelayHandshake: rel}, nil
}

// AtlasResult bundles the RIPE Atlas campaigns (S2, S3, S4).
type AtlasResult struct {
	Probes          int
	PublicResolvers int // per mille
	V4Found         int
	V4ExtraVsECS    int // addresses Atlas saw that ECS did not
	V4MissingVsECS  int
	V6Found         int
	V6DirectAdded   int
	Blocking        *atlas.BlockingReport
	// Completeness accounts the A-validation campaign's outcome buckets
	// (answered / timed out / errored probes).
	Completeness atlas.Completeness
}

// Atlas runs validation (A), enumeration (AAAA) and the blocking study.
func (e *Env) Atlas(ctx context.Context, probes, clusters int) (*AtlasResult, error) {
	ecs, err := e.ScanMonth(ctx, netsim.MonthApr, dnsserver.MaskDomain)
	if err != nil {
		return nil, err
	}
	popCfg := atlas.Config{
		Seed: e.Seed, N: probes, SubnetClusters: clusters, Phase: 1,
	}
	if e.FaultProfile != nil {
		popCfg.WrapTransport = func(ex dnsserver.Exchanger) dnsserver.Exchanger {
			return faults.NewInjector(ex, e.FaultProfile, nil, e.World.Table.Origin)
		}
	}
	pop := atlas.NewPopulation(e.World, netsim.MonthApr, popCfg)
	out := &AtlasResult{Probes: len(pop.Probes), PublicResolvers: atlas.IdentifyResolvers(pop)}

	aRes, err := atlas.Campaign{Domain: dnsserver.MaskDomain, Type: dnswire.TypeA, Workers: e.PipelineWorkers}.Run(ctx, pop)
	if err != nil {
		return nil, err
	}
	out.Completeness = atlas.Summarize(aRes)
	for _, a := range atlas.DistinctAddrs(aRes) {
		if a == resolver.HijackAddr {
			continue
		}
		out.V4Found++
		if _, ok := ecs.Lookup(a); !ok {
			out.V4ExtraVsECS++
		}
	}
	out.V4MissingVsECS = ecs.Addrs() - (out.V4Found - out.V4ExtraVsECS)

	v6Res, err := atlas.Campaign{Domain: dnsserver.MaskDomain, Type: dnswire.TypeAAAA, Workers: e.PipelineWorkers}.Run(ctx, pop)
	if err != nil {
		return nil, err
	}
	direct, err := atlas.Campaign{Domain: dnsserver.MaskDomain, Type: dnswire.TypeAAAA, Workers: e.PipelineWorkers}.RunDirect(ctx, pop)
	if err != nil {
		return nil, err
	}
	viaResolver := len(atlas.DistinctAddrs(v6Res))
	out.V6Found = len(atlas.DistinctAddrs(append(v6Res, direct...)))
	out.V6DirectAdded = out.V6Found - viaResolver

	out.Blocking, err = atlas.BlockingStudyWorkers(ctx, pop, e.PipelineWorkers)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CorrelationResult is the §6 audit (S7).
type CorrelationResult struct {
	SharedOperators []bgp.ASN
	LastHopPairs    []trace.LastHopPair
	Utilization     trace.PrefixUtilization
	FirstSeen       bgp.Month
}

// Correlation runs the shared-operator, last-hop and prefix audits.
func (e *Env) Correlation(ctx context.Context) (*CorrelationResult, error) {
	def, err := e.ScanMonth(ctx, netsim.MonthApr, dnsserver.MaskDomain)
	if err != nil {
		return nil, err
	}
	fb, err := e.ScanMonth(ctx, netsim.MonthApr, dnsserver.MaskH2Domain)
	if err != nil {
		return nil, err
	}
	ingressAk := def.AddressesOf(netsim.ASAkamaiPR)
	audited := slices.Concat(ingressAk, fb.AddressesOf(netsim.ASAkamaiPR),
		e.World.IngressFleet(netsim.ASAkamaiPR, netsim.MonthApr, netsim.ProtoDefault, netsim.FamilyV6, 0))
	res := &CorrelationResult{
		SharedOperators: trace.SharedOperators(&def.Dataset, e.Attributed),
		Utilization:     trace.AuditPrefixUtilization(e.World, netsim.ASAkamaiPR, audited, e.Attributed),
	}
	res.FirstSeen, _ = trace.FirstSeen(e.World, netsim.ASAkamaiPR)

	vantage := e.World.ClientASes[0].Prefixes[0].Addr().Next()
	var egressAk []netip.Addr
	for _, a := range e.Attributed {
		if a.AS == netsim.ASAkamaiPR && a.Prefix.Addr().Is4() {
			egressAk = append(egressAk, a.Prefix.Addr().Next())
			if len(egressAk) >= 400 {
				break
			}
		}
	}
	res.LastHopPairs = trace.LastHopCorrelation(e.World, vantage, ingressAk, egressAk, 16)
	return res, nil
}

// ExportFigures writes every figure's raw series as CSV files into dir:
// fig2-*.csv and fig5-*-v6.csv geo scatters, fig3-*.csv operator
// timelines, fig4-*-cities-*.csv CDFs. The relay scan reruns with the
// given round counts.
func (e *Env) ExportFigures(ctx context.Context, dir string, dayRounds int) ([]string, error) {
	var written []string
	save := func(name string, fn func(io.Writer) error) error {
		path := filepath.Join(dir, name)
		if err := atomicio.WriteFile(path, fn); err != nil {
			return err
		}
		written = append(written, path)
		return nil
	}

	// Figures 2 and 5: geo scatters per panel and family.
	for _, fam := range []netsim.Family{netsim.FamilyV4, netsim.FamilyV6} {
		suffix := ""
		prefix := "fig2"
		if fam == netsim.FamilyV6 {
			suffix = "-v6"
			prefix = "fig5"
		}
		akamai := analysis.GeoScatter(e.Attributed, netsim.ASAkamaiPR, fam)
		akamai = append(akamai, analysis.GeoScatter(e.Attributed, netsim.ASAkamaiEdge, fam)...)
		panels := map[string][]analysis.GeoPoint{
			"akamai":     akamai,
			"cloudflare": analysis.GeoScatter(e.Attributed, netsim.ASCloudflare, fam),
			"fastly":     analysis.GeoScatter(e.Attributed, netsim.ASFastly, fam),
		}
		for name, pts := range panels {
			pts := pts
			if err := save(fmt.Sprintf("%s-%s%s.csv", prefix, name, suffix), func(w io.Writer) error {
				return analysis.WriteGeoScatterCSV(w, pts)
			}); err != nil {
				return written, err
			}
		}
	}

	// Figure 4: city and country CDFs per operator and family.
	for _, fam := range []netsim.Family{netsim.FamilyV4, netsim.FamilyV6} {
		for _, kind := range []analysis.LocationKind{analysis.ByCity, analysis.ByCountry} {
			kindName := "cities"
			if kind == analysis.ByCountry {
				kindName = "countries"
			}
			for _, as := range relay.EgressOperators {
				cdf := analysis.LocationCDF(e.Attributed, as, fam, kind)
				name := fmt.Sprintf("fig4-%s-%s-%s.csv", netsim.ASName(as), kindName, strings.ToLower(fam.String()))
				if err := save(name, func(w io.Writer) error {
					return analysis.WriteCDFCSV(w, cdf)
				}); err != nil {
					return written, err
				}
			}
		}
	}

	// Figure 3: operator timelines.
	rs, err := e.RelayScan(ctx, dayRounds, 0)
	if err != nil {
		return written, err
	}
	if err := save("fig3-open.csv", func(w io.Writer) error {
		return analysis.WriteOperatorTimelineCSV(w, rs.Open)
	}); err != nil {
		return written, err
	}
	if err := save("fig3-fixed.csv", func(w io.Writer) error {
		return analysis.WriteOperatorTimelineCSV(w, rs.Fixed)
	}); err != nil {
		return written, err
	}
	return written, nil
}

// QoEResult summarizes the latency extension (the paper's future-work
// question iii): relayed vs direct round-trip times across many
// client/target pairs.
type QoEResult struct {
	Samples          int
	MedianOverhead   float64 // relay RTT / direct RTT at the median
	P90Overhead      float64
	RelayFasterShare float64 // share of pairs where the relay wins
}

// QoE samples client/target pairs and compares direct with relayed RTTs
// using the deployment's latency model.
func (e *Env) QoE(samples int) *QoEResult {
	n := len(e.World.ClientASes)
	var ratios []float64
	faster := 0
	for i := 0; i < samples; i++ {
		client := e.World.ClientASes[i%n].Prefixes[0].Addr().Next()
		target := e.World.ClientASes[(i*7+3)%n].Prefixes[0].Addr().Next()
		ingList := e.Dep.IngressFor(client, netsim.MonthApr, netsim.ProtoDefault)
		pool := e.Dep.EgressPool(client, netsim.ASAkamaiPR)
		if len(ingList) == 0 || len(pool) == 0 {
			continue
		}
		p := e.Dep.QoEPath(client, ingList[0], pool[i%len(pool)], target)
		ratios = append(ratios, p.OverheadRatio())
		if p.Relay() < p.Direct {
			faster++
		}
	}
	slices.Sort(ratios)
	res := &QoEResult{Samples: len(ratios)}
	if len(ratios) > 0 {
		res.MedianOverhead = ratios[len(ratios)/2]
		res.P90Overhead = ratios[len(ratios)*9/10]
		res.RelayFasterShare = float64(faster) / float64(len(ratios))
	}
	return res
}

// GeoDBAdoption measures how much a geolocation database agrees with the
// egress list's represented locations — the paper found MaxMind adopted
// Apple's mapping for most subnets. Returns the country-level agreement
// share over the sampled entries.
func (e *Env) GeoDBAdoption(sample int) float64 {
	db := e.Dep.GeoDB()
	if sample <= 0 || sample > len(e.List.Entries) {
		sample = len(e.List.Entries)
	}
	agree := 0
	for i := 0; i < sample; i++ {
		entry := e.List.Entries[i*len(e.List.Entries)/sample]
		if loc, ok := db.LookupPrefix(entry.Prefix); ok && loc.CountryCode == entry.CC {
			agree++
		}
	}
	return float64(agree) / float64(sample)
}

// ODoHCheck verifies the Appendix B behaviour (S9): the in-relay DNS path
// uses Cloudflare's resolver and attaches the egress address as ECS.
func (e *Env) ODoHCheck() (resolverName string, ecsPrefix netip.Prefix) {
	dev := &relay.Device{}
	pr := dev.ODoHResolver()
	sample := netip.MustParseAddr("172.224.224.9")
	return pr.Name, relay.ODoHQueryECS(sample)
}

// FullReport renders every experiment into one text report. The relay
// scan starts first on its own goroutine and runs under Table 1's scans
// and the analysis sections; Figure 3 joins it. A relay-scan round is a
// chain of loopback socket hops, and a P polls the network only when it
// has nothing else to run, so the scan must not queue behind CPU-bound
// work: of GOMAXPROCS slots, it holds one for its whole life and each
// Table 1 scan holds one while it runs. Once the relay scan ends, Table 1
// has every P. Every return cancels and joins the scan, and errors
// surface in report order: a Table 1 failure wins over a relay-scan
// failure whatever the scheduling.
func (e *Env) FullReport(ctx context.Context) (string, error) {
	ctx, cancel := context.WithCancel(ctx)
	var (
		rs        *RelayScanResult
		rsErr     error
		relayDone = make(chan struct{})
		slots     = make(chan struct{}, runtime.GOMAXPROCS(0))
	)
	slots <- struct{}{} // taken before Table 1 can fill the channel
	go func() {
		defer close(relayDone)
		defer func() { <-slots }()
		rs, rsErr = e.RelayScan(ctx, 96, 200)
	}()
	defer func() {
		cancel()
		<-relayDone
	}()

	var sb strings.Builder
	fmt.Fprintf(&sb, "iCloud Private Relay reproduction — seed=%d scale=%g\n", e.Seed, e.Scale)
	fmt.Fprintf(&sb, "world: %d client ASes, %d routed /24s, %d BGP announcements\n\n",
		len(e.World.ClientASes), e.World.ClientSlash24Count(), e.World.Table.Len())

	t1, err := e.table1(ctx, slots)
	if err != nil {
		return "", err
	}
	sb.WriteString("== Table 1: ingress relays per AS ==\n")
	sb.WriteString(analysis.RenderTable1(t1))

	t2, share, err := e.Table2(ctx)
	if err != nil {
		return "", err
	}
	sb.WriteString("\n== Table 2: client ASes per ingress operator (April) ==\n")
	sb.WriteString(analysis.RenderTable2(t2, share))

	sb.WriteString("\n== Table 3: egress subnets per operating AS ==\n")
	sb.WriteString(analysis.RenderTable3(e.Table3()))

	sb.WriteString("\n== Table 4: covered cities per operator ==\n")
	sb.WriteString(analysis.RenderTable4(e.Table4()))

	sb.WriteString("\n== Figure 2: egress subnet geolocation (IPv4) ==\n")
	fig2 := e.Figure2()
	for _, name := range sortedNames(fig2) {
		sb.WriteString(analysis.RenderGeoBounds(name, fig2[name]))
	}

	sb.WriteString("\n== Figure 4: location CDFs ==\n")
	for _, fam := range []netsim.Family{netsim.FamilyV4, netsim.FamilyV6} {
		fig4 := e.Figure4(analysis.ByCity, fam)
		for _, name := range sortedNames(fig4) {
			sb.WriteString(analysis.RenderCDF(fmt.Sprintf("%s cities %s", name, fam), fig4[name]))
		}
	}

	shares, small := analysis.CountrySharesN(e.Attributed, 50, e.PipelineWorkers)
	fmt.Fprintf(&sb, "\n== §4.2 geographic bias ==\ntop: %s %.1f%%, second: %s %.1f%%; %d countries under 50 subnets\n",
		shares[0].CC, shares[0].Share, shares[1].CC, shares[1].Share, small)

	<-relayDone
	if rsErr != nil {
		return "", rsErr
	}
	sb.WriteString("\n== Figure 3: egress operator changes ==\n")
	sb.WriteString(analysis.RenderFigure3([]analysis.Figure3Series{
		{Label: "Open Scan", Rounds: len(rs.Open), Changes: rs.OpenChanges},
		{Label: "Fixed DNS Scan", Rounds: len(rs.Fixed), Changes: rs.FixedChanges},
	}))
	fmt.Fprintf(&sb, "\n== §4.3 rotation ==\ndominant operator %s: %d addrs / %d subnets, change rate %.0f%%, %d parallel-diff rounds\nall operators: %d addrs / %d subnets\n",
		netsim.ASName(rs.RotationOperator),
		rs.Rotation.DistinctAddrs, rs.Rotation.DistinctSubnets, rs.Rotation.ChangeRate*100, rs.Rotation.ParallelDiffer,
		rs.RotationAll.DistinctAddrs, rs.RotationAll.DistinctSubnets)

	qp, err := e.QUICProbes()
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "\n== §3 QUIC probing ==\nVN responded=%v versions=%#x; standard handshake responded=%v; relay handshake ok=%v\n",
		qp.VersionNegotiation.Responded, qp.VersionNegotiation.Versions,
		qp.StandardHandshake.Responded, qp.RelayHandshake.HandshakeOK)

	at, err := e.Atlas(ctx, 4000, 1500)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "\n== §4.1 RIPE Atlas ==\nprobes=%d public-resolver share=%d‰\nA: found %d (extra %d, missing %d vs ECS)\nAAAA: found %d (direct added %d)\n%s\n",
		at.Probes, at.PublicResolvers, at.V4Found, at.V4ExtraVsECS, at.V4MissingVsECS,
		at.V6Found, at.V6DirectAdded, at.Blocking)

	corr, err := e.Correlation(ctx)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "\n== §6 correlation ==\nshared operators: %v\nshared last-hop pairs: %d (e.g. %v)\n%s\nAkamaiPR first seen: %s\n",
		corr.SharedOperators, len(corr.LastHopPairs), firstOrNone(corr.LastHopPairs), corr.Utilization, corr.FirstSeen)

	name, ecs := e.ODoHCheck()
	fmt.Fprintf(&sb, "\n== App. B ODoH ==\nresolver=%s egress-ECS=%s\n", name, ecs)

	qoe := e.QoE(400)
	fmt.Fprintf(&sb, "\n== Extension: QoE (future work iii) ==\n%d samples: median relay overhead ×%.2f, p90 ×%.2f, relay faster in %.0f%% of pairs\n",
		qoe.Samples, qoe.MedianOverhead, qoe.P90Overhead, qoe.RelayFasterShare*100)
	fmt.Fprintf(&sb, "geo-DB adoption of the egress mapping: %.1f%%\n", e.GeoDBAdoption(5000)*100)
	return sb.String(), nil
}

func firstOrNone(pairs []trace.LastHopPair) string {
	if len(pairs) == 0 {
		return "none"
	}
	p := pairs[0]
	return fmt.Sprintf("ingress %v + egress %v behind %s", p.Ingress, p.Egress, p.Router)
}

// sortedNames returns m's keys in ascending order, so report sections
// built from maps print identically on every run.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}
