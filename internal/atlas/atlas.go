// Package atlas simulates the RIPE Atlas measurement platform as the
// paper uses it (§3, §4.1): a globally distributed probe population with
// the documented biases — concentration in North America and Europe,
// more than half of all probes behind four public resolvers, and many
// probes sharing /24s — running DNS measurement campaigns against the
// relay service domains.
//
// Three campaigns from the paper are supported: A-record validation of
// the ECS scan, AAAA enumeration of the IPv6 ingress fleet (ECS cannot
// enumerate IPv6, §3), and the service-blocking study with its
// control-domain methodology.
package atlas

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"slices"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/resolver"
	"github.com/relay-networks/privaterelay/internal/workpool"
)

// Probe is one Atlas vantage point.
type Probe struct {
	ID int
	// AS is the probe's host network.
	AS bgp.ASN
	// Addr is the probe's IPv4 address; probes cluster into shared /24s.
	Addr netip.Addr
	// CC is the probe's country.
	CC string
	// Resolver is the recursive resolver this probe is configured with.
	Resolver *resolver.Resolver
	// ResolverName identifies the resolver ("GooglePublicDNS", "isp-42").
	ResolverName string
	// TimeoutProne marks probes whose queries time out (§4.1: 10 % of
	// probes time out for any domain — connectivity, not blocking).
	TimeoutProne bool
}

// Population is a generated probe set with its resolver fabric.
type Population struct {
	Probes []Probe
	// Resolvers maps resolver name → instance (shared between probes).
	Resolvers map[string]*resolver.Resolver
	handler   dnsserver.Handler
	wrap      func(dnsserver.Exchanger) dnsserver.Exchanger
}

// wrapTransport applies the population's transport hook (identity when
// none was configured).
func (p *Population) wrapTransport(e dnsserver.Exchanger) dnsserver.Exchanger {
	if p.wrap == nil {
		return e
	}
	return p.wrap(e)
}

// FlushCaches drops every resolver's cached responses, returning the
// population to a cold-cache state. Campaign benchmarks call it between
// iterations so each run pays the full upstream fan-out.
func (p *Population) FlushCaches() {
	for _, r := range p.Resolvers {
		r.FlushCache()
	}
}

// Config tunes population generation.
type Config struct {
	// N is the number of probes (default 11700, matching the paper's
	// 645 = 5.5 % blocked arithmetic).
	N int
	// Seed drives all deterministic choices.
	Seed uint64
	// SubnetClusters is the number of distinct /24s probes share
	// (default 600). Clustering is why Atlas validation discovers fewer
	// ingress addresses than the exhaustive ECS scan.
	SubnetClusters int
	// PublicResolverShare is the per-mille of probes using one of the
	// four public resolvers (default 520 ≈ "more than half").
	PublicResolverShare int
	// ISPBlockedPerMille is the per-mille of ISP resolvers that block
	// the relay domains (default 141, calibrated to ≈5.5 % of probes
	// after accounting for the public-resolver share, the timeout share
	// and the non-blocking SERVFAIL/FORMERR slice).
	ISPBlockedPerMille int
	// TimeoutPerMille is the per-mille of timeout-prone probes
	// (default 100 = the paper's 10 %).
	TimeoutPerMille int
	// Phase shifts the ingress fleet window the upstream answers from,
	// modeling the time offset between the ECS scan and the Atlas run.
	Phase int
	// WrapTransport, when non-nil, wraps every probe-facing transport —
	// the resolvers' upstream exchangers and the direct-measurement
	// path — before first use. It is the hook the fault-injection plane
	// (internal/faults) plugs into: wrap with a faults.Injector to run
	// campaigns against a lossy upstream.
	WrapTransport func(dnsserver.Exchanger) dnsserver.Exchanger
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 11700
	}
	if c.SubnetClusters <= 0 {
		c.SubnetClusters = 600
	}
	if c.PublicResolverShare <= 0 {
		c.PublicResolverShare = 520
	}
	if c.ISPBlockedPerMille <= 0 {
		c.ISPBlockedPerMille = 141
	}
	if c.TimeoutPerMille <= 0 {
		c.TimeoutPerMille = 100
	}
	return c
}

// blockPolicies is the §4.1 mix among blocking resolvers: 72 % NXDOMAIN,
// 13 % NOERROR/no-data, 5 % REFUSED, the rest SERVFAIL or FORMERR — plus
// exactly one hijacking resolver installed separately.
var blockPolicies = []struct {
	policy resolver.Policy
	weight int
}{
	{resolver.PolicyNXDomain, 72},
	{resolver.PolicyNoData, 13},
	{resolver.PolicyRefused, 5},
	{resolver.PolicyServFail, 6},
	{resolver.PolicyFormErr, 4},
}

// NewPopulation builds the probe set against a world and its
// authoritative server. The upstream handler answers with the fleet of
// the given month at cfg.Phase.
func NewPopulation(w *netsim.World, month bgp.Month, cfg Config) *Population {
	cfg = cfg.withDefaults()
	pop := &Population{
		Resolvers: make(map[string]*resolver.Resolver),
		wrap:      cfg.WrapTransport,
	}
	handler := newPhaseHandler(w, month, cfg.Phase)
	pop.handler = handler

	mkResolver := func(name string, addr netip.Addr) *resolver.Resolver {
		if r, ok := pop.Resolvers[name]; ok {
			return r
		}
		r := resolver.New(addr, pop.wrapTransport(&dnsserver.MemTransport{Handler: handler, Source: addr}))
		pop.Resolvers[name] = r
		return r
	}
	// The four public resolvers.
	for _, pr := range resolver.PublicResolvers {
		mkResolver(pr.Name, pr.V6) // v6 identity keys AAAA answers
	}

	// Probe subnets cluster into a limited pool of client /24s, weighted
	// by AS size (probes sit in well-connected networks), which means
	// mostly the large "both"-group ASes — exactly why Atlas validation
	// sees fewer addresses than the exhaustive ECS scan.
	clients := w.ClientASes
	cum := make([]int, len(clients))
	total := 0
	for i, c := range clients {
		total += c.Slash24s
		cum[i] = total
	}
	pickClient := func(h uint64) netsim.ClientAS {
		x := int(h % uint64(total))
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] <= x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return clients[lo]
	}
	clusterSet := make(map[netip.Prefix]bool, cfg.SubnetClusters)
	clusters := make([]netip.Prefix, 0, cfg.SubnetClusters)
	for k := 0; len(clusters) < cfg.SubnetClusters && k < 20*cfg.SubnetClusters; k++ {
		c := pickClient(iputil.Mix(cfg.Seed^0xA71A5, uint64(k)))
		sub := iputil.NthSubnet(c.Prefixes[0], 24,
			iputil.Mix(cfg.Seed, uint64(k))%iputil.SubnetCount(c.Prefixes[0], 24))
		if !clusterSet[sub] {
			clusterSet[sub] = true
			clusters = append(clusters, sub)
		}
	}

	for id := 0; id < cfg.N; id++ {
		h := iputil.Mix(cfg.Seed^0xBEEF, uint64(id))
		sub := clusters[h%uint64(len(clusters))]
		addr := iputil.AddrAtIndex(sub, 1+(h>>32)%250)
		as, _ := w.Table.Origin(addr)

		var res *resolver.Resolver
		var resName string
		if int(h%1000) < cfg.PublicResolverShare {
			pr := resolver.PublicResolvers[h/1000%uint64(len(resolver.PublicResolvers))]
			resName = pr.Name
			res = pop.Resolvers[resName]
		} else {
			// ISP resolver: one per probe cluster (a resolver site close
			// to the probes sharing the /24).
			resName = fmt.Sprintf("isp-%d-%s", as, sub)
			fresh := pop.Resolvers[resName] == nil
			res = mkResolver(resName, ispResolverAddr(iputil.HashString(resName)))
			if fresh {
				// A deterministic slice of ISP resolvers block the service.
				bh := iputil.Mix(cfg.Seed^0xB10C, iputil.HashString(resName))
				if int(bh%1000) < cfg.ISPBlockedPerMille {
					res.Block("icloud.com", pickPolicy(bh))
				}
			}
		}

		cc := probeCountry(h)
		pop.Probes = append(pop.Probes, Probe{
			ID:           id,
			AS:           as,
			Addr:         addr,
			CC:           cc,
			Resolver:     res,
			ResolverName: resName,
			TimeoutProne: int(iputil.Mix(cfg.Seed^0x71EE, uint64(id))%1000) < cfg.TimeoutPerMille,
		})
	}
	// Exactly one ISP resolver hijacks the domain (§4.1 observed a single
	// nextdns-style interception): pick the used ISP resolver with the
	// smallest name hash.
	var hijackName string
	var best uint64
	for name := range pop.Resolvers {
		if len(name) < 4 || name[:4] != "isp-" {
			continue
		}
		if h := iputil.HashString(name); hijackName == "" || h < best {
			hijackName, best = name, h
		}
	}
	if hijackName != "" {
		pop.Resolvers[hijackName].Block("icloud.com", resolver.PolicyHijack)
	}
	return pop
}

// pickPolicy selects a blocking policy with the §4.1 weights.
func pickPolicy(h uint64) resolver.Policy {
	total := 0
	for _, bp := range blockPolicies {
		total += bp.weight
	}
	x := int(h / 7 % uint64(total))
	for _, bp := range blockPolicies {
		if x < bp.weight {
			return bp.policy
		}
		x -= bp.weight
	}
	return resolver.PolicyNXDomain
}

// probeCountry reflects the Atlas bias toward North America and Europe.
func probeCountry(h uint64) string {
	biased := []string{"US", "US", "US", "DE", "DE", "FR", "GB", "NL", "CA", "SE", "CH", "IT"}
	global := []string{"BR", "JP", "AU", "IN", "ZA", "SG", "AR", "KE", "TH", "MX"}
	if h%100 < 78 {
		return biased[h/100%uint64(len(biased))]
	}
	return global[h/100%uint64(len(global))]
}

// ispResolverAddr derives a stable IPv6 identity for an AS's resolver
// (only its hash matters — it keys AAAA answer selection upstream).
func ispResolverAddr(as uint64) netip.Addr {
	var b [16]byte
	b[0] = 0xfd // ULA
	binary.BigEndian.PutUint64(b[4:], iputil.Mix(as, 0xD15))
	return netip.AddrFrom16(b)
}

// phaseHandler wraps the authoritative server but answers A queries from
// a phase-shifted fleet window, so an Atlas campaign run "minutes" after
// the 40-hour ECS scan can see one address the scan did not (§4.1). The
// per-plane fresh-address lists are fixed for the handler's lifetime, so
// they are computed once here instead of rebuilding two full fleet maps
// on every A query.
type phaseHandler struct {
	inner *dnsserver.AuthServer
	phase int
	// freshDefault/freshFallback hold the phase-shifted window's
	// addresses absent from the unshifted window, sorted.
	freshDefault  []netip.Addr
	freshFallback []netip.Addr
}

func newPhaseHandler(w *netsim.World, month bgp.Month, phase int) *phaseHandler {
	p := &phaseHandler{inner: dnsserver.NewAuthServer(w, month, nil), phase: phase}
	if phase != 0 {
		p.freshDefault = freshAddrs(w, month, netsim.ProtoDefault, phase)
		p.freshFallback = freshAddrs(w, month, netsim.ProtoFallback, phase)
	}
	return p
}

// freshAddrs diffs the phase-shifted fleet window against the unshifted
// one: the addresses a delayed campaign could see that the scan did not.
func freshAddrs(w *netsim.World, month bgp.Month, proto netsim.Proto, phase int) []netip.Addr {
	current := w.FleetUnion(month, proto, netsim.FamilyV4, 0)
	shifted := w.FleetUnion(month, proto, netsim.FamilyV4, phase)
	var fresh []netip.Addr
	for a := range shifted {
		if _, ok := current[a]; !ok {
			fresh = append(fresh, a)
		}
	}
	slices.SortFunc(fresh, func(a, b netip.Addr) int { return a.Compare(b) })
	return fresh
}

// Handle implements dnsserver.Handler. It is safe for concurrent use: the
// fresh lists are read-only, and the response's answer records are the
// message's own, so the swap below writes nothing anyone else reads.
func (p *phaseHandler) Handle(q *dnswire.Message, from netip.Addr) *dnswire.Message {
	resp := p.inner.Handle(q, from)
	if p.phase == 0 || resp == nil || len(resp.Answers) == 0 {
		return resp
	}
	if len(q.Questions) != 1 || q.Questions[0].Type != dnswire.TypeA {
		return resp
	}
	fresh := p.freshDefault
	if dnswire.CanonicalName(q.Questions[0].Name) == dnsserver.MaskH2Domain {
		fresh = p.freshFallback
	}
	if len(fresh) > 0 {
		// Swap the first answer for a fresh address on a sliver of
		// queries, reproducing the single extra address.
		if iputil.HashAddr(from)%97 == 0 {
			resp.Answers[0].Addr = fresh[iputil.HashAddr(from)%uint64(len(fresh))]
		}
	}
	return resp
}

// --- Campaigns ---

// MeasurementResult is one probe's DNS measurement outcome.
type MeasurementResult struct {
	ProbeID  int
	Addrs    []netip.Addr
	RCode    dnswire.RCode
	TimedOut bool
	Hijacked bool
	// Err records a hard per-probe measurement failure (broken transport,
	// malformed exchange) that is neither a timeout nor a DNS-level
	// response. Errored probes keep their slot in the result slice so
	// indexes stay probe-aligned; they carry no answer.
	Err error
}

// Completeness is a campaign's outcome accounting: every probe lands in
// exactly one bucket, so Answered+TimedOut+Errored == Probes.
type Completeness struct {
	// Probes is the number of vantage points measured.
	Probes int
	// Answered counts probes that got a DNS response, whatever its RCode.
	Answered int
	// TimedOut counts probes whose measurement timed out (connectivity,
	// fault injection, or timeout-prone probes).
	TimedOut int
	// Errored counts probes with a hard failure (MeasurementResult.Err).
	Errored int
}

// Complete reports whether every probe produced a classifiable outcome —
// an answer or a timeout — with no hard errors.
func (c Completeness) Complete() bool { return c.Errored == 0 }

// AnsweredShare returns the answered share in percent.
func (c Completeness) AnsweredShare() float64 {
	if c.Probes == 0 {
		return 0
	}
	return float64(c.Answered) / float64(c.Probes) * 100
}

// Summarize buckets a campaign's results into its Completeness.
func Summarize(results []MeasurementResult) Completeness {
	c := Completeness{Probes: len(results)}
	for _, r := range results {
		switch {
		case r.Err != nil:
			c.Errored++
		case r.TimedOut:
			c.TimedOut++
		default:
			c.Answered++
		}
	}
	return c
}

// Campaign runs one DNS measurement across all probes.
type Campaign struct {
	Domain string
	Type   dnswire.Type
	// Workers bounds the number of probes measured concurrently
	// (≤ 0: workpool's default). Results are bit-identical at any worker
	// count: every upstream answer is a pure function of (query, source)
	// and each result lands in its probe's slot by index.
	Workers int
}

// campaignBatch is how many consecutive probes a worker claims per
// counter increment, amortizing the shared-counter contention the same
// way the ECS scanner batches /24s.
const campaignBatch = 64

// runPool fans the probe set out to a bounded worker pool. measure fills
// out[i] for probe i. A campaign is a survey: one broken vantage point
// must not cost the other eleven thousand, so per-probe failures land in
// out[i].Err instead of stopping the pool, and the only error returned
// is the context's when the campaign itself is cancelled. Cancellation
// stops the measuring and is never charged to a probe.
func runPool(ctx context.Context, pop *Population, workers int, measure func(p *Probe, res *MeasurementResult) error) ([]MeasurementResult, error) {
	out := make([]MeasurementResult, len(pop.Probes))
	workpool.Run(len(out), campaignBatch, workers, func(_, lo, hi int) {
		for i := lo; i < hi && ctx.Err() == nil; i++ {
			if err := measure(&pop.Probes[i], &out[i]); err != nil && ctx.Err() == nil {
				out[i].Err = err
			}
		}
	})
	return out, ctx.Err()
}

// Run executes the campaign, returning per-probe results.
func (c Campaign) Run(ctx context.Context, pop *Population) ([]MeasurementResult, error) {
	return runPool(ctx, pop, c.Workers, func(p *Probe, res *MeasurementResult) error {
		res.ProbeID = p.ID
		if p.TimeoutProne {
			res.TimedOut = true
			return nil
		}
		var addrs []netip.Addr
		var rcode dnswire.RCode
		var err error
		if c.Type == dnswire.TypeAAAA {
			addrs, rcode, err = p.Resolver.ResolveAAAA(ctx, c.Domain, p.Addr)
		} else {
			addrs, rcode, err = p.Resolver.ResolveA(ctx, c.Domain, p.Addr)
		}
		switch {
		case errors.Is(err, dnsserver.ErrTimeout):
			res.TimedOut = true
		case err != nil:
			return err
		default:
			res.Addrs = addrs
			res.RCode = rcode
			for _, a := range addrs {
				if a == resolver.HijackAddr {
					res.Hijacked = true
				}
			}
		}
		return nil
	})
}

// DistinctAddrs collects the distinct addresses across results.
func DistinctAddrs(results []MeasurementResult) []netip.Addr {
	set := map[netip.Addr]bool{}
	for _, r := range results {
		for _, a := range r.Addrs {
			set[a] = true
		}
	}
	out := make([]netip.Addr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	slices.SortFunc(out, func(a, b netip.Addr) int { return a.Compare(b) })
	return out
}

// RunDirect queries the authoritative server directly from every probe
// (the paper's second AAAA measurement mode), bypassing resolvers. Each
// probe's own identity keys the answer.
func (c Campaign) RunDirect(ctx context.Context, pop *Population) ([]MeasurementResult, error) {
	return runPool(ctx, pop, c.Workers, func(p *Probe, res *MeasurementResult) error {
		res.ProbeID = p.ID
		if p.TimeoutProne {
			res.TimedOut = true
			return nil
		}
		src := p.Addr
		if c.Type == dnswire.TypeAAAA {
			src = probeV6Identity(uint64(p.ID))
		}
		mt := pop.wrapTransport(&dnsserver.MemTransport{Handler: pop.handler, Source: src})
		q := dnswire.NewQuery(uint16(p.ID), c.Domain, c.Type)
		resp, err := mt.Exchange(ctx, q)
		if errors.Is(err, dnsserver.ErrTimeout) {
			res.TimedOut = true
			return nil
		}
		if err != nil {
			return err
		}
		res.RCode = resp.Header.RCode
		for i := range resp.Answers {
			// Only address records feed probe measurements.
			if rec := &resp.Answers[i]; rec.Type == dnswire.TypeA || rec.Type == dnswire.TypeAAAA {
				res.Addrs = append(res.Addrs, rec.Addr)
			}
		}
		// The addresses are copied out: the response is consumed.
		dnswire.ReleaseMessage(resp)
		return nil
	})
}

// probeV6Identity derives the probe's IPv6 source identity.
func probeV6Identity(id uint64) netip.Addr {
	var b [16]byte
	b[0] = 0xfd
	b[1] = 0x9e
	binary.BigEndian.PutUint64(b[8:], iputil.Mix(id, 0x9E0B))
	return netip.AddrFrom16(b)
}

// IdentifyResolvers runs the whoami campaign: each probe resolves the
// whoami domain and learns its resolver's outward identity. It returns
// the share (per mille) of probes behind the four big public resolvers.
func IdentifyResolvers(pop *Population) int {
	publics := map[string]bool{}
	for _, pr := range resolver.PublicResolvers {
		publics[pr.Name] = true
	}
	n := 0
	for _, p := range pop.Probes {
		if publics[p.ResolverName] {
			n++
		}
	}
	return n * 1000 / len(pop.Probes)
}
