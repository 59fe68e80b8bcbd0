package netsim

import (
	"fmt"
	"math"
	"net/netip"

	"github.com/relay-networks/privaterelay/internal/aspop"
	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/iputil"
)

// ClientAS is one client autonomous system in the generated world.
type ClientAS struct {
	ASN      bgp.ASN
	Group    ServeGroup
	Prefixes []netip.Prefix
	// Slash24s caches the number of /24s across Prefixes.
	Slash24s int
}

// World is the generated Internet model. It is immutable after NewWorld
// — every table below is built there and only read afterwards — and safe
// for concurrent use.
type World struct {
	Params Params

	// Table is the global BGP routing table.
	Table *bgp.Table
	// History is the monthly AS visibility archive (2016-01 .. 2022-06).
	History *bgp.History
	// Pop is the APNIC-style AS population dataset.
	Pop *aspop.Dataset

	// ClientASes lists all generated client networks.
	ClientASes []ClientAS

	// Per-operator service prefixes by role.
	ingressPfx map[serviceKey][]netip.Prefix
	egressPfx  map[serviceKey][]netip.Prefix
	unusedPfx  map[serviceKey][]netip.Prefix

	// Ingress relay address pools (superset of any month's fleet).
	pools map[poolKey][]netip.Addr

	// clientRuns locates each serve group's client ASes in ClientASes;
	// see clientIndex.
	clientRuns []clientRun
	seed       uint64

	// routes is Table flattened once at the end of NewWorld: the answer
	// path resolves a client subnet's covering route with one lock-free
	// binary search.
	routes *bgp.Index

	// fleets holds the unshifted fleet of every (operator, scan month,
	// plane, family) at its fleetIndex; see buildFleets.
	fleets [][]netip.Addr
}

// clientRun is one serve group's client ASes: their ASNs are numbered
// consecutively from base and sit consecutively in ClientASes from
// start.
type clientRun struct {
	base  bgp.ASN
	start int
	count int
}

type serviceKey struct {
	as  bgp.ASN
	fam Family
}

type poolKey struct {
	as    bgp.ASN
	proto Proto
	fam   Family
}

// Client ASN number ranges: purely synthetic, chosen outside real
// allocations for clarity in output.
const (
	asnBaseAkamaiOnly = 1_000_000
	asnBaseAppleOnly  = 2_000_000
	asnBaseBoth       = 3_000_000
)

// NewWorld generates a world from params. Generation cost is dominated by
// the client universe: roughly O(Scale · 72k) prefix allocations.
func NewWorld(params Params) *World {
	p := params.withDefaults()
	w := &World{
		Params:     p,
		Table:      bgp.NewTable(),
		History:    bgp.NewHistory(),
		Pop:        aspop.New(),
		ingressPfx: make(map[serviceKey][]netip.Prefix),
		egressPfx:  make(map[serviceKey][]netip.Prefix),
		unusedPfx:  make(map[serviceKey][]netip.Prefix),
		pools:      make(map[poolKey][]netip.Addr),
		seed:       p.Seed,
	}
	w.buildServicePrefixes()
	w.buildClientUniverse()
	w.buildPools()
	w.buildFleets()
	w.buildHistory()
	w.routes = w.Table.Index()
	return w
}

// scaledCount applies Scale with round-half-up and a floor of 1.
func (w *World) scaledCount(paperCount int) int {
	n := int(math.Round(float64(paperCount) * w.Params.Scale))
	if n < 1 {
		n = 1
	}
	return n
}

// buildClientUniverse allocates client ASes, their prefixes, announcements
// and populations.
func (w *World) buildClientUniverse() {
	alloc := newAllocator(reservedV4())
	type groupSpec struct {
		group   ServeGroup
		asnBase uint32
		count   int
		pop     int64
		expBase int // per-AS /24 count is 2^(expBase + jitter), jitter ∈ {0,1,2}
	}
	specs := []groupSpec{
		{GroupAkamaiOnly, asnBaseAkamaiOnly, w.scaledCount(paperAkamaiOnlyASes), int64(float64(paperAkamaiOnlyPop) * w.Params.Scale), 4},
		{GroupAppleOnly, asnBaseAppleOnly, w.scaledCount(paperAppleOnlyASes), int64(float64(paperAppleOnlyPop) * w.Params.Scale), 2},
		{GroupBoth, asnBaseBoth, w.scaledCount(paperBothASes), int64(float64(paperBothPop) * w.Params.Scale), 8},
	}
	for _, spec := range specs {
		w.clientRuns = append(w.clientRuns, clientRun{base: bgp.ASN(spec.asnBase), start: len(w.ClientASes), count: spec.count})
		ases := make([]bgp.ASN, 0, spec.count)
		for i := 0; i < spec.count; i++ {
			asn := bgp.ASN(spec.asnBase + uint32(i))
			jitter := int(iputil.Mix(w.seed, uint64(asn)) % 3)
			exp := spec.expBase + jitter // /24 count = 2^exp

			// Like real networks, a share of ASes announce their space as
			// several discontiguous prefixes: ~25 % split in two, ~8 % in
			// four (power-of-two pieces keep per-prefix sizes aligned).
			splits := 1
			sh := iputil.Mix(w.seed^0x59117, uint64(asn)) % 100
			switch {
			case exp >= 4 && sh < 8:
				splits = 4
			case exp >= 2 && sh < 25:
				splits = 2
			}
			perExp := exp
			for s := splits; s > 1; s /= 2 {
				perExp--
			}

			prefixes := make([]netip.Prefix, 0, splits)
			for s := 0; s < splits; s++ {
				pfx := alloc.alloc(24 - perExp)
				w.Table.Announce(pfx, asn)
				prefixes = append(prefixes, pfx)
			}
			w.ClientASes = append(w.ClientASes, ClientAS{
				ASN:      asn,
				Group:    spec.group,
				Prefixes: prefixes,
				Slash24s: 1 << exp,
			})
			ases = append(ases, asn)
		}
		w.Pop.AssignZipf(ases, spec.pop, fmt.Sprintf("pop:%d:%d", w.seed, spec.group))
	}
}

// Service block layout. AkamaiPR's prefix counts reproduce §6 of the
// paper: 478 IPv4 + 1335 IPv6 announced prefixes; 301 (v4) + 1172 (v6)
// host egress subnets, 100 (v4) + 101 (v6) host ingress relays, and the
// rest are unused, giving 1673/1813 = 92.3 % prefix utilization.
const (
	akamaiPRv4Total   = 478
	akamaiPRv4Egress  = 301
	akamaiPRv4Ingress = 100

	akamaiPRv6Total   = 1335
	akamaiPRv6Egress  = 1172
	akamaiPRv6Ingress = 101

	appleV4IngressPrefixes = 23 // + AkamaiPR's 100 = 123 routed v4 ingress prefixes
	appleV6IngressPrefixes = 16

	cloudflareV4Prefixes = 112
	fastlyV4Prefixes     = 81
	fastlyV6Prefixes     = 81
)

func (w *World) buildServicePrefixes() {
	announce := func(as bgp.ASN, ps []netip.Prefix) {
		for _, p := range ps {
			w.Table.Announce(p, as)
		}
	}

	// AkamaiPR IPv4: 256 /20s from 172.224.0.0/12, 222 /20s from 23.32.0.0/11.
	akPR4 := carve(netip.MustParsePrefix("172.224.0.0/12"), 20, 256)
	akPR4 = append(akPR4, carve(netip.MustParsePrefix("23.32.0.0/11"), 20, akamaiPRv4Total-256)...)
	w.egressPfx[serviceKey{ASAkamaiPR, FamilyV4}] = akPR4[:akamaiPRv4Egress]
	w.ingressPfx[serviceKey{ASAkamaiPR, FamilyV4}] = akPR4[akamaiPRv4Egress : akamaiPRv4Egress+akamaiPRv4Ingress]
	w.unusedPfx[serviceKey{ASAkamaiPR, FamilyV4}] = akPR4[akamaiPRv4Egress+akamaiPRv4Ingress:]
	announce(ASAkamaiPR, akPR4)

	// AkamaiPR IPv6: 1335 /48s from 2a02:26f7::/32.
	akPR6 := carve(netip.MustParsePrefix("2a02:26f7::/32"), 48, akamaiPRv6Total)
	w.egressPfx[serviceKey{ASAkamaiPR, FamilyV6}] = akPR6[:akamaiPRv6Egress]
	w.ingressPfx[serviceKey{ASAkamaiPR, FamilyV6}] = akPR6[akamaiPRv6Egress : akamaiPRv6Egress+akamaiPRv6Ingress]
	w.unusedPfx[serviceKey{ASAkamaiPR, FamilyV6}] = akPR6[akamaiPRv6Egress+akamaiPRv6Ingress:]
	announce(ASAkamaiPR, akPR6)

	// Apple ingress: 23 /16s from 17.0.0.0/8, 16 /40s from 2620:149::/32.
	apple4 := carve(netip.MustParsePrefix("17.0.0.0/8"), 16, appleV4IngressPrefixes)
	w.ingressPfx[serviceKey{ASApple, FamilyV4}] = apple4
	announce(ASApple, apple4)
	apple6 := carve(netip.MustParsePrefix("2620:149::/32"), 40, appleV6IngressPrefixes)
	w.ingressPfx[serviceKey{ASApple, FamilyV6}] = apple6
	announce(ASApple, apple6)

	// AkamaiEdge egress: a single BGP prefix per family (Table 3).
	edge4 := []netip.Prefix{netip.MustParsePrefix("2.16.0.0/13")}
	edge6 := []netip.Prefix{netip.MustParsePrefix("2600:1400::/28")}
	w.egressPfx[serviceKey{ASAkamaiEdge, FamilyV4}] = edge4
	w.egressPfx[serviceKey{ASAkamaiEdge, FamilyV6}] = edge6
	announce(ASAkamaiEdge, edge4)
	announce(ASAkamaiEdge, edge6)

	// Cloudflare egress: 112 v4 prefixes, 2 v6 prefixes (Table 3).
	cf4 := carve(netip.MustParsePrefix("104.16.0.0/12"), 20, cloudflareV4Prefixes)
	cf6 := []netip.Prefix{
		netip.MustParsePrefix("2606:4700::/32"),
		netip.MustParsePrefix("2a06:98c0::/29"),
	}
	w.egressPfx[serviceKey{ASCloudflare, FamilyV4}] = cf4
	w.egressPfx[serviceKey{ASCloudflare, FamilyV6}] = cf6
	announce(ASCloudflare, cf4)
	announce(ASCloudflare, cf6)

	// Fastly egress: 81 v4 prefixes, 81 v6 prefixes (Table 3).
	fast4 := carve(netip.MustParsePrefix("151.101.0.0/16"), 22, 64)
	fast4 = append(fast4, carve(netip.MustParsePrefix("199.232.0.0/16"), 22, fastlyV4Prefixes-64)...)
	fast6 := carve(netip.MustParsePrefix("2a04:4e40::/32"), 40, fastlyV6Prefixes)
	w.egressPfx[serviceKey{ASFastly, FamilyV4}] = fast4
	w.egressPfx[serviceKey{ASFastly, FamilyV6}] = fast6
	announce(ASFastly, fast4)
	announce(ASFastly, fast6)
}

// carve returns the first n subnets of the given length inside block.
func carve(block netip.Prefix, bits, n int) []netip.Prefix {
	if uint64(n) > iputil.SubnetCount(block, bits) {
		panic(fmt.Sprintf("netsim: cannot carve %d /%d from %v", n, bits, block))
	}
	out := make([]netip.Prefix, n)
	for i := 0; i < n; i++ {
		out[i] = iputil.NthSubnet(block, bits, uint64(i))
	}
	return out
}

// buildHistory records service-AS visibility from 2016-01 through 2022-06.
// AkamaiPR first appears 2021-06, coinciding with the PR announcement.
func (w *World) buildHistory() {
	start := bgp.Month{Year: 2016, M: 1}
	end := bgp.Month{Year: 2022, M: 7}
	prFirst := bgp.Month{Year: 2021, M: 6}
	for m := start; m.Before(end); m = m.Next() {
		for _, as := range []bgp.ASN{ASApple, ASAkamaiEdge, ASCloudflare, ASFastly} {
			w.History.Record(m, as)
		}
		if !m.Before(prFirst) {
			w.History.Record(m, ASAkamaiPR)
		}
	}
}

// IngressPrefixes returns the routed prefixes hosting ingress relays for
// the operator and family.
func (w *World) IngressPrefixes(as bgp.ASN, fam Family) []netip.Prefix {
	return w.ingressPfx[serviceKey{as, fam}]
}

// EgressPrefixes returns the routed prefixes hosting egress subnets for
// the operator and family.
func (w *World) EgressPrefixes(as bgp.ASN, fam Family) []netip.Prefix {
	return w.egressPfx[serviceKey{as, fam}]
}

// UnusedPrefixes returns announced prefixes of the operator that host
// neither ingress nor egress relays (the 7.8 % in the §6 audit).
func (w *World) UnusedPrefixes(as bgp.ASN, fam Family) []netip.Prefix {
	return w.unusedPfx[serviceKey{as, fam}]
}

// RoutedV4Prefixes returns every announced IPv4 prefix — the scan universe
// for the ECS enumeration (§7: unrouted space is skipped).
func (w *World) RoutedV4Prefixes() []netip.Prefix {
	var out []netip.Prefix
	w.Table.Walk(func(a bgp.Announcement) bool {
		if a.Prefix.Addr().Is4() {
			out = append(out, a.Prefix)
		}
		return true
	})
	return out
}

// ClientSlash24Count returns the total number of routed client /24s.
func (w *World) ClientSlash24Count() int {
	n := 0
	for _, c := range w.ClientASes {
		n += c.Slash24s
	}
	return n
}

// ClientOf returns the client AS record owning addr, if any.
func (w *World) ClientOf(addr netip.Addr) (ClientAS, bool) {
	as, ok := w.Table.Origin(addr)
	if !ok {
		return ClientAS{}, false
	}
	idx, ok := w.clientIndex(as)
	if !ok {
		return ClientAS{}, false
	}
	return w.ClientASes[idx], true
}

// clientIndex maps a client ASN back to its slice index, by arithmetic
// on the serve group's run rather than a hash probe: it runs once per
// answered query.
func (w *World) clientIndex(as bgp.ASN) (int, bool) {
	for _, r := range w.clientRuns {
		if off := as - r.base; off < bgp.ASN(r.count) {
			return r.start + int(off), true
		}
	}
	return 0, false
}

// IsServiceAS reports whether as is one of the five operator ASes.
func IsServiceAS(as bgp.ASN) bool {
	switch as {
	case ASApple, ASAkamaiPR, ASAkamaiEdge, ASCloudflare, ASFastly:
		return true
	}
	return false
}
