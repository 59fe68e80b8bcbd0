// Package trace implements the §6 correlation analysis: identifying
// operators that host both ingress and egress relays, verifying via
// traceroute that ingress and egress addresses can sit behind the same
// last-hop router, auditing AkamaiPR's prefix utilization (92.2 % of its
// announced prefixes carry relay infrastructure), and dating the AS's
// first BGP appearance to the service launch.
package trace

import (
	"fmt"
	"net/netip"
	"sort"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/colstore"
	"github.com/relay-networks/privaterelay/internal/egress"
	"github.com/relay-networks/privaterelay/internal/netsim"
)

// SharedOperators returns the ASes that originate at least one ingress
// address and at least one egress subnet — the structural precondition
// for the traffic-correlation concern.
func SharedOperators(ingress *colstore.Dataset, attributed []egress.Attributed) []bgp.ASN {
	ingressASes := ingress.OperatorCounts()
	shared := map[bgp.ASN]bool{}
	for _, a := range attributed {
		if ingressASes[a.AS] > 0 {
			shared[a.AS] = true
		}
	}
	out := make([]bgp.ASN, 0, len(shared))
	for as := range shared {
		out = append(out, as)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LastHopPair is an ingress/egress address pair sharing a last hop.
type LastHopPair struct {
	Ingress netip.Addr
	Egress  netip.Addr
	Router  netsim.RouterID
}

// LastHopCorrelation traceroutes from a vantage to ingress and egress
// addresses of one AS and reports pairs that share the last hop before
// the destination — the paper's validation of the correlation risk.
func LastHopCorrelation(w *netsim.World, vantage netip.Addr, ingressAddrs, egressAddrs []netip.Addr, limit int) []LastHopPair {
	ingressBy := map[netsim.RouterID][]netip.Addr{}
	for _, a := range ingressAddrs {
		if r, ok := w.LastHopBeforeDest(vantage, a); ok {
			ingressBy[r] = append(ingressBy[r], a)
		}
	}
	var pairs []LastHopPair
	for _, e := range egressAddrs {
		r, ok := w.LastHopBeforeDest(vantage, e)
		if !ok {
			continue
		}
		for _, i := range ingressBy[r] {
			pairs = append(pairs, LastHopPair{Ingress: i, Egress: e, Router: r})
			if limit > 0 && len(pairs) >= limit {
				return pairs
			}
		}
	}
	return pairs
}

// PrefixUtilization is the §6 audit of one AS's announced prefixes.
type PrefixUtilization struct {
	AS              bgp.ASN
	AnnouncedV4     int
	AnnouncedV6     int
	IngressPrefixes int // prefixes containing ≥1 ingress relay (v4+v6)
	EgressPrefixes  int // prefixes containing ≥1 egress subnet (v4+v6)
	UnusedPrefixes  int
}

// Announced returns the total announced prefix count.
func (u PrefixUtilization) Announced() int { return u.AnnouncedV4 + u.AnnouncedV6 }

// UsedShare returns the share of announced prefixes carrying relay
// infrastructure, in percent.
func (u PrefixUtilization) UsedShare() float64 {
	if u.Announced() == 0 {
		return 0
	}
	return float64(u.IngressPrefixes+u.EgressPrefixes) / float64(u.Announced()) * 100
}

// String renders the audit row.
func (u PrefixUtilization) String() string {
	return fmt.Sprintf("%s: %d v4 + %d v6 announced; ingress in %d, egress in %d, unused %d (%.1f%% used)",
		netsim.ASName(u.AS), u.AnnouncedV4, u.AnnouncedV6, u.IngressPrefixes, u.EgressPrefixes,
		u.UnusedPrefixes, u.UsedShare())
}

// AuditPrefixUtilization measures which of an AS's announced prefixes
// contain ingress relays or egress subnets (from the attributed list).
// ingress lists the AS's ingress addresses, from any mix of datasets and
// fleets; repeats are harmless. Ingress and egress never share a prefix
// in the deployment, so the three buckets partition the announcements.
func AuditPrefixUtilization(w *netsim.World, as bgp.ASN, ingress []netip.Addr, attributed []egress.Attributed) PrefixUtilization {
	u := PrefixUtilization{AS: as}
	ingressPfx := map[netip.Prefix]bool{}
	for _, addr := range ingress {
		if route, _, ok := w.Table.Route(addr); ok {
			ingressPfx[route] = true
		}
	}
	egressPfx := map[netip.Prefix]bool{}
	for _, a := range attributed {
		if a.AS == as && a.BGPPrefix.IsValid() {
			egressPfx[a.BGPPrefix] = true
		}
	}
	for _, p := range w.Table.PrefixesOf(as) {
		if p.Addr().Is4() {
			u.AnnouncedV4++
		} else {
			u.AnnouncedV6++
		}
		switch {
		case ingressPfx[p]:
			u.IngressPrefixes++
		case egressPfx[p]:
			u.EgressPrefixes++
		default:
			u.UnusedPrefixes++
		}
	}
	return u
}

// FirstSeen reports when an AS first appeared in the monthly BGP archive.
func FirstSeen(w *netsim.World, as bgp.ASN) (bgp.Month, bool) {
	return w.History.FirstSeen(as)
}
