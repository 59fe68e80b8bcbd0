// Package relay assembles the full iCloud Private Relay deployment from
// the substrates: the world's ingress fleets, the egress list's address
// pools, operator selection at a client location, and a Device type
// modeling the macOS client the paper measured from (§3, §4.3, App. B).
package relay

import (
	"net/netip"
	"slices"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/egress"
	"github.com/relay-networks/privaterelay/internal/geo"
	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/workpool"
)

// EgressOperators lists the ASes operating egress relays.
var EgressOperators = []bgp.ASN{netsim.ASAkamaiPR, netsim.ASAkamaiEdge, netsim.ASCloudflare, netsim.ASFastly}

// Deployment joins a world with an egress list and answers placement
// questions: which operators serve a location, and with which addresses.
type Deployment struct {
	World *netsim.World
	List  *egress.List

	// byOpCC indexes IPv4 egress entries per (operator, country).
	byOpCC     map[opCC][]egress.Entry
	geoDB      *geo.DB
	attributed []egress.Attributed
}

type opCC struct {
	as bgp.ASN
	cc string
}

// NewDeployment indexes the egress list against the world. The geo
// database and the attribution join both only read the list, so they
// build at once as two items of one fan-out.
func NewDeployment(w *netsim.World, list *egress.List) *Deployment {
	d := &Deployment{World: w, List: list}
	workpool.Run(2, 1, 0, func(_, i, _ int) {
		if i == 0 {
			d.geoDB = list.GeoDB()
			return
		}
		d.attributed = egress.AttributeN(list, w.Table, 0)
		d.byOpCC = make(map[opCC][]egress.Entry)
		for _, a := range d.attributed {
			if a.AS == 0 || !a.Prefix.Addr().Is4() {
				continue
			}
			key := opCC{a.AS, a.CC}
			d.byOpCC[key] = append(d.byOpCC[key], a.Entry)
		}
		// An operator's subnets are disjoint, so ordering by address
		// alone is total.
		for _, es := range d.byOpCC {
			slices.SortFunc(es, func(a, b egress.Entry) int {
				return a.Prefix.Addr().Compare(b.Prefix.Addr())
			})
		}
	})
	return d
}

// GeoDB returns the MaxMind-style database derived from the egress list.
func (d *Deployment) GeoDB() *geo.DB { return d.geoDB }

// Attributed returns the egress list joined with the world's routing
// table, computed once when the deployment was built. Callers must not
// modify it.
func (d *Deployment) Attributed() []egress.Attributed { return d.attributed }

// ClientCountry returns the country the service would assign to a client
// address: deterministic per client AS, biased toward the big markets.
func (d *Deployment) ClientCountry(client netip.Addr) string {
	as, ok := d.World.Table.Origin(client)
	if !ok {
		return "US"
	}
	h := iputil.Mix(uint64(as), 0xC0FFEE)
	// Client population skews to large markets, mirroring the egress bias.
	switch {
	case h%100 < 45:
		return "US"
	case h%100 < 55:
		return "DE"
	default:
		big := []string{"GB", "FR", "NL", "CA", "JP", "AU", "BR", "IN", "IT", "ES"}
		return big[h/100%uint64(len(big))]
	}
}

// ClientGeohash returns the coarse geohash the client forwards to the
// egress in region-preserving mode: precision 4 (~±20 km cell).
func (d *Deployment) ClientGeohash(client netip.Addr) string {
	cc := d.ClientCountry(client)
	lat, lon := geo.Centroid(cc)
	return geo.EncodeGeohash(lat, lon, 4)
}

// OperatorsAt returns the egress operators with enough presence near the
// client to be eligible. AkamaiPR and Cloudflare are near-ubiquitous;
// Fastly's sparse deployment (the paper's vantage never saw it) and
// AkamaiEdge appear only for a minority of locations.
func (d *Deployment) OperatorsAt(client netip.Addr) []bgp.ASN {
	out := []bgp.ASN{netsim.ASAkamaiPR, netsim.ASCloudflare}
	as, ok := d.World.Table.Origin(client)
	if !ok {
		return out
	}
	h := iputil.Mix(uint64(as), 0xFA5711)
	if h%5 == 0 {
		out = append(out, netsim.ASFastly)
	}
	if h%7 == 0 {
		out = append(out, netsim.ASAkamaiEdge)
	}
	return out
}

// SelectOperator picks the egress operator for the seq-th tunnel from a
// client. Selection is sticky with occasional switch windows, producing
// the Figure 3 pattern: long stable runs with a handful of grouped
// operator changes over a scan day.
func (d *Deployment) SelectOperator(client netip.Addr, seq uint64) bgp.ASN {
	ops := d.OperatorsAt(client)
	base := ops[iputil.Mix(iputil.HashAddr(client), 0xBA5E)%uint64(len(ops))]
	if len(ops) == 1 {
		return base
	}
	// Switch window: one 4-tunnel burst out of every 64 tunnels flips to
	// another eligible operator.
	if (seq/4)%16 == 7 {
		alt := ops[(iputil.Mix(iputil.HashAddr(client), seq/64)+1)%uint64(len(ops))]
		if alt != base {
			return alt
		}
		for _, op := range ops {
			if op != base {
				return op
			}
		}
	}
	return base
}

// EgressPool returns the small set of concrete egress addresses the
// operator uses for a client location: the paper observed six addresses
// drawn from four subnets over 48 hours (§4.3). Addresses come from the
// operator's egress subnets representing the client's country.
func (d *Deployment) EgressPool(client netip.Addr, as bgp.ASN) []netip.Addr {
	cc := d.ClientCountry(client)
	entries := d.byOpCC[opCC{as, cc}]
	if len(entries) == 0 {
		entries = d.byOpCC[opCC{as, "US"}] // fallback market
	}
	if len(entries) == 0 {
		return nil
	}
	const (
		subnetCount = 4
		poolSize    = 6
	)
	key := iputil.Mix(iputil.HashAddr(client), uint64(as))
	// Pick at least four distinct subnets; operators whose egress subnets
	// are tiny (Cloudflare lists /32s) contribute more subnets until the
	// combined capacity covers the pool.
	subnets := make([]egress.Entry, 0, subnetCount)
	seen := map[netip.Prefix]bool{}
	capacity := uint64(0)
	for k := 0; (len(subnets) < subnetCount || capacity < poolSize) && k < 16*poolSize; k++ {
		e := entries[iputil.Mix(key, uint64(k))%uint64(len(entries))]
		if !seen[e.Prefix] {
			seen[e.Prefix] = true
			subnets = append(subnets, e)
			capacity += iputil.AddrCount(e.Prefix)
		}
		if len(subnets) >= len(entries) {
			break
		}
	}
	// Draw six addresses round-robin across the subnets.
	pool := make([]netip.Addr, 0, poolSize)
	used := map[netip.Addr]bool{}
	for i := 0; len(pool) < poolSize && i < 8*poolSize; i++ {
		e := subnets[i%len(subnets)]
		n := iputil.AddrCount(e.Prefix)
		addr := iputil.AddrAtIndex(e.Prefix, iputil.Mix(key, 0x100+uint64(i))%n)
		if !used[addr] {
			used[addr] = true
			pool = append(pool, addr)
		}
	}
	return pool
}

// IngressFor resolves the ingress addresses a client would receive for a
// month and plane, exactly as the authoritative server would answer.
func (d *Deployment) IngressFor(client netip.Addr, month bgp.Month, proto netsim.Proto) []netip.Addr {
	client = iputil.Canonical(client)
	if !client.Is4() {
		return nil
	}
	return d.World.IngressAnswer(iputil.Slash24(client), month, proto)
}

// BackupConnectionTarget models the Appendix B observation: shortly after
// connecting, the client opens an additional QUIC connection to another
// address in the same prefix (v4) or AS as the configured ingress —
// assumed to be a control/management channel.
func (d *Deployment) BackupConnectionTarget(ingress netip.Addr) (netip.Addr, bool) {
	route, _, ok := d.World.Table.Route(ingress)
	if !ok {
		return netip.Addr{}, false
	}
	n := iputil.AddrCount(route)
	idx := iputil.Mix(iputil.HashAddr(ingress), 0xBAC) % n
	addr := iputil.AddrAtIndex(route, idx)
	if addr == ingress {
		addr = iputil.AddrAtIndex(route, (idx+1)%n)
	}
	return addr, true
}
