package trace

import (
	"net/netip"
	"testing"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/colstore"
	"github.com/relay-networks/privaterelay/internal/egress"
	"github.com/relay-networks/privaterelay/internal/netsim"
)

func setup(t testing.TB) (*netsim.World, map[netip.Addr]bgp.ASN, []egress.Attributed) {
	t.Helper()
	w := netsim.NewWorld(netsim.Params{Seed: 14, Scale: 0.0005})
	ingress := w.FleetUnion(netsim.MonthApr, netsim.ProtoDefault, netsim.FamilyV4, 0)
	list := egress.Generate(w, 14)
	return w, ingress, egress.AttributeN(list, w.Table, 0)
}

// addrsOf lists the addresses of a ground-truth fleet map that as
// originates.
func addrsOf(fleet map[netip.Addr]bgp.ASN, as bgp.ASN) []netip.Addr {
	var out []netip.Addr
	for a, origin := range fleet {
		if origin == as {
			out = append(out, a)
		}
	}
	return out
}

func TestSharedOperatorsIsAkamaiPR(t *testing.T) {
	_, ingress, attributed := setup(t)
	cs := &colstore.Dataset{}
	for a, as := range ingress {
		cs.AppendAddr(a, as)
	}
	if err := cs.Normalize(); err != nil {
		t.Fatal(err)
	}
	shared := SharedOperators(cs, attributed)
	if len(shared) != 1 || shared[0] != netsim.ASAkamaiPR {
		t.Fatalf("shared operators = %v, want exactly AkamaiPR", shared)
	}
}

func TestLastHopCorrelationFindsSharedRouters(t *testing.T) {
	w, ingress, attributed := setup(t)
	vantage := w.ClientASes[0].Prefixes[0].Addr().Next()

	var ingressAddrs []netip.Addr
	for a, as := range ingress {
		if as == netsim.ASAkamaiPR {
			ingressAddrs = append(ingressAddrs, a)
		}
	}
	var egressAddrs []netip.Addr
	for _, a := range attributed {
		if a.AS == netsim.ASAkamaiPR && a.Prefix.Addr().Is4() {
			egressAddrs = append(egressAddrs, a.Prefix.Addr().Next())
			if len(egressAddrs) >= 500 {
				break
			}
		}
	}
	pairs := LastHopCorrelation(w, vantage, ingressAddrs, egressAddrs, 10)
	if len(pairs) == 0 {
		t.Fatal("no shared last-hop pairs found; §6 correlation unreproducible")
	}
	for _, p := range pairs {
		ri, _ := w.LastHopBeforeDest(vantage, p.Ingress)
		re, _ := w.LastHopBeforeDest(vantage, p.Egress)
		if ri != re || ri != p.Router {
			t.Fatalf("pair %+v does not actually share a last hop (%v vs %v)", p, ri, re)
		}
	}
}

func TestLastHopCorrelationAcrossOperatorsEmpty(t *testing.T) {
	w, ingress, attributed := setup(t)
	vantage := w.ClientASes[0].Prefixes[0].Addr().Next()
	// Apple ingress vs Cloudflare egress must never share a last hop:
	// the router pools are disjoint per operator.
	var ingressAddrs []netip.Addr
	for a, as := range ingress {
		if as == netsim.ASApple {
			ingressAddrs = append(ingressAddrs, a)
		}
	}
	var egressAddrs []netip.Addr
	for _, a := range attributed {
		if a.AS == netsim.ASCloudflare && a.Prefix.Addr().Is4() {
			egressAddrs = append(egressAddrs, a.Prefix.Addr())
			if len(egressAddrs) >= 200 {
				break
			}
		}
	}
	if pairs := LastHopCorrelation(w, vantage, ingressAddrs, egressAddrs, 0); len(pairs) != 0 {
		t.Fatalf("cross-operator last-hop sharing: %v", pairs)
	}
}

func TestPrefixUtilizationAudit(t *testing.T) {
	w, ingress, attributed := setup(t)
	u := AuditPrefixUtilization(w, netsim.ASAkamaiPR, addrsOf(ingress, netsim.ASAkamaiPR), attributed)
	if u.AnnouncedV4 != 478 || u.AnnouncedV6 != 1335 {
		t.Fatalf("announced = %d/%d, want 478/1335", u.AnnouncedV4, u.AnnouncedV6)
	}
	if u.EgressPrefixes != 301+1172 {
		t.Fatalf("egress prefixes = %d, want 1473", u.EgressPrefixes)
	}
	// The IPv4 default+fallback fleets cover most of the 100 ingress
	// prefixes; IPv6 ingress prefixes are invisible to this v4 dataset.
	if u.IngressPrefixes == 0 || u.IngressPrefixes > 100 {
		t.Fatalf("ingress prefixes = %d, want ∈ (0, 100]", u.IngressPrefixes)
	}
	// Used share approaches the paper's 92.2 % once both families of
	// ingress datasets are merged; with v4-only ingress it still clears
	// 85 %.
	if u.UsedShare() < 80 {
		t.Fatalf("used share = %.1f%%", u.UsedShare())
	}
	if u.String() == "" {
		t.Fatal("empty audit string")
	}
}

func TestPrefixUtilizationWithV6Ingress(t *testing.T) {
	w, ingress, attributed := setup(t)
	// Merge a v6 ingress dataset (from the Atlas AAAA view): take the
	// ground-truth fleet as the best case.
	v6 := w.IngressFleet(netsim.ASAkamaiPR, netsim.MonthApr, netsim.ProtoDefault, netsim.FamilyV6, 0)
	fallback := w.FleetUnion(netsim.MonthApr, netsim.ProtoFallback, netsim.FamilyV4, 0)
	audited := append(addrsOf(ingress, netsim.ASAkamaiPR), addrsOf(fallback, netsim.ASAkamaiPR)...)
	u := AuditPrefixUtilization(w, netsim.ASAkamaiPR, append(audited, v6...), attributed)
	// §6: 92.2 % of announced prefixes used.
	if u.UsedShare() < 88 || u.UsedShare() > 95 {
		t.Fatalf("used share = %.1f%%, want ≈92.2%%", u.UsedShare())
	}
}

func TestFirstSeen(t *testing.T) {
	w, _, _ := setup(t)
	m, ok := FirstSeen(w, netsim.ASAkamaiPR)
	if !ok || m != (bgp.Month{Year: 2021, M: 6}) {
		t.Fatalf("FirstSeen = %v,%v want 2021-06", m, ok)
	}
}
