package relay

import (
	"context"
	"errors"
	"fmt"
	"net/netip"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/masque"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/resolver"
)

// ErrServiceBlocked is returned when the relay domains cannot be resolved
// — the documented way to block the service (§2).
var ErrServiceBlocked = errors.New("relay: service domains not resolvable")

// Device models a macOS/iOS client with iCloud Private Relay enabled:
// it resolves the service domains through its configured resolver,
// connects to the resolved ingress, and tunnels requests to rotating
// egress addresses.
type Device struct {
	// Client is the device's simulated public address.
	Client netip.Addr
	// Resolver is the device's configured DNS resolver. Pointing it at a
	// local unbound with a custom zone forces a chosen ingress (§3).
	Resolver *resolver.Resolver
	// Service is the running relay deployment.
	Service *Service
	// Account and Day feed the token issuer's fraud-prevention quota.
	Account string
	Day     string

	seq uint64
}

// Tunnel is one established relay connection.
type Tunnel struct {
	*masque.Client
	// IngressAddr is the simulated ingress address the device resolved.
	IngressAddr netip.Addr
	// IngressAS attributes the ingress address.
	IngressAS bgp.ASN
	// Operator is the egress operator serving this tunnel.
	Operator bgp.ASN
	// Plane records whether the QUIC service or the TCP fallback is used.
	Plane netsim.Proto
	// BackupTarget is the additional connection target observed in
	// Appendix B: an address in the same prefix as the ingress.
	BackupTarget netip.Addr
}

// Connect establishes a fresh tunnel: DNS resolution (default plane with
// TCP-fallback), directory lookup, operator selection, token issuance and
// the MASQUE handshake.
func (d *Device) Connect(ctx context.Context) (*Tunnel, error) {
	plane := netsim.ProtoDefault
	addrs, err := d.resolveIngress(ctx, dnsserver.MaskDomain)
	if err != nil || len(addrs) == 0 {
		// QUIC plane unusable: fall back to HTTP/2 over TCP (§2).
		plane = netsim.ProtoFallback
		addrs, err = d.resolveIngress(ctx, dnsserver.MaskH2Domain)
		if err != nil {
			return nil, err
		}
		if len(addrs) == 0 {
			return nil, ErrServiceBlocked
		}
	}
	// Devices spread load over the answer set; pick deterministically by
	// connection sequence.
	ingressSim := addrs[iputil.Mix(iputil.HashAddr(d.Client), d.seq)%uint64(len(addrs))]
	real, ok := d.Service.Directory.Resolve(ingressSim)
	if !ok {
		return nil, fmt.Errorf("relay: resolved ingress %v not in directory", ingressSim)
	}

	dep := d.Service.Deployment
	op := dep.SelectOperator(d.Client, d.seq)
	egressReal, ok := d.Service.EgressAddrOf[op]
	if !ok {
		// Operator has no egress pool here after all; use the first
		// eligible operator that does, in OperatorsAt order.
		for _, as := range dep.OperatorsAt(d.Client) {
			if addr, ok := d.Service.EgressAddrOf[as]; ok {
				op, egressReal = as, addr
				break
			}
		}
	}
	d.seq++

	token, err := d.Service.Issuer.Issue(d.Account, d.Day)
	if err != nil {
		return nil, fmt.Errorf("relay: token issuance: %w", err)
	}

	mc := &masque.Client{
		IngressAddr: real,
		EgressAddr:  egressReal,
		Token:       token,
		Geohash:     dep.ClientGeohash(d.Client),
	}
	if err := mc.Dial(); err != nil {
		return nil, err
	}

	ingressAS, _ := dep.World.Table.Origin(ingressSim)
	backup, _ := dep.BackupConnectionTarget(ingressSim)
	return &Tunnel{
		Client:       mc,
		IngressAddr:  ingressSim,
		IngressAS:    ingressAS,
		Operator:     op,
		Plane:        plane,
		BackupTarget: backup,
	}, nil
}

// resolveIngress resolves one service domain, distinguishing blocking
// responses from transport errors.
func (d *Device) resolveIngress(ctx context.Context, domain string) ([]netip.Addr, error) {
	addrs, rcode, err := d.Resolver.ResolveA(ctx, domain, d.Client)
	if err != nil {
		if errors.Is(err, dnsserver.ErrTimeout) {
			return nil, ErrServiceBlocked
		}
		return nil, err
	}
	if rcode != dnswire.RCodeNoError {
		return nil, ErrServiceBlocked
	}
	return addrs, nil
}

// ODoHResolver returns the DNS-over-HTTPS resolver the device uses while
// the relay is active — Cloudflare's public resolver, reached through the
// relay itself rather than the locally configured resolver (Appendix B).
func (d *Device) ODoHResolver() resolver.PublicResolver {
	for _, pr := range resolver.PublicResolvers {
		if pr.Name == "Cloudflare1111" {
			return pr
		}
	}
	return resolver.PublicResolvers[0]
}

// ODoHQueryECS returns the ECS prefix the client attaches to relay-side
// DNS queries: the /24 (or /64) around its current egress address, so the
// authoritative side optimizes for the egress, not the client (App. B).
func ODoHQueryECS(egressAddr netip.Addr) netip.Prefix {
	egressAddr = iputil.Canonical(egressAddr)
	if egressAddr.Is4() {
		return iputil.Slash24(egressAddr)
	}
	return iputil.Slash64(egressAddr)
}
