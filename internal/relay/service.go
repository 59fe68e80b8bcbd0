package relay

import (
	"fmt"
	"net"
	"net/netip"
	"sync"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/masque"
	"github.com/relay-networks/privaterelay/internal/netsim"
)

// Directory maps simulated relay addresses to real loopback listeners.
// It plays the role of the routing fabric: a client that resolved a
// simulated ingress address asks the directory where to actually connect.
type Directory struct {
	mu sync.RWMutex
	m  map[netip.Addr]string
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{m: make(map[netip.Addr]string)}
}

// Register maps a simulated address to a listener's "host:port".
func (d *Directory) Register(sim netip.Addr, real string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.m[sim] = real
}

// RegisterAll maps many simulated addresses to one listener.
func (d *Directory) RegisterAll(sims []netip.Addr, real string) {
	for _, a := range sims {
		d.Register(a, real)
	}
}

// Resolve returns the real endpoint for a simulated address.
func (d *Directory) Resolve(sim netip.Addr) (string, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	real, ok := d.m[sim]
	return real, ok
}

// Service is a running Private Relay instance on loopback: one ingress
// listener standing in for whichever ingress address the client resolved,
// plus one egress listener per eligible operator, each rotating through
// the client location's address pool.
type Service struct {
	Deployment *Deployment
	Directory  *Directory
	Issuer     *masque.TokenIssuer
	// EgressAddrOf maps operator → the advertised egress endpoint.
	EgressAddrOf map[bgp.ASN]string
	// IngressEndpoint is the real ingress listener address.
	IngressEndpoint string

	ingress *masque.Ingress
	egress  map[bgp.ASN]*masque.Egress
	lns     []net.Listener
}

// ServiceConfig tunes StartService.
type ServiceConfig struct {
	// Client is the simulated client address the service is provisioned
	// for (egress pools are location-dependent).
	Client netip.Addr
	// Month selects the ingress fleet to register in the directory.
	Month bgp.Month
	// Rotation overrides the per-operator rotation policy; nil uses
	// PerConnectionRotation over the location pool (the real behaviour).
	Rotation func(pool []netip.Addr) masque.RotationPolicy
	// Seed feeds rotation determinism.
	Seed uint64
}

// StartService launches the relay on loopback listeners and registers all
// simulated ingress addresses of the month (both planes, v4) in the
// directory. Close must be called to release listeners.
func StartService(dep *Deployment, cfg ServiceConfig) (*Service, error) {
	svc := &Service{
		Deployment:   dep,
		Directory:    NewDirectory(),
		Issuer:       masque.NewTokenIssuer("relay-service-secret", 100),
		EgressAddrOf: make(map[bgp.ASN]string),
		egress:       make(map[bgp.ASN]*masque.Egress),
	}
	rotation := cfg.Rotation
	if rotation == nil {
		rotation = func(pool []netip.Addr) masque.RotationPolicy {
			return &masque.PerConnectionRotation{Pool: pool, Seed: cfg.Seed}
		}
	}

	// One egress listener per operator present at the client location.
	for _, as := range dep.OperatorsAt(cfg.Client) {
		pool := dep.EgressPool(cfg.Client, as)
		if len(pool) == 0 {
			continue
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			svc.Close()
			return nil, fmt.Errorf("relay: egress listener: %w", err)
		}
		eg := &masque.Egress{
			ID:       masque.EgressIDForAddr(ln.Addr().String()),
			Rotation: rotation(pool),
		}
		go eg.Serve(ln)
		svc.lns = append(svc.lns, ln)
		svc.egress[as] = eg
		svc.EgressAddrOf[as] = ln.Addr().String()
	}

	// A single ingress listener stands in for every simulated ingress
	// address; the directory maps them all here.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("relay: ingress listener: %w", err)
	}
	svc.ingress = &masque.Ingress{Validator: svc.Issuer}
	go svc.ingress.Serve(ln)
	svc.lns = append(svc.lns, ln)
	svc.IngressEndpoint = ln.Addr().String()

	for _, proto := range []netsim.Proto{netsim.ProtoDefault, netsim.ProtoFallback} {
		for _, as := range []bgp.ASN{netsim.ASApple, netsim.ASAkamaiPR} {
			fleet := dep.World.IngressFleet(as, cfg.Month, proto, netsim.FamilyV4, 0)
			svc.Directory.RegisterAll(fleet, svc.IngressEndpoint)
		}
	}
	return svc, nil
}

// Close shuts every listener down.
func (s *Service) Close() {
	for _, ln := range s.lns {
		ln.Close()
	}
}
