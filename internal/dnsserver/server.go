// Package dnsserver implements the authoritative DNS infrastructure the
// measurement study queries: the Route 53-style ECS-aware name server for
// the iCloud Private Relay domains, and a whoami service in the style of
// whoami.akamai.net that reveals the requesting resolver's address.
//
// Two transports are provided: a real UDP server speaking dnswire's wire
// format on a socket, and an in-memory transport for large-scale
// simulation where socket round-trips would dominate runtime. Both paths
// share the same Handler, so behaviour is identical.
package dnsserver

import (
	"net/netip"
	"sync/atomic"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/netsim"
)

// The service's domain names (§2 of the paper).
const (
	MaskDomain   = "mask.icloud.com."    // QUIC ingress
	MaskH2Domain = "mask-h2.icloud.com." // TCP-fallback ingress
	WhoamiDomain = "whoami.akamai.example."
)

// Handler answers a single DNS query arriving from the given source.
// A nil response means "drop" (the client sees a timeout).
type Handler interface {
	Handle(query *dnswire.Message, from netip.Addr) *dnswire.Message
}

// Stats counts the queries the server drops for its rate limit and those
// it answers NXDOMAIN, atomically. Answered queries are not counted:
// every scan worker would write the same cache line once per query.
type Stats struct {
	RateLimited atomic.Int64
	NXDomain    atomic.Int64
}

// AuthServer is the authoritative name server for the Private Relay zone.
//
// Every answer is synthesized in place, per query, as a pure function of
// (world, month, plane, qtype, client subnet): nothing is memoized, so a
// never-seen /24 costs the same as a repeated one. Responses are
// assembled in pooled dnswire.Message values whose answer records live in
// message-owned storage: the caller that receives a response owns all of
// it and may hand it back with dnswire.ReleaseMessage once consumed (see
// that function's ownership rules).
type AuthServer struct {
	world *netsim.World
	// month pins which scan month's fleet the server answers from.
	month bgp.Month
	// limiter is optional; nil disables rate limiting.
	limiter *RateLimiter
	// Stats exposes counters for scan instrumentation.
	Stats Stats
}

// NewAuthServer builds the authoritative server backed by a world,
// answering with the fleet of the given month. limiter may be nil.
func NewAuthServer(w *netsim.World, month bgp.Month, limiter *RateLimiter) *AuthServer {
	return &AuthServer{world: w, month: month, limiter: limiter}
}

// SetMonth repoints the server at another scan month's fleet (the
// longitudinal scans reuse one server).
func (s *AuthServer) SetMonth(m bgp.Month) { s.month = m }

// Handle implements Handler.
func (s *AuthServer) Handle(query *dnswire.Message, from netip.Addr) *dnswire.Message {
	if s.limiter != nil && !s.limiter.Allow(from) {
		s.Stats.RateLimited.Add(1)
		return nil // dropped: client times out
	}
	if len(query.Questions) != 1 {
		return s.failure(query, dnswire.RCodeFormErr)
	}
	q := query.Questions[0]

	var proto netsim.Proto
	switch servedName(q.Name) {
	case MaskDomain:
		proto = netsim.ProtoDefault
	case MaskH2Domain:
		proto = netsim.ProtoFallback
	case WhoamiDomain:
		return s.whoami(query, from)
	default:
		s.Stats.NXDomain.Add(1)
		return s.failure(query, dnswire.RCodeNXDomain)
	}

	switch q.Type {
	case dnswire.TypeA:
		return s.answerA(query, from, proto)
	case dnswire.TypeAAAA:
		return s.answerAAAA(query, from, proto)
	default:
		// Authoritative for the name but no data of this type.
		m := s.respond(query)
		m.DropEDNS()
		return m
	}
}

// servedName returns name in canonical form. A query spelled exactly as
// one of the served names — every query the scanners send — is compared
// as it is; any other spelling is lowered and dot-terminated first.
func servedName(name string) string {
	switch name {
	case MaskDomain, MaskH2Domain, WhoamiDomain:
		return name
	}
	return dnswire.CanonicalName(name)
}

// zoneName returns the canonical owner name records are served under,
// rather than echoing the query's spelling.
func zoneName(proto netsim.Proto) string {
	if proto == netsim.ProtoFallback {
		return MaskH2Domain
	}
	return MaskDomain
}

// answerA serves the ECS-aware A response: record selection and scope come
// from the world's serving assignment for the client subnet — one routing
// lookup, the picks into a stack array, the records into the message's
// own storage.
func (s *AuthServer) answerA(query *dnswire.Message, from netip.Addr, proto netsim.Proto) *dnswire.Message {
	subnet, hadECS := clientSubnet(query, from)
	m := s.respond(query)
	if !subnet.IsValid() {
		m.DropEDNS()
		return m
	}
	ac := s.world.AnswerClass(subnet, s.month, proto)
	var picks [netsim.MaxAnswerRecords]netip.Addr
	addrs := s.world.IngressAnswerFor(picks[:0], ac, s.month, proto)
	name := zoneName(proto)
	records := m.GrowAnswers(len(addrs))
	for i := range records {
		setAddrRecord(&records[i], name, dnswire.TypeA, 60, addrs[i])
	}
	if hadECS {
		// Never claim a scope wider than what was asked about... the
		// RFC permits it, and the skip optimization depends on it, so
		// the server reports the true validity prefix even when it is
		// shorter than the /24 source.
		scope := ac.Scope
		if !ac.Known {
			scope = 24
		}
		ecsEcho(m, uint8(subnet.Bits()), scope, subnet.Addr())
	} else {
		m.DropEDNS()
	}
	return m
}

// answerAAAA serves AAAA queries. Per the paper (§3), the server reports
// an ECS scope of zero for IPv6 — the answer is keyed on the resolver,
// not the client subnet, so ECS enumeration cannot work for AAAA.
func (s *AuthServer) answerAAAA(query *dnswire.Message, from netip.Addr, proto netsim.Proto) *dnswire.Message {
	var picks [netsim.MaxAnswerRecords]netip.Addr
	addrs := s.world.IngressAnswerV6(picks[:0], iputil.HashAddr(from), s.month, proto)
	m := s.respond(query)
	name := zoneName(proto)
	records := m.GrowAnswers(len(addrs))
	for i := range records {
		setAddrRecord(&records[i], name, dnswire.TypeAAAA, 60, addrs[i])
	}
	if query.Edns != nil && query.Edns.ClientSubnet != nil {
		cs := query.Edns.ClientSubnet
		// Scope zero: the answer is valid for the entire address space.
		ecsEcho(m, cs.SourcePrefixLen, 0, cs.Addr)
	} else {
		m.DropEDNS()
	}
	return m
}

// whoami answers with the requester's address as an A/AAAA record, like
// whoami.akamai.net — used to identify which resolver queries on behalf
// of a RIPE Atlas probe.
func (s *AuthServer) whoami(query *dnswire.Message, from netip.Addr) *dnswire.Message {
	q := query.Questions[0]
	m := s.respond(query)
	m.DropEDNS()
	from = iputil.Canonical(from)
	if (q.Type == dnswire.TypeA && from.Is4()) || (q.Type == dnswire.TypeAAAA && from.Is6()) {
		setAddrRecord(&m.GrowAnswers(1)[0], q.Name, q.Type, 0, from)
	}
	return m
}

// setAddrRecord fills a message-owned record in place as an address
// record. Field by field, so the answer loops copy no whole Record, and
// every field, because GrowAnswers does not zero reused storage.
func setAddrRecord(r *dnswire.Record, name string, t dnswire.Type, ttl uint32, addr netip.Addr) {
	r.Name, r.Type, r.Class, r.TTL = name, t, dnswire.ClassIN, ttl
	r.Addr, r.Data = addr, nil
}

// respond starts a NOERROR authoritative response in a pooled message;
// callers add answers with GrowAnswers. The returned message's Edns
// field still holds pool scratch: every caller must either fill it
// (ecsEcho) or drop it (DropEDNS) before the response leaves the server.
func (s *AuthServer) respond(query *dnswire.Message) *dnswire.Message {
	m := dnswire.AcquireMessage()
	m.Header = dnswire.Header{
		ID:               query.Header.ID,
		Response:         true,
		Authoritative:    true,
		RecursionDesired: query.Header.RecursionDesired,
		RCode:            dnswire.RCodeNoError,
	}
	m.Questions = query.Questions
	return m
}

// ecsEcho writes the response-side ECS option into m's pooled EDNS
// scratch, allocating only on a message's first use.
func ecsEcho(m *dnswire.Message, source, scope uint8, addr netip.Addr) {
	e := m.Edns
	if e == nil {
		e = new(dnswire.EDNS)
	}
	cs := e.ClientSubnet
	if cs == nil {
		cs = new(dnswire.ClientSubnet)
	}
	*e = dnswire.EDNS{UDPSize: 1232, ClientSubnet: cs}
	*cs = dnswire.ClientSubnet{SourcePrefixLen: source, ScopePrefixLen: scope, Addr: addr}
	m.Edns = e
}

// failure builds an authoritative error response.
func (s *AuthServer) failure(query *dnswire.Message, rc dnswire.RCode) *dnswire.Message {
	m := dnswire.AcquireMessage()
	m.Header = dnswire.Header{
		ID:            query.Header.ID,
		Response:      true,
		Authoritative: true,
		RCode:         rc,
	}
	m.Questions = query.Questions
	m.DropEDNS()
	return m
}

// clientSubnet extracts the effective client subnet for answer selection:
// the ECS option when present (IPv4 only), otherwise the /24 around the
// transport source address. The bool reports whether ECS was present.
func clientSubnet(query *dnswire.Message, from netip.Addr) (netip.Prefix, bool) {
	if query.Edns != nil && query.Edns.ClientSubnet != nil {
		cs := query.Edns.ClientSubnet
		addr := iputil.Canonical(cs.Addr)
		if addr.Is4() {
			return cs.Prefix(), true
		}
		return netip.Prefix{}, true // v6 ECS carries no per-subnet signal here
	}
	from = iputil.Canonical(from)
	if from.Is4() {
		return iputil.Slash24(from), false
	}
	return netip.Prefix{}, false
}
