// Package resolver implements the recursive-resolver layer between
// clients (or RIPE Atlas probes) and the authoritative servers: caching,
// ECS forwarding, configurable blocking policies covering every failure
// mode the paper's blocking study observed (§4.1), and unbound-style
// local-zone overrides used to force the relay client onto a chosen
// ingress address (§3, "fixed DNS scan").
package resolver

import (
	"context"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/iputil"
)

// Policy describes how a resolver treats queries for a blocked domain.
type Policy int

// Blocking behaviours observed across Atlas probes (§4.1): 72 % NXDOMAIN,
// 13 % NOERROR with no data, 5 % REFUSED, the rest SERVFAIL or FORMERR,
// plus outright timeouts and one DNS hijack.
const (
	PolicyNone     Policy = iota // resolve normally
	PolicyNXDomain               // answer NXDOMAIN
	PolicyNoData                 // answer NOERROR with an empty answer section
	PolicyRefused                // answer REFUSED
	PolicyServFail               // answer SERVFAIL
	PolicyFormErr                // answer FORMERR
	PolicyTimeout                // drop the query
	PolicyHijack                 // answer with a substitute address
)

// String names the policy after its response code.
func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicyNXDomain:
		return "NXDOMAIN"
	case PolicyNoData:
		return "NOERROR"
	case PolicyRefused:
		return "REFUSED"
	case PolicyServFail:
		return "SERVFAIL"
	case PolicyFormErr:
		return "FORMERR"
	case PolicyTimeout:
		return "timeout"
	default:
		return "hijack"
	}
}

// HijackAddr is the substitute address returned under PolicyHijack,
// mimicking the nextdns.io interception the paper stumbled on.
var HijackAddr = netip.MustParseAddr("198.18.0.99")

// answer is what the resolver keeps of a response: its rcode and the
// addresses of its answer records of the queried type. Cached answers
// are shared; callers get a clone of addrs.
type answer struct {
	rcode dnswire.RCode
	addrs []netip.Addr
}

// cacheEntry is one cached answer.
type cacheEntry struct {
	ans    answer
	expiry time.Time
}

// inflight is one in-progress upstream exchange. The leader fills ans/err
// before closing done; waiters block on done and read the shared result.
type inflight struct {
	done chan struct{}
	ans  answer
	err  error
}

// Resolver is a caching forwarder with policy and override hooks.
// It is safe for concurrent use.
type Resolver struct {
	// Addr is the resolver's own address — what whoami-style services see.
	Addr netip.Addr
	// Upstream answers cache misses.
	Upstream dnsserver.Exchanger
	// ForwardECS controls whether the client's /24 is attached upstream.
	// Public resolvers do this; many ISP resolvers do not.
	ForwardECS bool
	// BlockedSuffixes maps canonical domain suffixes to policies.
	// The longest matching suffix wins.
	BlockedSuffixes map[string]Policy
	// Clock is injectable for cache-expiry tests; nil means time.Now.
	Clock func() time.Time

	mu      sync.Mutex
	cache   map[string]cacheEntry
	local   map[string][]dnswire.Record
	flights map[string]*inflight

	// Stats.
	CacheHits   int64
	CacheMisses int64
}

// New returns a resolver forwarding to upstream, identified by addr.
func New(addr netip.Addr, upstream dnsserver.Exchanger) *Resolver {
	return &Resolver{
		Addr:            addr,
		Upstream:        upstream,
		ForwardECS:      true,
		BlockedSuffixes: map[string]Policy{},
		cache:           make(map[string]cacheEntry),
		local:           make(map[string][]dnswire.Record),
	}
}

// AddLocalZone installs an unbound-style local-data override: queries for
// name (canonicalized) of the records' types are answered directly from
// these records, bypassing upstream — the mechanism behind the paper's
// forced-ingress experiments.
func (r *Resolver) AddLocalZone(name string, records []dnswire.Record) {
	name = dnswire.CanonicalName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.local[name] = append(r.local[name], records...)
}

// ClearLocalZone removes overrides for name.
func (r *Resolver) ClearLocalZone(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.local, dnswire.CanonicalName(name))
}

// Block installs a blocking policy for a domain suffix (e.g.
// "icloud.com." blocks mask.icloud.com and mask-h2.icloud.com).
func (r *Resolver) Block(suffix string, p Policy) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.BlockedSuffixes[dnswire.CanonicalName(suffix)] = p
}

// policyFor returns the effective policy for a canonical name.
func (r *Resolver) policyFor(name string) Policy {
	r.mu.Lock()
	defer r.mu.Unlock()
	best := PolicyNone
	bestLen := -1
	for suffix, p := range r.BlockedSuffixes {
		if (name == suffix || strings.HasSuffix(name, "."+suffix) || suffix == ".") && len(suffix) > bestLen {
			best = p
			bestLen = len(suffix)
		}
	}
	return best
}

// lookup resolves one question on behalf of clientAddr. It returns
// dnsserver.ErrTimeout under PolicyTimeout or upstream loss.
func (r *Resolver) lookup(ctx context.Context, name string, qtype dnswire.Type, clientAddr netip.Addr) (answer, error) {
	name = dnswire.CanonicalName(name)

	// Local zone overrides take absolute precedence (unbound local-data).
	r.mu.Lock()
	localRecs := r.local[name]
	r.mu.Unlock()
	if len(localRecs) > 0 {
		ans := answer{rcode: dnswire.RCodeNoError}
		for i := range localRecs {
			if localRecs[i].Type == qtype {
				ans.addrs = append(ans.addrs, localRecs[i].Addr)
			}
		}
		return ans, nil
	}

	switch r.policyFor(name) {
	case PolicyNXDomain:
		return answer{rcode: dnswire.RCodeNXDomain}, nil
	case PolicyNoData:
		return answer{rcode: dnswire.RCodeNoError}, nil
	case PolicyRefused:
		return answer{rcode: dnswire.RCodeRefused}, nil
	case PolicyServFail:
		return answer{rcode: dnswire.RCodeServFail}, nil
	case PolicyFormErr:
		return answer{rcode: dnswire.RCodeFormErr}, nil
	case PolicyTimeout:
		return answer{}, dnsserver.ErrTimeout
	case PolicyHijack:
		if qtype != dnswire.TypeA {
			return answer{rcode: dnswire.RCodeNoError}, nil
		}
		return answer{rcode: dnswire.RCodeNoError, addrs: []netip.Addr{HijackAddr}}, nil
	default:
		// PolicyNone: resolve normally below.
	}

	key := cacheKey(name, qtype, clientAddr, r.ForwardECS)
	ans, fl, leader := r.beginFlight(key)
	switch {
	case fl == nil:
		return ans, nil
	case !leader:
		<-fl.done
		return fl.ans, fl.err
	}

	q := dnswire.NewQuery(queryID(key), name, qtype)
	if r.ForwardECS {
		ca := iputil.Canonical(clientAddr)
		if ca.Is4() {
			q.WithECS(iputil.Slash24(ca))
		}
	}
	resp, err := r.Upstream.Exchange(ctx, q)
	if err != nil {
		r.endFlight(key, fl, answer{}, err)
		return answer{}, err
	}
	// Keep the rcode and the addresses, under the smallest answer TTL.
	ans.rcode = resp.Header.RCode
	ttl := uint32(60)
	for i := range resp.Answers {
		rec := &resp.Answers[i]
		ttl = min(ttl, rec.TTL)
		if rec.Type == qtype {
			ans.addrs = append(ans.addrs, rec.Addr)
		}
	}
	if len(resp.Answers) == 0 {
		ttl = 30 // negative-ish caching
	}
	dnswire.ReleaseMessage(resp)
	r.cachePut(key, ans, ttl)
	r.endFlight(key, fl, ans, nil)
	return ans, nil
}

// beginFlight answers from cache, joins an in-progress upstream exchange
// for the same key (per-key singleflight: concurrent probes behind one
// public resolver must not stampede the upstream), or claims leadership
// of a new exchange. Exactly one of three outcomes: fl == nil is a cache
// hit and ans the cached answer; leader true means the caller must
// exchange and call endFlight; leader false with fl != nil means the
// caller waits on fl.done. Waiters count as cache hits — they are served
// from the answer the leader caches — so serial and concurrent runs
// report identical hit/miss totals.
func (r *Resolver) beginFlight(key string) (ans answer, fl *inflight, leader bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.cache[key]; ok {
		if !r.now().After(e.expiry) {
			r.CacheHits++
			return e.ans, nil, false
		}
		delete(r.cache, key)
	}
	if fl, ok := r.flights[key]; ok {
		r.CacheHits++
		return answer{}, fl, false
	}
	if r.flights == nil {
		r.flights = make(map[string]*inflight)
	}
	fl = &inflight{done: make(chan struct{})}
	r.flights[key] = fl
	r.CacheMisses++
	return answer{}, fl, true
}

// endFlight publishes the leader's result and releases waiters.
func (r *Resolver) endFlight(key string, fl *inflight, ans answer, err error) {
	fl.ans, fl.err = ans, err
	r.mu.Lock()
	delete(r.flights, key)
	r.mu.Unlock()
	close(fl.done)
}

// FlushCache drops every cached answer (in-flight exchanges are left
// alone). Campaign benchmarks use it to re-measure cold-cache runs.
func (r *Resolver) FlushCache() {
	r.mu.Lock()
	defer r.mu.Unlock()
	clear(r.cache)
}

// ResolveA returns just the A addresses for name (empty on NOERROR/no-data).
func (r *Resolver) ResolveA(ctx context.Context, name string, clientAddr netip.Addr) ([]netip.Addr, dnswire.RCode, error) {
	ans, err := r.lookup(ctx, name, dnswire.TypeA, clientAddr)
	return slices.Clone(ans.addrs), ans.rcode, err
}

// ResolveAAAA returns the AAAA addresses for name.
func (r *Resolver) ResolveAAAA(ctx context.Context, name string, clientAddr netip.Addr) ([]netip.Addr, dnswire.RCode, error) {
	ans, err := r.lookup(ctx, name, dnswire.TypeAAAA, clientAddr)
	return slices.Clone(ans.addrs), ans.rcode, err
}

func (r *Resolver) now() time.Time {
	if r.Clock != nil {
		return r.Clock()
	}
	return time.Now()
}

func (r *Resolver) cachePut(key string, ans answer, ttl uint32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cache[key] = cacheEntry{ans: ans, expiry: r.now().Add(time.Duration(ttl) * time.Second)}
}

// cacheKey scopes cached answers per client /24 when ECS forwarding is on
// (RFC 7871 requires ECS-aware caches to do this).
func cacheKey(name string, qtype dnswire.Type, clientAddr netip.Addr, ecs bool) string {
	if !ecs {
		return name + "|" + qtype.String()
	}
	ca := iputil.Canonical(clientAddr)
	scope := ""
	if ca.Is4() {
		scope = iputil.Slash24(ca).String()
	} else if ca.IsValid() {
		scope = iputil.Slash64(ca).String()
	}
	return name + "|" + qtype.String() + "|" + scope
}

// queryID derives a deterministic query ID from the cache key.
func queryID(key string) uint16 {
	return uint16(iputil.HashString(key))
}

// PublicResolver describes one of the big anycast open resolvers that
// serve the majority of RIPE Atlas probes (§4.1).
type PublicResolver struct {
	Name string
	V4   netip.Addr
	V6   netip.Addr
}

// PublicResolvers is the catalog the paper identifies via
// whoami.akamai.net: Google, Cloudflare, Quad9 and OpenDNS together
// serve more than half of all probes.
var PublicResolvers = []PublicResolver{
	{Name: "GooglePublicDNS", V4: netip.MustParseAddr("8.8.8.8"), V6: netip.MustParseAddr("2001:4860:4860::8888")},
	{Name: "Cloudflare1111", V4: netip.MustParseAddr("1.1.1.1"), V6: netip.MustParseAddr("2606:4700:4700::1111")},
	{Name: "Quad9", V4: netip.MustParseAddr("9.9.9.9"), V6: netip.MustParseAddr("2620:fe::fe")},
	{Name: "OpenDNS", V4: netip.MustParseAddr("208.67.222.222"), V6: netip.MustParseAddr("2620:119:35::35")},
}
