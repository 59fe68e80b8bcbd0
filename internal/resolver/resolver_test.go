package resolver

import (
	"context"
	"errors"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/netsim"
)

func testResolver(t testing.TB) (*netsim.World, *Resolver, netip.Addr) {
	t.Helper()
	w := netsim.NewWorld(netsim.Params{Seed: 5, Scale: 0.0005})
	srv := dnsserver.NewAuthServer(w, netsim.MonthApr, nil)
	upstream := &dnsserver.MemTransport{Handler: srv, Source: netip.MustParseAddr("8.8.8.8")}
	r := New(netip.MustParseAddr("8.8.8.8"), upstream)
	client := iputil.NthSubnet(w.ClientASes[0].Prefixes[0], 24, 0).Addr().Next()
	return w, r, client
}

func TestResolveAForwardsECS(t *testing.T) {
	w, r, client := testResolver(t)
	addrs, rc, err := r.ResolveA(context.Background(), dnsserver.MaskDomain, client)
	if err != nil || rc != dnswire.RCodeNoError {
		t.Fatalf("ResolveA: %v rc=%v", err, rc)
	}
	want := w.IngressAnswer(iputil.Slash24(client), netsim.MonthApr, netsim.ProtoDefault)
	if len(addrs) != len(want) {
		t.Fatalf("addrs = %d, want %d", len(addrs), len(want))
	}
	for i := range want {
		if addrs[i] != want[i] {
			t.Fatal("resolved addresses should reflect client ECS subnet")
		}
	}
}

func TestResolveWithoutECSUsesResolverAddr(t *testing.T) {
	_, r, client := testResolver(t)
	r.ForwardECS = false
	addrs, rc, err := r.ResolveA(context.Background(), dnsserver.MaskDomain, client)
	if err != nil || rc != dnswire.RCodeNoError {
		t.Fatalf("ResolveA: %v rc=%v", err, rc)
	}
	// Resolver's own source (8.8.8.8) isn't in a client AS → the
	// authoritative falls back to answering for the resolver's /24,
	// which is unrouted → empty but NOERROR.
	_ = addrs
}

func TestResolveAAAA(t *testing.T) {
	_, r, client := testResolver(t)
	addrs, rc, err := r.ResolveAAAA(context.Background(), dnsserver.MaskDomain, client)
	if err != nil || rc != dnswire.RCodeNoError {
		t.Fatalf("ResolveAAAA: %v rc=%v", err, rc)
	}
	if len(addrs) == 0 {
		t.Fatal("no AAAA records")
	}
	for _, a := range addrs {
		if !a.Is6() {
			t.Fatalf("non-v6 AAAA %v", a)
		}
	}
}

func TestCaching(t *testing.T) {
	_, r, client := testResolver(t)
	ctx := context.Background()
	if _, _, err := r.ResolveA(ctx, dnsserver.MaskDomain, client); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ResolveA(ctx, dnsserver.MaskDomain, client); err != nil {
		t.Fatal(err)
	}
	if r.CacheHits != 1 || r.CacheMisses != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", r.CacheHits, r.CacheMisses)
	}
	// A client in a different /24 must not share the ECS-scoped entry.
	other := client
	for i := 0; i < 256; i++ {
		other = other.Next()
	}
	if _, _, err := r.ResolveA(ctx, dnsserver.MaskDomain, other); err != nil {
		t.Fatal(err)
	}
	if r.CacheMisses != 2 {
		t.Fatalf("expected per-/24 cache scoping, misses = %d", r.CacheMisses)
	}
}

// TestCachedAddrsAreCallerOwned: a cache hit hands out a copy of the
// cached addresses, so a caller writing into its slice cannot change
// what the next caller is served.
func TestCachedAddrsAreCallerOwned(t *testing.T) {
	_, r, client := testResolver(t)
	ctx := context.Background()
	first, _, err := r.ResolveA(ctx, dnsserver.MaskDomain, client)
	if err != nil || len(first) == 0 {
		t.Fatalf("ResolveA: %v %v", first, err)
	}
	want := append([]netip.Addr(nil), first...)
	first[0] = HijackAddr
	again, _, err := r.ResolveA(ctx, dnsserver.MaskDomain, client)
	if err != nil || r.CacheHits != 1 {
		t.Fatalf("second ResolveA: %v, hits %d, want a cache hit", err, r.CacheHits)
	}
	if !slices.Equal(again, want) {
		t.Fatalf("cache hit served %v, want %v", again, want)
	}
}

func TestCacheExpiry(t *testing.T) {
	_, r, client := testResolver(t)
	now := time.Unix(1000, 0)
	r.Clock = func() time.Time { return now }
	ctx := context.Background()
	r.ResolveA(ctx, dnsserver.MaskDomain, client)
	now = now.Add(2 * time.Minute) // TTL is 60s
	r.ResolveA(ctx, dnsserver.MaskDomain, client)
	if r.CacheMisses != 2 {
		t.Fatalf("expired entry served from cache (misses=%d)", r.CacheMisses)
	}
}

// fixedUpstream answers every query with rcode and one A record per TTL
// in ttls, and counts the exchanges it serves.
type fixedUpstream struct {
	rcode     dnswire.RCode
	ttls      []uint32
	exchanges int
}

func (u *fixedUpstream) Exchange(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	u.exchanges++
	resp := &dnswire.Message{Header: dnswire.Header{ID: q.Header.ID, Response: true, RCode: u.rcode}, Questions: q.Questions}
	for i, ttl := range u.ttls {
		resp.Answers = append(resp.Answers, dnswire.Record{
			Name: q.Questions[0].Name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: ttl,
			Addr: netip.AddrFrom4([4]byte{17, 248, 0, byte(i)}),
		})
	}
	return resp, nil
}

// TestCacheTTLIsSmallestAnswerTTL: an answer is cached for the smallest
// TTL among its records, capped at 60 s; an empty answer for 30 s. The
// entry is still served at exactly its expiry and not one second later.
func TestCacheTTLIsSmallestAnswerTTL(t *testing.T) {
	client := netip.MustParseAddr("203.0.113.7")
	for _, tc := range []struct {
		name  string
		up    fixedUpstream
		fresh time.Duration
	}{
		{"smallest", fixedUpstream{rcode: dnswire.RCodeNoError, ttls: []uint32{45, 20, 300}}, 20 * time.Second},
		{"capped", fixedUpstream{rcode: dnswire.RCodeNoError, ttls: []uint32{300, 3600}}, 60 * time.Second},
		{"empty", fixedUpstream{rcode: dnswire.RCodeNoError}, 30 * time.Second},
	} {
		up := tc.up
		r := New(netip.MustParseAddr("8.8.8.8"), &up)
		start := time.Unix(1000, 0)
		now := start
		r.Clock = func() time.Time { return now }
		for _, step := range []struct {
			at        time.Duration
			exchanges int
		}{{0, 1}, {tc.fresh, 1}, {tc.fresh + time.Second, 2}} {
			now = start.Add(step.at)
			addrs, rc, err := r.ResolveA(context.Background(), dnsserver.MaskDomain, client)
			if err != nil || rc != tc.up.rcode || len(addrs) != len(tc.up.ttls) {
				t.Fatalf("%s at +%v: %v rc=%v, %d addrs", tc.name, step.at, err, rc, len(addrs))
			}
			if up.exchanges != step.exchanges {
				t.Fatalf("%s at +%v: %d upstream exchanges, want %d", tc.name, step.at, up.exchanges, step.exchanges)
			}
		}
	}
}

// TestNegativeAnswerCachedWithItsRCode: a cache hit for an NXDOMAIN
// answer repeats the NXDOMAIN rather than turning it into an empty
// NOERROR.
func TestNegativeAnswerCachedWithItsRCode(t *testing.T) {
	up := &fixedUpstream{rcode: dnswire.RCodeNXDomain}
	r := New(netip.MustParseAddr("8.8.8.8"), up)
	client := netip.MustParseAddr("203.0.113.7")
	for i := 0; i < 2; i++ {
		addrs, rc, err := r.ResolveA(context.Background(), "missing.example.", client)
		if err != nil || rc != dnswire.RCodeNXDomain || len(addrs) != 0 {
			t.Fatalf("lookup %d: %v rc=%v addrs=%v, want NXDOMAIN", i, err, rc, addrs)
		}
	}
	if up.exchanges != 1 || r.CacheHits != 1 {
		t.Fatalf("upstream exchanges %d, cache hits %d, want 1 and 1", up.exchanges, r.CacheHits)
	}
}

func TestBlockingPolicies(t *testing.T) {
	cases := []struct {
		policy Policy
		rcode  dnswire.RCode
	}{
		{PolicyNXDomain, dnswire.RCodeNXDomain},
		{PolicyNoData, dnswire.RCodeNoError},
		{PolicyRefused, dnswire.RCodeRefused},
		{PolicyServFail, dnswire.RCodeServFail},
		{PolicyFormErr, dnswire.RCodeFormErr},
	}
	for _, c := range cases {
		_, r, client := testResolver(t)
		r.Block("icloud.com", c.policy)
		addrs, rc, err := r.ResolveA(context.Background(), dnsserver.MaskDomain, client)
		if err != nil {
			t.Fatalf("%v: %v", c.policy, err)
		}
		if rc != c.rcode {
			t.Fatalf("%v: rcode = %v, want %v", c.policy, rc, c.rcode)
		}
		if len(addrs) != 0 {
			t.Fatalf("%v: got answers %v", c.policy, addrs)
		}
	}
}

func TestBlockingTimeout(t *testing.T) {
	_, r, client := testResolver(t)
	r.Block("icloud.com", PolicyTimeout)
	_, _, err := r.ResolveA(context.Background(), dnsserver.MaskDomain, client)
	if !errors.Is(err, dnsserver.ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestBlockingHijack(t *testing.T) {
	_, r, client := testResolver(t)
	r.Block("icloud.com", PolicyHijack)
	addrs, rc, err := r.ResolveA(context.Background(), dnsserver.MaskDomain, client)
	if err != nil || rc != dnswire.RCodeNoError {
		t.Fatalf("hijack: %v rc=%v", err, rc)
	}
	if len(addrs) != 1 || addrs[0] != HijackAddr {
		t.Fatalf("hijack answer = %v", addrs)
	}
}

func TestBlockingSuffixMatch(t *testing.T) {
	_, r, client := testResolver(t)
	r.Block("icloud.com", PolicyNXDomain)
	// mask.icloud.com is blocked; other domains resolve.
	_, rc, _ := r.ResolveA(context.Background(), "mask.icloud.com", client)
	if rc != dnswire.RCodeNXDomain {
		t.Fatalf("suffix match failed: %v", rc)
	}
	_, rc, err := r.ResolveA(context.Background(), dnsserver.WhoamiDomain, client)
	if err != nil || rc != dnswire.RCodeNoError {
		t.Fatalf("unrelated domain affected: %v %v", rc, err)
	}
	// Longest suffix wins.
	r.Block("mask.icloud.com", PolicyRefused)
	_, rc, _ = r.ResolveA(context.Background(), "mask.icloud.com", client)
	if rc != dnswire.RCodeRefused {
		t.Fatalf("longest-suffix precedence failed: %v", rc)
	}
	// "icloud.com" itself is also blocked (exact match of the suffix).
	_, rc, _ = r.ResolveA(context.Background(), "icloud.com", client)
	if rc != dnswire.RCodeNXDomain {
		t.Fatalf("exact suffix match failed: %v", rc)
	}
}

func TestLocalZoneOverride(t *testing.T) {
	_, r, client := testResolver(t)
	forced := netip.MustParseAddr("172.224.100.1")
	r.AddLocalZone(dnsserver.MaskDomain, []dnswire.Record{{
		Name: dnsserver.MaskDomain, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60, Addr: forced,
	}})
	addrs, rc, err := r.ResolveA(context.Background(), dnsserver.MaskDomain, client)
	if err != nil || rc != dnswire.RCodeNoError {
		t.Fatalf("local zone: %v %v", err, rc)
	}
	if len(addrs) != 1 || addrs[0] != forced {
		t.Fatalf("local zone answer = %v, want %v", addrs, forced)
	}
	// AAAA has no local data → empty NOERROR (not upstream).
	v6, rc, err := r.ResolveAAAA(context.Background(), dnsserver.MaskDomain, client)
	if err != nil || rc != dnswire.RCodeNoError || len(v6) != 0 {
		t.Fatalf("local zone AAAA: %v %v %v", v6, rc, err)
	}
	// Override beats blocking.
	r.Block("icloud.com", PolicyNXDomain)
	addrs, _, _ = r.ResolveA(context.Background(), dnsserver.MaskDomain, client)
	if len(addrs) != 1 {
		t.Fatal("local zone should take precedence over blocking")
	}
	// Clearing restores upstream resolution.
	r.ClearLocalZone(dnsserver.MaskDomain)
	r.Block("icloud.com", PolicyNone)
	addrs, _, err = r.ResolveA(context.Background(), dnsserver.MaskDomain, client)
	if err != nil || len(addrs) == 0 || addrs[0] == forced {
		t.Fatalf("after clear: %v %v", addrs, err)
	}
}

func TestPublicResolverCatalog(t *testing.T) {
	if len(PublicResolvers) != 4 {
		t.Fatalf("catalog size = %d", len(PublicResolvers))
	}
	names := map[string]bool{}
	for _, pr := range PublicResolvers {
		names[pr.Name] = true
		if !pr.V4.Is4() || !pr.V6.Is6() {
			t.Fatalf("bad addresses for %s", pr.Name)
		}
	}
	for _, want := range []string{"GooglePublicDNS", "Cloudflare1111", "Quad9", "OpenDNS"} {
		if !names[want] {
			t.Fatalf("missing %s", want)
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	if PolicyNXDomain.String() != "NXDOMAIN" || PolicyTimeout.String() != "timeout" ||
		PolicyHijack.String() != "hijack" || PolicyNone.String() != "none" {
		t.Fatal("policy strings wrong")
	}
}

func TestConcurrentLookups(t *testing.T) {
	_, r, client := testResolver(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// Mix of cacheable repeats and distinct subnets.
				addr := client
				for k := 0; k < (g+i)%4; k++ {
					for j := 0; j < 256; j++ {
						addr = addr.Next()
					}
				}
				if _, _, err := r.ResolveA(context.Background(), dnsserver.MaskDomain, addr); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if r.CacheHits == 0 {
		t.Fatal("no cache hits under concurrency")
	}
}
