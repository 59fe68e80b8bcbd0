package dnsserver

import (
	"context"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/vclock"
)

func testSetup(t testing.TB) (*netsim.World, *AuthServer) {
	t.Helper()
	w := netsim.NewWorld(netsim.Params{Seed: 3, Scale: 0.0005})
	return w, NewAuthServer(w, netsim.MonthApr, nil)
}

func clientSubnetOf(w *netsim.World, i int) netip.Prefix {
	return iputil.NthSubnet(w.ClientASes[i].Prefixes[0], 24, 0)
}

// clientSlash24s lists every client /24 of the world, in table order.
func clientSlash24s(w *netsim.World) []netip.Prefix {
	var out []netip.Prefix
	for _, c := range w.ClientASes {
		for _, p := range c.Prefixes {
			iputil.Subnets(p, 24, func(s netip.Prefix) bool {
				out = append(out, s)
				return true
			})
		}
	}
	return out
}

func ecsQuery(id uint16, domain string, subnet netip.Prefix) *dnswire.Message {
	return dnswire.NewQuery(id, domain, dnswire.TypeA).WithECS(subnet)
}

func TestAuthServerECSAnswer(t *testing.T) {
	w, srv := testSetup(t)
	subnet := clientSubnetOf(w, 0)
	resp := srv.Handle(ecsQuery(1, MaskDomain, subnet), netip.MustParseAddr("198.51.100.1"))
	if resp == nil {
		t.Fatal("no response")
	}
	if resp.Header.RCode != dnswire.RCodeNoError || !resp.Header.Authoritative {
		t.Fatalf("header: %+v", resp.Header)
	}
	if len(resp.Answers) == 0 || len(resp.Answers) > 8 {
		t.Fatalf("answers = %d", len(resp.Answers))
	}
	want := w.IngressAnswer(subnet, netsim.MonthApr, netsim.ProtoDefault)
	if len(want) != len(resp.Answers) {
		t.Fatalf("answer size %d, world says %d", len(resp.Answers), len(want))
	}
	for i, r := range resp.Answers {
		if r.Addr != want[i] {
			t.Fatalf("answer %d = %v, want %v", i, r.Addr, want[i])
		}
	}
	if resp.Edns == nil || resp.Edns.ClientSubnet == nil {
		t.Fatal("response missing ECS echo")
	}
	if resp.Edns.ClientSubnet.SourcePrefixLen != 24 {
		t.Fatalf("source len = %d", resp.Edns.ClientSubnet.SourcePrefixLen)
	}
}

func TestAuthServerScopeShorterForSingleOperatorAS(t *testing.T) {
	w, srv := testSetup(t)
	for i, c := range w.ClientASes {
		if c.Group == netsim.GroupBoth {
			continue
		}
		subnet := clientSubnetOf(w, i)
		resp := srv.Handle(ecsQuery(2, MaskDomain, subnet), netip.MustParseAddr("198.51.100.1"))
		scope := resp.Edns.ClientSubnet.ScopePrefixLen
		if int(scope) != c.Prefixes[0].Bits() {
			t.Fatalf("scope = %d, want route length %d", scope, c.Prefixes[0].Bits())
		}
		return
	}
	t.Skip("no single-operator AS at this scale")
}

func TestAuthServerFallbackDomain(t *testing.T) {
	w, srv := testSetup(t)
	subnet := clientSubnetOf(w, 0)
	resp := srv.Handle(ecsQuery(3, MaskH2Domain, subnet), netip.MustParseAddr("198.51.100.1"))
	want := w.IngressAnswer(subnet, netsim.MonthApr, netsim.ProtoFallback)
	if len(resp.Answers) != len(want) {
		t.Fatalf("fallback answers = %d, want %d", len(resp.Answers), len(want))
	}
	for i := range want {
		if resp.Answers[i].Addr != want[i] {
			t.Fatal("fallback answers differ from world")
		}
	}
}

func TestAuthServerNXDomain(t *testing.T) {
	_, srv := testSetup(t)
	resp := srv.Handle(dnswire.NewQuery(4, "other.example.com", dnswire.TypeA), netip.MustParseAddr("198.51.100.1"))
	if resp.Header.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
	if srv.Stats.NXDomain.Load() != 1 {
		t.Fatal("NXDomain counter not bumped")
	}
}

func TestAuthServerNoDataForOtherTypes(t *testing.T) {
	_, srv := testSetup(t)
	resp := srv.Handle(dnswire.NewQuery(5, MaskDomain, dnswire.TypeTXT), netip.MustParseAddr("198.51.100.1"))
	if resp.Header.RCode != dnswire.RCodeNoError || len(resp.Answers) != 0 {
		t.Fatalf("want NOERROR/no-data, got %v/%d", resp.Header.RCode, len(resp.Answers))
	}
}

func TestAuthServerFormErr(t *testing.T) {
	_, srv := testSetup(t)
	resp := srv.Handle(&dnswire.Message{Header: dnswire.Header{ID: 6}}, netip.MustParseAddr("198.51.100.1"))
	if resp.Header.RCode != dnswire.RCodeFormErr {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
}

func TestAuthServerAAAAScopeZero(t *testing.T) {
	_, srv := testSetup(t)
	q := dnswire.NewQuery(7, MaskDomain, dnswire.TypeAAAA).WithECS(netip.MustParsePrefix("2001:db8::/48"))
	resp := srv.Handle(q, netip.MustParseAddr("2001:db8::53"))
	if len(resp.Answers) == 0 {
		t.Fatal("no AAAA answers")
	}
	for _, r := range resp.Answers {
		if !r.Addr.Is6() {
			t.Fatalf("bad AAAA %v", r.Addr)
		}
	}
	if resp.Edns == nil || resp.Edns.ClientSubnet == nil || resp.Edns.ClientSubnet.ScopePrefixLen != 0 {
		t.Fatalf("AAAA scope must be 0 (whole address space), got %+v", resp.Edns)
	}
}

func TestAuthServerAAAAKeyedByResolver(t *testing.T) {
	_, srv := testSetup(t)
	q := func(id uint16) *dnswire.Message { return dnswire.NewQuery(id, MaskDomain, dnswire.TypeAAAA) }
	a := srv.Handle(q(8), netip.MustParseAddr("2001:db8::1"))
	b := srv.Handle(q(9), netip.MustParseAddr("2001:db8::1"))
	if len(a.Answers) != len(b.Answers) || a.Answers[0].Addr != b.Answers[0].Addr {
		t.Fatal("same resolver should get stable answers")
	}
	// Different resolvers usually see different records; check that at
	// least one of a handful differs.
	differs := false
	for i := 0; i < 8 && !differs; i++ {
		other := srv.Handle(q(10), netip.AddrFrom16([16]byte{0x20, 0x01, 0xd, 0xb8, byte(i), 1}))
		if other.Answers[0].Addr != a.Answers[0].Addr {
			differs = true
		}
	}
	if !differs {
		t.Fatal("all resolvers see identical AAAA sets")
	}
}

func TestAuthServerMonthSwitch(t *testing.T) {
	w, srv := testSetup(t)
	subnet := clientSubnetOf(w, 0)
	srv.SetMonth(netsim.MonthJan)
	jan := srv.Handle(ecsQuery(11, MaskDomain, subnet), netip.MustParseAddr("198.51.100.1"))
	srv.SetMonth(netsim.MonthApr)
	apr := srv.Handle(ecsQuery(12, MaskDomain, subnet), netip.MustParseAddr("198.51.100.1"))
	sameAll := len(jan.Answers) == len(apr.Answers)
	if sameAll {
		for i := range jan.Answers {
			if jan.Answers[i].Addr != apr.Answers[i].Addr {
				sameAll = false
				break
			}
		}
	}
	if sameAll {
		t.Fatal("answers identical across months; fleet evolution invisible")
	}
}

func TestWhoami(t *testing.T) {
	_, srv := testSetup(t)
	from := netip.MustParseAddr("9.9.9.9")
	resp := srv.Handle(dnswire.NewQuery(13, WhoamiDomain, dnswire.TypeA), from)
	if len(resp.Answers) != 1 || resp.Answers[0].Addr != from {
		t.Fatalf("whoami = %+v", resp.Answers)
	}
	from6 := netip.MustParseAddr("2620:fe::fe")
	resp6 := srv.Handle(dnswire.NewQuery(14, WhoamiDomain, dnswire.TypeAAAA), from6)
	if len(resp6.Answers) != 1 || resp6.Answers[0].Addr != from6 {
		t.Fatalf("whoami v6 = %+v", resp6.Answers)
	}
	// Family mismatch → no data.
	if got := srv.Handle(dnswire.NewQuery(15, WhoamiDomain, dnswire.TypeAAAA), from); len(got.Answers) != 0 {
		t.Fatal("whoami AAAA from v4 source should be empty")
	}
}

func TestRateLimiting(t *testing.T) {
	w := netsim.NewWorld(netsim.Params{Seed: 3, Scale: 0.0005})
	clock := vclock.NewVirtualClock()
	rl := NewRateLimiter(10, 2, clock)
	srv := NewAuthServer(w, netsim.MonthApr, rl)
	subnet := clientSubnetOf(w, 0)
	from := netip.MustParseAddr("198.51.100.1")

	if srv.Handle(ecsQuery(1, MaskDomain, subnet), from) == nil {
		t.Fatal("first query dropped")
	}
	if srv.Handle(ecsQuery(2, MaskDomain, subnet), from) == nil {
		t.Fatal("second query dropped (burst=2)")
	}
	if srv.Handle(ecsQuery(3, MaskDomain, subnet), from) != nil {
		t.Fatal("third query served beyond burst")
	}
	if srv.Stats.RateLimited.Load() != 1 {
		t.Fatalf("rate-limited counter = %d", srv.Stats.RateLimited.Load())
	}
	// Advance time: tokens refill at 10/s.
	if err := clock.Sleep(context.Background(), 200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if srv.Handle(ecsQuery(4, MaskDomain, subnet), from) == nil {
		t.Fatal("query after refill dropped")
	}
	// A different source has its own bucket.
	if srv.Handle(ecsQuery(5, MaskDomain, subnet), netip.MustParseAddr("198.51.100.2")) == nil {
		t.Fatal("other source rate limited")
	}
}

// TestRateLimiterVirtualClock drives the limiter purely on a
// VirtualClock: the refill schedule is a function of ticked time only,
// so chaos tests can starve and recover a source without wall delays.
func TestRateLimiterVirtualClock(t *testing.T) {
	ctx := context.Background()
	clock := vclock.NewVirtualClock()
	rl := NewRateLimiter(5, 3, clock) // 5 tokens/s, burst 3
	key := netip.MustParseAddr("203.0.113.7")

	for i := 0; i < 3; i++ {
		if !rl.Allow(key) {
			t.Fatalf("burst query %d refused", i)
		}
	}
	if rl.Allow(key) {
		t.Fatal("query beyond burst allowed")
	}
	// 200ms of virtual time buys exactly one token at 5/s.
	if err := clock.Sleep(ctx, 200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !rl.Allow(key) {
		t.Fatal("refilled token refused")
	}
	if rl.Allow(key) {
		t.Fatal("second query after a one-token refill allowed")
	}
	// A long virtual sleep caps the bucket at burst, not rate*elapsed.
	if err := clock.Sleep(ctx, time.Hour); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !rl.Allow(key) {
			t.Fatalf("post-cap query %d refused", i)
		}
	}
	if rl.Allow(key) {
		t.Fatal("bucket exceeded burst after long sleep")
	}
}

func TestMemTransport(t *testing.T) {
	w, srv := testSetup(t)
	mt := &MemTransport{Handler: srv, Source: netip.MustParseAddr("198.51.100.1")}
	resp, err := mt.Exchange(context.Background(), ecsQuery(1, MaskDomain, clientSubnetOf(w, 0)))
	if err != nil || len(resp.Answers) == 0 {
		t.Fatalf("Exchange: %v / %d answers", err, len(resp.Answers))
	}
	// Context cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mt.Exchange(ctx, ecsQuery(2, MaskDomain, clientSubnetOf(w, 0))); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

func TestMemTransportLoss(t *testing.T) {
	w, srv := testSetup(t)
	mt := &MemTransport{Handler: srv, Source: netip.MustParseAddr("198.51.100.1"), LossEvery: 3}
	losses := 0
	for i := 0; i < 9; i++ {
		if _, err := mt.Exchange(context.Background(), ecsQuery(uint16(i), MaskDomain, clientSubnetOf(w, 0))); err != nil {
			losses++
		}
	}
	if losses != 3 {
		t.Fatalf("losses = %d, want 3", losses)
	}
}

// TestMemTransportLossConcurrent drives the transport from many
// goroutines: the atomic loss counter must drop exactly every n-th query
// in aggregate, with no serialization and (under -race) no data races.
func TestMemTransportLossConcurrent(t *testing.T) {
	w, srv := testSetup(t)
	const workers, perWorker, lossEvery = 8, 60, 3
	mt := &MemTransport{Handler: srv, Source: netip.MustParseAddr("198.51.100.1"), LossEvery: lossEvery}
	var losses atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := ecsQuery(uint16(g*perWorker+i), MaskDomain, clientSubnetOf(w, 0))
				if _, err := mt.Exchange(context.Background(), q); err != nil {
					losses.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if want := int64(workers * perWorker / lossEvery); losses.Load() != want {
		t.Fatalf("losses = %d, want %d", losses.Load(), want)
	}
}

func TestUDPServerEndToEnd(t *testing.T) {
	w, srv := testSetup(t)
	us, err := ListenUDP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer us.Close()

	cl := &UDPClient{ServerAddr: us.Addr().String(), Timeout: 2 * time.Second, Retries: 1}
	subnet := clientSubnetOf(w, 0)
	resp, err := cl.Exchange(context.Background(), ecsQuery(77, MaskDomain, subnet))
	if err != nil {
		t.Fatalf("UDP exchange: %v", err)
	}
	if resp.Header.ID != 77 || len(resp.Answers) == 0 {
		t.Fatalf("UDP response: id=%d answers=%d", resp.Header.ID, len(resp.Answers))
	}
	want := w.IngressAnswer(subnet, netsim.MonthApr, netsim.ProtoDefault)
	if resp.Answers[0].Addr != want[0] {
		t.Fatal("UDP answer differs from in-memory answer")
	}
	// NXDOMAIN over the wire.
	resp, err = cl.Exchange(context.Background(), dnswire.NewQuery(78, "nope.example.", dnswire.TypeA))
	if err != nil || resp.Header.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("NXDOMAIN over UDP: %v %v", err, resp)
	}
}

func TestUDPClientTimeout(t *testing.T) {
	// Rate limiter with zero rate drops everything → client must time out.
	w := netsim.NewWorld(netsim.Params{Seed: 3, Scale: 0.0005})
	rl := NewRateLimiter(0, 0, nil)
	srv := NewAuthServer(w, netsim.MonthApr, rl)
	us, err := ListenUDP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer us.Close()
	cl := &UDPClient{ServerAddr: us.Addr().String(), Timeout: 100 * time.Millisecond, Retries: 0}
	_, err = cl.Exchange(context.Background(), ecsQuery(1, MaskDomain, clientSubnetOf(w, 0)))
	if err == nil {
		t.Fatal("expected timeout")
	}
}

// BenchmarkAuthServerHandle measures one authoritative answer the way a
// scan asks for it: every query names a different client /24, walking
// the whole client universe.
func BenchmarkAuthServerHandle(b *testing.B) {
	w := netsim.NewWorld(netsim.Params{Seed: 3, Scale: 0.0005})
	srv := NewAuthServer(w, netsim.MonthApr, nil)
	subnets := clientSlash24s(w)
	from := netip.MustParseAddr("198.51.100.1")
	q := ecsQuery(1, MaskDomain, subnets[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.SetECS(subnets[i%len(subnets)])
		resp := srv.Handle(q, from)
		if resp == nil {
			b.Fatal("dropped")
		}
		dnswire.ReleaseMessage(resp)
	}
}

// BenchmarkExchangeMemTransport measures the scanner's view of one
// in-memory query/response exchange, the per-subnet unit of work the
// 12M-subnet scan multiplies — over distinct client /24s, as the scan
// sends them. allocs/op is the headline number.
func BenchmarkExchangeMemTransport(b *testing.B) {
	w := netsim.NewWorld(netsim.Params{Seed: 3, Scale: 0.0005})
	srv := NewAuthServer(w, netsim.MonthApr, nil)
	tr := &MemTransport{Handler: srv, Source: netip.MustParseAddr("198.51.100.53")}
	ctx := context.Background()
	subnets := clientSlash24s(w)
	q := ecsQuery(1, MaskDomain, subnets[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.SetECS(subnets[i%len(subnets)])
		resp, err := tr.Exchange(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		dnswire.ReleaseMessage(resp)
	}
}

// BenchmarkExchangeUDP measures the full wire round trip over a loopback
// socket: pooled receive buffers and the worker pool on the server side,
// the reused socket on the client side. Syscalls dominate ns/op; the
// interesting column is again allocs/op.
func BenchmarkExchangeUDP(b *testing.B) {
	w := netsim.NewWorld(netsim.Params{Seed: 3, Scale: 0.0005})
	srv := NewAuthServer(w, netsim.MonthApr, nil)
	us, err := ListenUDP("127.0.0.1:0", srv)
	if err != nil {
		b.Fatal(err)
	}
	defer us.Close()
	client := &UDPClient{ServerAddr: us.Addr().String(), Timeout: 5 * time.Second}
	ctx := context.Background()
	q := ecsQuery(1, MaskDomain, clientSubnetOf(w, 0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Exchange(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		dnswire.ReleaseMessage(resp)
	}
}

func TestUDPServerConcurrentClients(t *testing.T) {
	w, srv := testSetup(t)
	us, err := ListenUDP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer us.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := &UDPClient{ServerAddr: us.Addr().String(), Timeout: 3 * time.Second, Retries: 2}
			for i := 0; i < 20; i++ {
				subnet := clientSubnetOf(w, (g+i)%len(w.ClientASes))
				resp, err := cl.Exchange(context.Background(), ecsQuery(uint16(g*100+i), MaskDomain, subnet))
				if err != nil {
					errs <- err
					return
				}
				if len(resp.Answers) == 0 {
					errs <- ErrTimeout
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent UDP exchange: %v", err)
	}
}

// TestAuthServerAnswersAnySpelling pins the served-name fast path:
// Handle compares the query name with the three served names as it is
// and lowers it only otherwise, so a mixed-case or undotted spelling
// must get exactly the answer the canonical name gets.
func TestAuthServerAnswersAnySpelling(t *testing.T) {
	w, srv := testSetup(t)
	subnet := clientSubnetOf(w, 0)
	from := netip.MustParseAddr("198.51.100.1")
	spellings := map[string][]string{
		MaskDomain:   {"MASK.iCloud.COM.", "mask.icloud.com", "Mask.Icloud.Com"},
		MaskH2Domain: {"MASK-H2.ICLOUD.COM.", "mask-h2.icloud.com"},
		WhoamiDomain: {"WhoAmI.Akamai.Example.", "whoami.akamai.example"},
	}
	type answer struct {
		header  dnswire.Header
		answers []dnswire.Record
		ecs     *dnswire.ClientSubnet
	}
	ask := func(name string, qtype dnswire.Type) answer {
		q := dnswire.NewQuery(7, name, qtype).WithECS(subnet)
		q.Questions[0].Name = name
		resp := srv.Handle(q, from)
		a := answer{header: resp.Header, answers: slices.Clone(resp.Answers)}
		for i := range a.answers {
			// whoami echoes the query's spelling as the owner name.
			a.answers[i].Name = dnswire.CanonicalName(a.answers[i].Name)
		}
		if resp.Edns != nil && resp.Edns.ClientSubnet != nil {
			cs := *resp.Edns.ClientSubnet
			a.ecs = &cs
		}
		dnswire.ReleaseMessage(resp)
		return a
	}
	for canonical, others := range spellings {
		for _, qtype := range []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeTXT} {
			want := ask(canonical, qtype)
			if want.header.RCode != dnswire.RCodeNoError {
				t.Fatalf("%s %v: rcode %v", canonical, qtype, want.header.RCode)
			}
			for _, name := range others {
				if got := ask(name, qtype); !reflect.DeepEqual(got, want) {
					t.Errorf("%q %v answered\n%+v\nwant (as %q)\n%+v", name, qtype, got, canonical, want)
				}
			}
		}
	}
	if got := ask("MASK.icloud.com.evil.", dnswire.TypeA); got.header.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("unserved name: rcode %v, want NXDOMAIN", got.header.RCode)
	}
}
