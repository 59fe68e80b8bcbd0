// Package integration_test drives whole-system flows over real loopback
// sockets: ECS enumeration through actual UDP DNS, scans against a
// rate-limited authoritative server, and the relay client resolving
// through a live resolver chain before tunneling over TCP.
package integration_test

import (
	"context"
	"io"
	"net/netip"
	"testing"
	"time"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/colstore"
	"github.com/relay-networks/privaterelay/internal/core"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/egress"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/relay"
	"github.com/relay-networks/privaterelay/internal/resolver"
	"github.com/relay-networks/privaterelay/internal/scan"
)

// smallWorld keeps socket-bound tests fast (~2.5k routed /24s).
func smallWorld(t testing.TB, seed uint64) *netsim.World {
	t.Helper()
	return netsim.NewWorld(netsim.Params{Seed: seed, Scale: 0.0002})
}

func TestECSScanOverRealUDP(t *testing.T) {
	w := smallWorld(t, 101)
	srv := dnsserver.NewAuthServer(w, netsim.MonthApr, nil)

	us, err := dnsserver.ListenUDP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer us.Close()

	wire := &dnsserver.UDPClient{ServerAddr: us.Addr().String(), Timeout: 2 * time.Second, Retries: 2}
	overUDP, err := core.Scan(context.Background(), core.ScanConfig{
		Exchanger:    wire,
		Domain:       dnsserver.MaskDomain,
		Universe:     w.RoutedV4Prefixes(),
		Attribution:  w.Table,
		RespectScope: true,
		Concurrency:  32,
		Retries:      2,
	})
	if err != nil {
		t.Fatal(err)
	}

	inMem, err := core.Scan(context.Background(), core.ScanConfig{
		Exchanger:    &dnsserver.MemTransport{Handler: srv, Source: netip.MustParseAddr("127.0.0.1")},
		Domain:       dnsserver.MaskDomain,
		Universe:     w.RoutedV4Prefixes(),
		Attribution:  w.Table,
		RespectScope: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	if overUDP.Addrs() != inMem.Addrs() {
		t.Fatalf("UDP scan found %d addrs, in-memory found %d", overUDP.Addrs(), inMem.Addrs())
	}
	colstore.Diff(&inMem.Dataset, &overUDP.Dataset, func(c colstore.Change) bool {
		t.Fatalf("address %v differs across transports (%v)", c.Addr, c.Kind)
		return false
	})
}

func TestScanAgainstRateLimitedServer(t *testing.T) {
	w := smallWorld(t, 102)
	// Tight limiter: 2000 qps, burst 50 — the scan must pace itself and
	// retry dropped queries to stay complete (the paper's 40-hour scan is
	// the same dance at Internet scale).
	limiter := dnsserver.NewRateLimiter(2000, 50, nil)
	srv := dnsserver.NewAuthServer(w, netsim.MonthApr, limiter)
	mt := &dnsserver.MemTransport{Handler: srv, Source: netip.MustParseAddr("127.0.0.9")}

	ds, err := core.Scan(context.Background(), core.ScanConfig{
		Exchanger:    mt,
		Domain:       dnsserver.MaskDomain,
		Universe:     w.RoutedV4Prefixes(),
		Attribution:  w.Table,
		RespectScope: true,
		Concurrency:  8,
		Retries:      4,
		QPS:          1500, // client politeness below the server limit
	})
	if err != nil {
		t.Fatal(err)
	}
	// The property under test: pacing + retries lose nothing relative to
	// an unthrottled scan of the same world. (Absolute fleet coverage is
	// a world-scale property tested in internal/core at larger scale.)
	unthrottled, err := core.Scan(context.Background(), core.ScanConfig{
		Exchanger:    &dnsserver.MemTransport{Handler: dnsserver.NewAuthServer(w, netsim.MonthApr, nil), Source: netip.MustParseAddr("127.0.0.9")},
		Domain:       dnsserver.MaskDomain,
		Universe:     w.RoutedV4Prefixes(),
		Attribution:  w.Table,
		RespectScope: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Addrs() != unthrottled.Addrs() {
		t.Fatalf("rate-limited scan found %d addrs, unthrottled found %d (timeouts=%d)",
			ds.Addrs(), unthrottled.Addrs(), ds.Stats.Timeouts)
	}
	unthrottled.ForEachAddr(func(a netip.Addr, _ bgp.ASN) bool {
		if _, ok := ds.Lookup(a); !ok {
			t.Fatalf("rate-limited scan missed %v", a)
		}
		return true
	})
}

func TestRelayEndToEndWithLiveDNSChain(t *testing.T) {
	w := smallWorld(t, 103)
	dep := relay.NewDeployment(w, egress.Generate(w, 103))
	client := w.ClientASes[0].Prefixes[0].Addr().Next()

	svc, err := relay.StartService(dep, relay.ServiceConfig{Client: client, Month: netsim.MonthApr, Seed: 103})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Live resolver chain: device → caching resolver → UDP authoritative.
	srv := dnsserver.NewAuthServer(w, netsim.MonthApr, nil)
	us, err := dnsserver.ListenUDP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer us.Close()
	res := resolver.New(netip.MustParseAddr("127.0.0.1"),
		&dnsserver.UDPClient{ServerAddr: us.Addr().String(), Timeout: 2 * time.Second, Retries: 2})
	dev := &relay.Device{Client: client, Resolver: res, Service: svc, Account: "integ", Day: "2022-05-11"}

	ws, err := scan.StartWebServer()
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	es, err := scan.StartEchoServer()
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()

	obs, err := scan.Run(context.Background(), scan.Config{
		Device: dev, Web: ws, Echo: es, Rounds: 12, Interval: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ok := 0
	for _, o := range obs {
		if !o.Failed && o.SafariEgress.IsValid() && o.CurlEgress.IsValid() {
			ok++
		}
	}
	if ok != len(obs) {
		t.Fatalf("%d/%d rounds succeeded over the live chain", ok, len(obs))
	}
	// The resolver cache kept the DNS load sublinear in rounds.
	if res.CacheMisses >= res.CacheHits+res.CacheMisses && res.CacheHits == 0 {
		t.Fatalf("no cache hits across %d rounds", len(obs))
	}
}

func TestDeviceBlockedThenUnblockedLive(t *testing.T) {
	w := smallWorld(t, 104)
	dep := relay.NewDeployment(w, egress.Generate(w, 104))
	client := w.ClientASes[1].Prefixes[0].Addr().Next()
	svc, err := relay.StartService(dep, relay.ServiceConfig{Client: client, Month: netsim.MonthApr, Seed: 104})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	srv := dnsserver.NewAuthServer(w, netsim.MonthApr, nil)
	res := resolver.New(netip.MustParseAddr("127.0.0.2"),
		&dnsserver.MemTransport{Handler: srv, Source: netip.MustParseAddr("127.0.0.2")})
	dev := &relay.Device{Client: client, Resolver: res, Service: svc, Account: "integ2", Day: "2022-05-11"}

	// ISP turns on blocking: both planes fail, so the device cannot
	// connect at all — the whitepaper's documented blocking lever.
	res.Block("icloud.com", resolver.PolicyNXDomain)
	if _, err := dev.Connect(context.Background()); err != relay.ErrServiceBlocked {
		t.Fatalf("blocked connect err = %v", err)
	}
	// ISP lifts the block; the device recovers without restart.
	res.Block("icloud.com", resolver.PolicyNone)
	tun, err := dev.Connect(context.Background())
	if err != nil {
		t.Fatalf("post-unblock connect: %v", err)
	}
	defer tun.Close()

	es, err := scan.StartEchoServer()
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	s, egressAddr, err := tun.Open(es.Addr())
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(s, "GET /plain\n")
	body, _ := io.ReadAll(s)
	s.Close()
	if string(body) != egressAddr.String()+"\n" {
		t.Fatalf("echo = %q, egress %v", body, egressAddr)
	}
}
