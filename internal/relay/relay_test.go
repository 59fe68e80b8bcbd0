package relay

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/netip"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/egress"
	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/masque"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/resolver"
)

var (
	sharedWorld *netsim.World
	sharedDep   *Deployment
	sharedOnce  sync.Once
)

func testDeployment(t testing.TB) *Deployment {
	t.Helper()
	sharedOnce.Do(func() {
		sharedWorld = netsim.NewWorld(netsim.Params{Seed: 4, Scale: 0.0005})
		sharedDep = NewDeployment(sharedWorld, egress.Generate(sharedWorld, 4))
	})
	return sharedDep
}

func clientAddr(dep *Deployment, i int) netip.Addr {
	return dep.World.ClientASes[i].Prefixes[0].Addr().Next()
}

func TestClientCountryDeterministic(t *testing.T) {
	dep := testDeployment(t)
	c := clientAddr(dep, 0)
	if dep.ClientCountry(c) != dep.ClientCountry(c) {
		t.Fatal("country not deterministic")
	}
	counts := map[string]int{}
	for i := range dep.World.ClientASes {
		counts[dep.ClientCountry(clientAddr(dep, i))]++
	}
	if counts["US"] == 0 {
		t.Fatal("no US clients at all")
	}
}

func TestClientGeohashPrecision(t *testing.T) {
	dep := testDeployment(t)
	gh := dep.ClientGeohash(clientAddr(dep, 0))
	if len(gh) != 4 {
		t.Fatalf("geohash %q, want precision 4", gh)
	}
}

func TestOperatorsAtAlwaysIncludesBigTwo(t *testing.T) {
	dep := testDeployment(t)
	sawFastly := false
	for i := range dep.World.ClientASes {
		ops := dep.OperatorsAt(clientAddr(dep, i))
		has := map[bgp.ASN]bool{}
		for _, op := range ops {
			has[op] = true
		}
		if !has[netsim.ASAkamaiPR] || !has[netsim.ASCloudflare] {
			t.Fatalf("client %d misses a ubiquitous operator: %v", i, ops)
		}
		if has[netsim.ASFastly] {
			sawFastly = true
		}
	}
	if !sawFastly {
		t.Fatal("Fastly never present anywhere — should be sparse, not absent")
	}
}

func TestSelectOperatorStickyWithBursts(t *testing.T) {
	dep := testDeployment(t)
	c := clientAddr(dep, 1)
	changes := 0
	prev := dep.SelectOperator(c, 0)
	ops := map[bgp.ASN]bool{prev: true}
	const n = 288 // a day of 5-minute rounds
	for seq := uint64(1); seq < n; seq++ {
		op := dep.SelectOperator(c, seq)
		ops[op] = true
		if op != prev {
			changes++
		}
		prev = op
	}
	if changes == 0 {
		t.Fatal("no operator changes over a scan day; Figure 3 shows a handful")
	}
	if changes > n/4 {
		t.Fatalf("%d operator changes — selection should be mostly sticky", changes)
	}
	if len(ops) < 2 {
		t.Fatal("only one operator ever selected")
	}
}

func TestEgressPoolShape(t *testing.T) {
	dep := testDeployment(t)
	c := clientAddr(dep, 2)
	for _, as := range []bgp.ASN{netsim.ASAkamaiPR, netsim.ASCloudflare} {
		pool := dep.EgressPool(c, as)
		if len(pool) != 6 {
			t.Fatalf("%v pool size = %d, want 6", as, len(pool))
		}
		subnets := map[netip.Prefix]bool{}
		for _, a := range pool {
			if origin, _ := dep.World.Table.Origin(a); origin != as {
				t.Fatalf("pool member %v not in %v", a, as)
			}
			route, _, _ := dep.World.Table.Route(a)
			subnets[route] = true
		}
		if len(subnets) < 2 {
			t.Fatalf("%v pool drawn from %d BGP prefixes; want spread", as, len(subnets))
		}
		// Deterministic.
		again := dep.EgressPool(c, as)
		for i := range pool {
			if pool[i] != again[i] {
				t.Fatal("pool not deterministic")
			}
		}
	}
}

// TestNewDeploymentSameAtAnyGOMAXPROCS: NewDeployment builds the geo
// database beside the attribution join and the per-(operator, country)
// index, so neither its lookups nor its egress pools may depend on how
// many Ps ran them.
func TestNewDeploymentSameAtAnyGOMAXPROCS(t *testing.T) {
	ref := testDeployment(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		dep := NewDeployment(ref.World, ref.List)
		want, got := ref.GeoDB(), dep.GeoDB()
		for i, e := range ref.List.Entries {
			wl, wok := want.Lookup(e.Prefix.Addr())
			gl, gok := got.Lookup(e.Prefix.Addr())
			if gl != wl || gok != wok {
				t.Fatalf("GOMAXPROCS=%d: entry %d (%v) locates at %v/%v, want %v/%v", procs, i, e.Prefix, gl, gok, wl, wok)
			}
		}
		if !slices.Equal(dep.Attributed(), ref.Attributed()) {
			t.Fatalf("GOMAXPROCS=%d: attribution differs", procs)
		}
		for i := range ref.World.ClientASes {
			c := clientAddr(ref, i)
			for _, as := range EgressOperators {
				if w, g := ref.EgressPool(c, as), dep.EgressPool(c, as); !slices.Equal(g, w) {
					t.Fatalf("GOMAXPROCS=%d: client %v %v pool = %v, want %v", procs, c, as, g, w)
				}
			}
		}
	}
}

func TestEgressPoolMatchesClientCountryEntries(t *testing.T) {
	dep := testDeployment(t)
	c := clientAddr(dep, 3)
	cc := dep.ClientCountry(c)
	pool := dep.EgressPool(c, netsim.ASCloudflare)
	db := dep.GeoDB()
	for _, a := range pool {
		loc, ok := db.Lookup(a)
		if !ok {
			t.Fatalf("pool member %v not in egress geo db", a)
		}
		if loc.CountryCode != cc {
			t.Fatalf("pool member %v located in %s, client country %s", a, loc.CountryCode, cc)
		}
	}
}

func TestIngressForMatchesWorld(t *testing.T) {
	dep := testDeployment(t)
	c := clientAddr(dep, 0)
	got := dep.IngressFor(c, netsim.MonthApr, netsim.ProtoDefault)
	want := dep.World.IngressAnswer(iputil.Slash24(c), netsim.MonthApr, netsim.ProtoDefault)
	if len(got) != len(want) {
		t.Fatalf("IngressFor = %d addrs, want %d", len(got), len(want))
	}
}

func TestBackupConnectionTargetSamePrefix(t *testing.T) {
	dep := testDeployment(t)
	ing := dep.World.IngressFleet(netsim.ASAkamaiPR, netsim.MonthApr, netsim.ProtoDefault, netsim.FamilyV4, 0)[0]
	backup, ok := dep.BackupConnectionTarget(ing)
	if !ok {
		t.Fatal("no backup target")
	}
	if backup == ing {
		t.Fatal("backup target equals ingress")
	}
	r1, _, _ := dep.World.Table.Route(ing)
	r2, _, _ := dep.World.Table.Route(backup)
	if r1 != r2 {
		t.Fatalf("backup %v not in ingress prefix %v", backup, r1)
	}
}

func TestDirectory(t *testing.T) {
	dir := NewDirectory()
	a := netip.MustParseAddr("17.0.0.1")
	dir.Register(a, "127.0.0.1:1000")
	if got, ok := dir.Resolve(a); !ok || got != "127.0.0.1:1000" {
		t.Fatalf("Resolve = %q,%v", got, ok)
	}
	if _, ok := dir.Resolve(netip.MustParseAddr("17.0.0.2")); ok {
		t.Fatal("unregistered address resolved")
	}
}

// targetServer is a preamble-aware web server standing in for the scan's
// own web server: it logs requester addresses and answers requests.
func targetServer(t testing.TB) (addr string, requesters func() []netip.Addr, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seen []netip.Addr
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(c net.Conn) {
				defer wg.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				src, err := masque.ReadSourcePreamble(br)
				if err != nil {
					return
				}
				mu.Lock()
				seen = append(seen, src)
				mu.Unlock()
				line, err := br.ReadString('\n')
				if err != nil {
					return
				}
				fmt.Fprintf(c, "HTTP/1.1 200 OK\n\nsrc=%s req=%s", src, strings.TrimSpace(line))
			}(c)
		}
	}()
	return ln.Addr().String(),
		func() []netip.Addr {
			mu.Lock()
			defer mu.Unlock()
			return append([]netip.Addr(nil), seen...)
		},
		func() { ln.Close(); wg.Wait() }
}

func startTestService(t testing.TB, dep *Deployment, client netip.Addr) (*Service, *Device) {
	t.Helper()
	svc, err := StartService(dep, ServiceConfig{Client: client, Month: netsim.MonthApr, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)

	auth := dnsserver.NewAuthServer(dep.World, netsim.MonthApr, nil)
	upstream := &dnsserver.MemTransport{Handler: auth, Source: netip.MustParseAddr("9.9.9.9")}
	res := resolver.New(netip.MustParseAddr("9.9.9.9"), upstream)
	return svc, &Device{
		Client:   client,
		Resolver: res,
		Service:  svc,
		Account:  "tester",
		Day:      "2022-05-11",
	}
}

func TestDeviceEndToEnd(t *testing.T) {
	dep := testDeployment(t)
	client := clientAddr(dep, 0)
	_, dev := startTestService(t, dep, client)
	target, requesters, stopTarget := targetServer(t)
	defer stopTarget()

	tun, err := dev.Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer tun.Close()

	if tun.Plane != netsim.ProtoDefault {
		t.Fatalf("plane = %v", tun.Plane)
	}
	if tun.IngressAS != netsim.ASApple && tun.IngressAS != netsim.ASAkamaiPR {
		t.Fatalf("ingress AS = %v", tun.IngressAS)
	}
	if !tun.BackupTarget.IsValid() {
		t.Fatal("no backup connection target")
	}

	s, egAddr, err := tun.Open(target)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(s, "GET /probe\n")
	buf := make([]byte, 256)
	n, err := s.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf[:n]), "req=GET /probe") {
		t.Fatalf("response: %q", buf[:n])
	}
	s.Close()

	// The web server observed the rotating egress address, not the client.
	seen := requesters()
	if len(seen) != 1 || seen[0] != egAddr {
		t.Fatalf("target saw %v, tunnel reported %v", seen, egAddr)
	}
	if seen[0] == client {
		t.Fatal("client address leaked to target")
	}
	if op, _ := dep.World.Table.Origin(egAddr); op != tun.Operator {
		t.Fatalf("egress %v attributed to %v, tunnel says %v", egAddr, op, tun.Operator)
	}
}

func TestDeviceEgressRotationAcrossRequests(t *testing.T) {
	dep := testDeployment(t)
	client := clientAddr(dep, 0)
	_, dev := startTestService(t, dep, client)
	target, _, stopTarget := targetServer(t)
	defer stopTarget()

	tun, err := dev.Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer tun.Close()

	seen := map[netip.Addr]bool{}
	changes, total := 0, 40
	var prev netip.Addr
	for i := 0; i < total; i++ {
		s, addr, err := tun.Open(target)
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(s, "GET /\n")
		s.Close()
		seen[addr] = true
		if i > 0 && addr != prev {
			changes++
		}
		prev = addr
	}
	if len(seen) < 3 {
		t.Fatalf("only %d egress addresses over %d requests", len(seen), total)
	}
	if len(seen) > 6 {
		t.Fatalf("%d egress addresses; pool should cap at 6", len(seen))
	}
	if rate := float64(changes) / float64(total-1); rate <= 0.5 {
		t.Fatalf("change rate %.2f too low", rate)
	}
}

func TestDeviceBlockedResolver(t *testing.T) {
	dep := testDeployment(t)
	client := clientAddr(dep, 0)
	_, dev := startTestService(t, dep, client)
	dev.Resolver.Block("icloud.com", resolver.PolicyNXDomain)
	if _, err := dev.Connect(context.Background()); err != ErrServiceBlocked {
		t.Fatalf("blocked connect err = %v", err)
	}
}

func TestDeviceFallbackPlane(t *testing.T) {
	dep := testDeployment(t)
	client := clientAddr(dep, 0)
	_, dev := startTestService(t, dep, client)
	// Block only the QUIC domain: the device must fall back to mask-h2.
	dev.Resolver.Block(dnsserver.MaskDomain, resolver.PolicyNXDomain)
	tun, err := dev.Connect(context.Background())
	if err != nil {
		t.Fatalf("fallback connect: %v", err)
	}
	defer tun.Close()
	if tun.Plane != netsim.ProtoFallback {
		t.Fatalf("plane = %v, want fallback", tun.Plane)
	}
}

func TestDeviceForcedIngress(t *testing.T) {
	dep := testDeployment(t)
	client := clientAddr(dep, 0)
	svc, dev := startTestService(t, dep, client)

	// Force a specific ingress via a local unbound zone (§3 fixed scan).
	forced := dep.World.IngressFleet(netsim.ASAkamaiPR, netsim.MonthApr, netsim.ProtoDefault, netsim.FamilyV4, 0)[7]
	dev.Resolver.AddLocalZone(dnsserver.MaskDomain, []dnswire.Record{{
		Name: dnsserver.MaskDomain, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60, Addr: forced,
	}})
	_ = svc

	tun, err := dev.Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer tun.Close()
	if tun.IngressAddr != forced {
		t.Fatalf("ingress = %v, want forced %v", tun.IngressAddr, forced)
	}
	if tun.IngressAS != netsim.ASAkamaiPR {
		t.Fatalf("forced ingress AS = %v", tun.IngressAS)
	}
}

func TestDeviceODoH(t *testing.T) {
	dep := testDeployment(t)
	client := clientAddr(dep, 0)
	_, dev := startTestService(t, dep, client)
	pr := dev.ODoHResolver()
	if pr.Name != "Cloudflare1111" {
		t.Fatalf("ODoH resolver = %s", pr.Name)
	}
	ecs := ODoHQueryECS(netip.MustParseAddr("172.224.225.9"))
	if ecs.String() != "172.224.225.0/24" {
		t.Fatalf("ODoH ECS = %v", ecs)
	}
	ecs6 := ODoHQueryECS(netip.MustParseAddr("2a02:26f7:1:2::9"))
	if ecs6.Bits() != 64 {
		t.Fatalf("ODoH v6 ECS = %v", ecs6)
	}
}

func TestDeviceTokenQuotaExhaustion(t *testing.T) {
	dep := testDeployment(t)
	client := clientAddr(dep, 0)
	svc, dev := startTestService(t, dep, client)
	svc.Issuer.DailyLimit = 2
	for i := 0; i < 2; i++ {
		tun, err := dev.Connect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		tun.Close()
	}
	if _, err := dev.Connect(context.Background()); err == nil {
		t.Fatal("third connect should hit the daily token quota")
	}
}

// TestConnectFallbackOperatorDeterministic pins the egress operator a
// device gets when SelectOperator names one with no egress pool at the
// client's location: the first eligible operator with a listener, in
// OperatorsAt order — never whichever key a map range yields first.
// The world is examples/quickstart's, whose first client hits the case.
func TestConnectFallbackOperatorDeterministic(t *testing.T) {
	world := netsim.NewWorld(netsim.Params{Seed: 7, Scale: 0.0008})
	dep := NewDeployment(world, egress.Generate(world, 7))
	client := clientAddr(dep, 0)
	svc, proto := startTestService(t, dep, client)
	if sel := dep.SelectOperator(client, 0); svc.EgressAddrOf[sel] != "" {
		t.Fatalf("SelectOperator picks %v, which has an egress listener: the fallback is not exercised", sel)
	}
	for i := 0; i < 32; i++ {
		dev := *proto // a fresh device: connection sequence 0
		tun, err := dev.Connect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		tun.Close()
		if tun.Operator != netsim.ASAkamaiPR {
			t.Fatalf("connect %d: egress operator %v, want %v", i, tun.Operator, netsim.ASAkamaiPR)
		}
	}
}

func TestDistanceBasedRTT(t *testing.T) {
	dep := testDeployment(t)
	client := clientAddr(dep, 0)
	// RTT to self: pure access latency.
	self := dep.RTT(client, client)
	if self <= 0 || self > 20*time.Millisecond {
		t.Fatalf("self RTT = %v", self)
	}
	// Symmetric.
	ing := dep.World.IngressFleet(netsim.ASAkamaiPR, netsim.MonthApr, netsim.ProtoDefault, netsim.FamilyV4, 0)[0]
	if dep.RTT(client, ing) != dep.RTT(ing, client) {
		t.Fatal("RTT not symmetric")
	}
	// Deterministic.
	if dep.RTT(client, ing) != dep.RTT(client, ing) {
		t.Fatal("RTT not deterministic")
	}
}

func TestQoEPathStructure(t *testing.T) {
	dep := testDeployment(t)
	client := clientAddr(dep, 0)
	ingress := dep.IngressFor(client, netsim.MonthApr, netsim.ProtoDefault)[0]
	egressAddr := dep.EgressPool(client, netsim.ASAkamaiPR)[0]
	target := clientAddr(dep, 5) // some remote server

	p := dep.QoEPath(client, ingress, egressAddr, target)
	if p.Direct <= 0 || p.Relay() <= 0 {
		t.Fatalf("degenerate path: %+v", p)
	}
	if p.Relay() < p.Direct {
		// Possible when the backbone shortcut dominates, but the relayed
		// path must still include all three legs.
		if p.ClientToIngress <= 0 || p.IngressToEgress < 0 || p.EgressToTarget <= 0 {
			t.Fatalf("legs: %+v", p)
		}
	}
	if p.OverheadRatio() <= 0 {
		t.Fatalf("overhead ratio = %v", p.OverheadRatio())
	}
}

func TestQoEOverheadModest(t *testing.T) {
	// Across many client/target pairs, the median relay overhead should
	// be bounded (Apple claims low impact; the egress sits near the
	// client's represented location and the middle leg is accelerated).
	dep := testDeployment(t)
	var ratios []float64
	n := len(dep.World.ClientASes)
	for i := 0; i < n; i++ {
		client := clientAddr(dep, i)
		ingList := dep.IngressFor(client, netsim.MonthApr, netsim.ProtoDefault)
		pool := dep.EgressPool(client, netsim.ASAkamaiPR)
		if len(ingList) == 0 || len(pool) == 0 {
			continue
		}
		target := clientAddr(dep, (i+7)%n)
		p := dep.QoEPath(client, ingList[0], pool[0], target)
		ratios = append(ratios, p.OverheadRatio())
	}
	if len(ratios) < 10 {
		t.Fatal("too few samples")
	}
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	if median > 6 {
		t.Fatalf("median relay overhead ×%.1f — model miscalibrated", median)
	}
	if median < 1 {
		t.Logf("relay is faster than direct at the median (×%.2f) — backbone dominates", median)
	}
}
