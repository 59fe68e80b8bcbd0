package scan

import (
	"context"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/egress"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/relay"
	"github.com/relay-networks/privaterelay/internal/resolver"
)

var (
	scanWorld *netsim.World
	scanDep   *relay.Deployment
	scanOnce  sync.Once
)

func testHarness(t testing.TB) (*relay.Deployment, *relay.Device, *WebServer, *EchoServer) {
	t.Helper()
	scanOnce.Do(func() {
		scanWorld = netsim.NewWorld(netsim.Params{Seed: 15, Scale: 0.0005})
		scanDep = relay.NewDeployment(scanWorld, egress.Generate(scanWorld, 15))
	})
	dep := scanDep
	client := dep.World.ClientASes[1].Prefixes[0].Addr().Next()
	svc, err := relay.StartService(dep, relay.ServiceConfig{Client: client, Month: netsim.MonthApr, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	svc.Issuer.DailyLimit = 1 << 20 // scans establish many tunnels

	auth := dnsserver.NewAuthServer(dep.World, netsim.MonthApr, nil)
	res := resolver.New(netip.MustParseAddr("9.9.9.9"),
		&dnsserver.MemTransport{Handler: auth, Source: netip.MustParseAddr("9.9.9.9")})
	dev := &relay.Device{Client: client, Resolver: res, Service: svc, Account: "scanner", Day: "2022-05-11"}

	ws, err := StartWebServer()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ws.Close)
	es, err := StartEchoServer()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(es.Close)
	return dep, dev, ws, es
}

func TestScanRoundCollectsBothRequests(t *testing.T) {
	_, dev, ws, es := testHarness(t)
	obs, err := Run(context.Background(), Config{
		Device: dev, Web: ws, Echo: es, Rounds: 5, Interval: 5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 5 {
		t.Fatalf("observations = %d", len(obs))
	}
	for i, o := range obs {
		if o.Failed {
			t.Fatalf("round %d failed", i)
		}
		if !o.SafariEgress.IsValid() || !o.CurlEgress.IsValid() {
			t.Fatalf("round %d missing egress observations: %+v", i, o)
		}
		if o.At != time.Duration(i)*5*time.Minute {
			t.Fatalf("round %d virtual time %v", i, o.At)
		}
		if o.Operator == 0 {
			t.Fatalf("round %d has no operator", i)
		}
	}
}

func TestOperatorChangesOverScanDay(t *testing.T) {
	dep, dev, ws, es := testHarness(t)
	// A scan day at 5-minute cadence: 288 rounds (Figure 3).
	obs, err := Run(context.Background(), Config{
		Device: dev, Web: ws, Echo: es, Rounds: 288, Interval: 5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	changes := OperatorChanges(obs)
	if len(changes) == 0 {
		t.Fatal("no operator changes over the scan day")
	}
	if len(changes) > 60 {
		t.Fatalf("%d operator changes — selection should be mostly stable", len(changes))
	}
	// Only Cloudflare and AkamaiPR appear (Fastly absent at this
	// location unless the hash made it present — then it may appear too).
	ops := map[string]bool{}
	for _, o := range obs {
		if !o.Failed {
			ops[netsim.ASName(o.Operator)] = true
		}
	}
	if !ops["AkamaiPR"] && !ops["Cloudflare"] {
		t.Fatalf("unexpected operator set: %v", ops)
	}
	_ = dep
}

func TestRotationStats48h(t *testing.T) {
	dep, dev, ws, es := testHarness(t)
	// 48 hours at 30 s cadence would be 5760 rounds; 600 suffice for
	// stable statistics in the simulator.
	obs, err := Run(context.Background(), Config{
		Device: dev, Web: ws, Echo: es, Rounds: 600, Interval: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := dep.GeoDB()
	st := Rotation(obs, func(a netip.Addr) (netip.Prefix, bool) {
		p, _, ok := db.Network(a)
		return p, ok
	})
	// §4.3: six distinct addresses from four subnets; >66 % change rate.
	if st.DistinctAddrs < 5 || st.DistinctAddrs > 12 {
		t.Errorf("distinct addrs = %d, want ≈6 per operator pool", st.DistinctAddrs)
	}
	if st.DistinctSubnets < 3 || st.DistinctSubnets > 10 {
		t.Errorf("distinct subnets = %d, want ≈4 per operator pool", st.DistinctSubnets)
	}
	if st.ChangeRate <= 0.66 {
		t.Errorf("change rate = %.2f, want >0.66", st.ChangeRate)
	}
	if st.ParallelDiffer == 0 {
		t.Error("parallel Safari/curl requests never differed in egress address")
	}
	if st.Rounds != 600 {
		t.Errorf("rounds = %d", st.Rounds)
	}
}

func TestRotationFallbackAggregation(t *testing.T) {
	obs := []Observation{
		{CurlEgress: netip.MustParseAddr("172.224.224.1")},
		{CurlEgress: netip.MustParseAddr("172.224.224.2")},
		{CurlEgress: netip.MustParseAddr("172.224.225.1")},
	}
	st := Rotation(obs, nil)
	if st.DistinctAddrs != 3 || st.DistinctSubnets != 2 {
		t.Fatalf("fallback aggregation: %+v", st)
	}
	if st.ChangeRate != 1.0 {
		t.Fatalf("change rate = %v", st.ChangeRate)
	}
}

func TestOperatorChangesSkipsFailedRounds(t *testing.T) {
	obs := []Observation{
		{Round: 0, Operator: netsim.ASCloudflare},
		{Round: 1, Failed: true},
		{Round: 2, Operator: netsim.ASCloudflare},
		{Round: 3, Operator: netsim.ASAkamaiPR},
	}
	changes := OperatorChanges(obs)
	if len(changes) != 1 || changes[0].Round != 3 {
		t.Fatalf("changes = %+v", changes)
	}
	if changes[0].From != netsim.ASCloudflare || changes[0].To != netsim.ASAkamaiPR {
		t.Fatalf("change endpoints: %+v", changes[0])
	}
}

func TestForcedIngressDoesNotChangeEgressBehaviour(t *testing.T) {
	dep, dev, ws, es := testHarness(t)
	open, err := Run(context.Background(), Config{Device: dev, Web: ws, Echo: es, Rounds: 60, Interval: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Force a fixed ingress (§3 fixed-DNS scan), then repeat.
	forced := dep.World.IngressFleet(netsim.ASAkamaiPR, netsim.MonthApr, netsim.ProtoDefault, netsim.FamilyV4, 0)[3]
	dev.Resolver.AddLocalZone(dnsserver.MaskDomain, forcedZone(forced))
	defer dev.Resolver.ClearLocalZone(dnsserver.MaskDomain)
	fixed, err := Run(context.Background(), Config{Device: dev, Web: ws, Echo: es, Rounds: 60, Interval: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	db := dep.GeoDB()
	lookup := func(a netip.Addr) (netip.Prefix, bool) { p, _, ok := db.Network(a); return p, ok }
	so, sf := Rotation(open, lookup), Rotation(fixed, lookup)
	// §4.3: no egress behaviour difference when forcing the ingress.
	if sf.ChangeRate <= 0.5 {
		t.Fatalf("fixed-scan change rate collapsed: %.2f", sf.ChangeRate)
	}
	if diff := sf.DistinctAddrs - so.DistinctAddrs; diff > 4 || diff < -4 {
		t.Fatalf("distinct addrs diverge: open=%d fixed=%d", so.DistinctAddrs, sf.DistinctAddrs)
	}
}

// forcedZone builds the unbound-style local records for one ingress.
func forcedZone(addr netip.Addr) []dnswire.Record {
	return []dnswire.Record{{
		Name: dnsserver.MaskDomain, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60, Addr: addr,
	}}
}
