// detect-relay-traffic: the §6 use case for network operators. A passive
// observer (ISP, IDS) builds a classifier from the scanned ingress
// dataset and the published egress list, then labels a stream of
// synthetic flows: client→ingress connections reveal *that* Private Relay
// is in use (but not the visited service), and flows arriving from
// egress subnets explain rotating source addresses that would otherwise
// look anomalous to a DDoS heuristic.
package main

import (
	"context"
	"fmt"
	"log"
	"net/netip"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/core"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/egress"
	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/netsim"
)

func main() {
	ctx := context.Background()
	world := netsim.NewWorld(netsim.Params{Seed: 21, Scale: 0.0008})

	// The operator's two public inputs: an ingress scan (both planes)
	// and Apple's egress list.
	auth := dnsserver.NewAuthServer(world, netsim.MonthApr, nil)
	mem := &dnsserver.MemTransport{Handler: auth, Source: netip.MustParseAddr("198.51.100.53")}
	scanCfg := core.ScanConfig{
		Exchanger: mem, Universe: world.RoutedV4Prefixes(),
		Attribution: world.Table, RespectScope: true,
	}
	scanCfg.Domain = dnsserver.MaskDomain
	defaultDS, err := core.Scan(ctx, scanCfg)
	if err != nil {
		log.Fatal(err)
	}
	scanCfg.Domain = dnsserver.MaskH2Domain
	fallbackDS, err := core.Scan(ctx, scanCfg)
	if err != nil {
		log.Fatal(err)
	}

	list := egress.Generate(world, 21)
	egressSubnets := map[netip.Prefix]bgp.ASN{}
	for _, a := range egress.AttributeN(list, world.Table, 0) {
		if a.AS != 0 {
			egressSubnets[a.Prefix] = a.AS
		}
	}

	classifier := core.NewClassifier(&defaultDS.Dataset, egressSubnets)
	classifier.AddIngress(&fallbackDS.Dataset)
	fmt.Printf("classifier: %d ingress addresses, %d egress subnets\n\n",
		defaultDS.Addrs()+fallbackDS.Addrs(), len(egressSubnets))

	// Synthetic flow log: a mix of relay and ordinary traffic.
	client := world.ClientASes[2].Prefixes[0].Addr().Next()
	ingress := defaultDS.AddressesOf(netsim.ASAkamaiPR)[0]
	var egressAddr netip.Addr
	for _, a := range egress.AttributeN(list, world.Table, 0) {
		if a.AS == netsim.ASCloudflare && a.Prefix.Addr().Is4() {
			egressAddr = iputil.AddrAtIndex(a.Prefix, 0)
			break
		}
	}
	webServer := netip.MustParseAddr("203.0.113.80")

	flows := []struct {
		src, dst netip.Addr
		note     string
	}{
		{client, ingress, "subscriber opening a relay tunnel"},
		{client, webServer, "ordinary direct browsing"},
		{egressAddr, webServer, "relay egress fetching a page"},
		{webServer, client, "response traffic"},
	}
	fmt.Println("flow log as seen by a passive observer:")
	for _, f := range flows {
		class, as := classifier.Classify(f.src, f.dst)
		label := class.String()
		if as != 0 {
			label += " via " + netsim.ASName(as)
		}
		fmt.Printf("  %-18v → %-18v %-28s (%s)\n", f.src, f.dst, label, f.note)
	}

	// Aggregate view: with many subscribers, the ingress becomes the
	// network's most active destination while visited services vanish.
	var flowLog []core.Flow
	for i := 0; i < 40; i++ {
		flowLog = append(flowLog, core.Flow{Src: client, Dst: ingress, Bytes: 1500})
	}
	for i := 0; i < 25; i++ {
		flowLog = append(flowLog, core.Flow{
			Src: client, Dst: netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)}), Bytes: 3000,
		})
	}
	report := classifier.AnalyzeFlows(flowLog)
	fmt.Printf("\naggregated flow log: %d flows, ingress rank #%d among destinations, %.0f%% of bytes service-hidden\n",
		report.Flows, report.IngressRank, report.HiddenByteShare()*100)

	fmt.Println("\noperator takeaways (§6):")
	fmt.Println(" - ingress flows identify relay *usage*; the visited service stays hidden")
	fmt.Println(" - ingress relays appear as highly active destinations in flow logs")
	fmt.Println(" - egress-subnet sources rotate per connection; IDS allowlists should use the published list")
}
