// Quickstart: generate a small world, enumerate the April ingress fleet
// with an ECS scan, and send one request through the relay — the minimal
// end-to-end tour of the library.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/netip"
	"slices"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/core"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/egress"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/relay"
	"github.com/relay-networks/privaterelay/internal/resolver"
	"github.com/relay-networks/privaterelay/internal/scan"
)

func main() {
	ctx := context.Background()

	// 1. A deterministic slice of the Internet: five service ASes plus a
	//    scaled-down client universe.
	world := netsim.NewWorld(netsim.Params{Seed: 7, Scale: 0.0008})
	fmt.Printf("world: %d client ASes, %d routed /24s\n",
		len(world.ClientASes), world.ClientSlash24Count())

	// 2. Enumerate ingress relays via ECS, exactly like the paper's scan.
	auth := dnsserver.NewAuthServer(world, netsim.MonthApr, nil)
	dataset, err := core.Scan(ctx, core.ScanConfig{
		Exchanger:    &dnsserver.MemTransport{Handler: auth, Source: netip.MustParseAddr("198.51.100.53")},
		Domain:       dnsserver.MaskDomain,
		Universe:     world.RoutedV4Prefixes(),
		Attribution:  world.Table,
		RespectScope: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ECS scan: %d ingress addresses (%d queries, %d skipped via scope)\n",
		dataset.Addrs(), dataset.Stats.QueriesSent, dataset.Stats.SubnetsSkipped)
	counts := dataset.OperatorCounts()
	ases := make([]bgp.ASN, 0, len(counts))
	for as := range counts {
		ases = append(ases, as)
	}
	slices.Sort(ases)
	for _, as := range ases {
		fmt.Printf("  %-9s %d\n", netsim.ASName(as), counts[as])
	}

	// 3. Bring up the relay itself and tunnel one request through it.
	list := egress.Generate(world, 7)
	dep := relay.NewDeployment(world, list)
	client := world.ClientASes[0].Prefixes[0].Addr().Next()
	svc, err := relay.StartService(dep, relay.ServiceConfig{Client: client, Month: netsim.MonthApr, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	res := resolver.New(netip.MustParseAddr("9.9.9.9"),
		&dnsserver.MemTransport{Handler: auth, Source: netip.MustParseAddr("9.9.9.9")})
	device := &relay.Device{Client: client, Resolver: res, Service: svc, Account: "quickstart", Day: "2022-05-11"}

	echo, err := scan.StartEchoServer()
	if err != nil {
		log.Fatal(err)
	}
	defer echo.Close()

	tunnel, err := device.Connect(ctx)
	if err != nil {
		log.Fatal(err)
	}
	defer tunnel.Close()
	fmt.Printf("tunnel: ingress %v (%s), egress operator %s\n",
		tunnel.IngressAddr, netsim.ASName(tunnel.IngressAS), netsim.ASName(tunnel.Operator))

	stream, egressAddr, err := tunnel.Open(echo.Addr())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(stream, "GET /plain\n")
	body, _ := io.ReadAll(stream)
	stream.Close()
	fmt.Printf("echo service saw egress address %s (tunnel reported %v)\n",
		string(body[:len(body)-1]), egressAddr)
	fmt.Printf("client address %v never reached the target\n", client)
}
