package iputil_test

import (
	"fmt"
	"net/netip"

	"github.com/relay-networks/privaterelay/internal/iputil"
)

func ExampleFlatten() {
	spans := []iputil.Span[string]{
		{Prefix: netip.MustParsePrefix("23.0.0.0/8"), Val: "AkamaiEdge"},
		{Prefix: netip.MustParsePrefix("23.32.0.0/11"), Val: "AkamaiPR"},
	}
	table := iputil.Flatten(spans)

	for _, addr := range []string{"23.34.5.6", "23.200.0.1"} {
		route := table.At(table.Lookup(netip.MustParseAddr(addr)))
		fmt.Println(route.Prefix, route.Val)
	}
	// Output:
	// 23.32.0.0/11 AkamaiPR
	// 23.0.0.0/8 AkamaiEdge
}

func ExampleSubnets() {
	// Enumerate the /24 client subnets of an announcement, as the ECS
	// scanner does over the routed universe.
	n := 0
	iputil.Subnets(netip.MustParsePrefix("198.51.100.0/22"), 24, func(p netip.Prefix) bool {
		n++
		return true
	})
	fmt.Println(n, "subnets")
	// Output: 4 subnets
}
