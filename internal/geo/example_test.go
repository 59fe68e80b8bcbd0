package geo_test

import (
	"fmt"
	"net/netip"

	"github.com/relay-networks/privaterelay/internal/geo"
)

func ExampleEncodeGeohash() {
	// The coarse location hash the relay forwards to the egress in
	// region-preserving mode (precision 4 ≈ a metro-area cell).
	fmt.Println(geo.EncodeGeohash(57.64911, 10.40744, 4))
	// Output: u4pr
}

func ExampleDistanceKm() {
	munich := [2]float64{48.14, 11.58}
	newYork := [2]float64{40.71, -74.01}
	km := geo.DistanceKm(munich[0], munich[1], newYork[0], newYork[1])
	fmt.Println(km > 6300 && km < 6600)
	// Output: true
}

func ExampleDB_Lookup() {
	db := geo.NewDB(1)
	db.Insert(netip.MustParsePrefix("172.224.224.0/27"),
		geo.Location{CountryCode: "US", City: "US-city-001"})
	loc, ok := db.Lookup(netip.MustParseAddr("172.224.224.9"))
	fmt.Println(ok, loc.CountryCode, loc.City)
	// Output: true US US-city-001
}
