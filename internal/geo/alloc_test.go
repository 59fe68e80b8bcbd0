//go:build !race

// Allocation-regression pins for the geolocation lookups the relay
// latency model runs per QoE sample and per through-relay request. These
// run without the race detector (its instrumentation makes AllocsPerRun
// report noise); `make alloc` gives them their own non-race invocation.
package geo

import (
	"net/netip"
	"testing"
)

func TestDBLookupZeroAlloc(t *testing.T) {
	db := NewDB(512)
	for i := 0; i < 256; i++ {
		db.Insert(netip.PrefixFrom(netip.AddrFrom4([4]byte{172, 224, byte(i), 0}), 24), CityLocation("US", i))
		db.Insert(netip.PrefixFrom(netip.AddrFrom16([16]byte{0x26, 0x02, 0xfc, 0x00, 0, byte(i)}), 64), CityLocation("DE", i))
	}
	v4 := netip.MustParseAddr("172.224.77.9")
	v6 := netip.MustParseAddr("2602:fc00:4d::1")
	db.Lookup(v4) // build the interval index outside the measurement
	if n := testing.AllocsPerRun(1000, func() {
		if _, ok := db.Lookup(v4); !ok {
			t.Fatal("v4 miss")
		}
		if _, ok := db.Lookup(v6); !ok {
			t.Fatal("v6 miss")
		}
	}); n != 0 {
		t.Fatalf("Lookup allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, _, ok := db.Network(v4); !ok {
			t.Fatal("v4 miss")
		}
		if _, _, ok := db.Network(v6); !ok {
			t.Fatal("v6 miss")
		}
	}); n != 0 {
		t.Fatalf("Network allocs/op = %v, want 0", n)
	}
}
