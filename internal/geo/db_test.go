package geo

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"strconv"
	"sync"
	"testing"

	"github.com/relay-networks/privaterelay/internal/iputil"
)

// randPrefix draws a prefix from a deliberately narrow address space so
// generated sets nest, share starts and repeat: only a few address bits
// vary, and lengths favour the family's extremes (/0, full length) as
// well as everything in between.
func randPrefix(r *rand.Rand) netip.Prefix {
	if r.IntN(2) == 0 {
		var b [4]byte
		b[0] = byte(r.IntN(2)) << 7
		b[1] = byte(r.IntN(4))
		b[3] = byte(r.IntN(4))
		bits := r.IntN(33)
		if r.IntN(8) == 0 {
			bits = []int{0, 32}[r.IntN(2)]
		}
		return netip.PrefixFrom(netip.AddrFrom4(b), bits).Masked()
	}
	var b [16]byte
	b[0] = byte(r.IntN(2)) << 7
	b[7] = byte(r.IntN(4))
	b[8] = byte(r.IntN(2)) << 7
	b[15] = byte(r.IntN(4))
	bits := r.IntN(129)
	if r.IntN(8) == 0 {
		bits = []int{0, 64, 128}[r.IntN(3)]
	}
	return netip.PrefixFrom(netip.AddrFrom16(b), bits).Masked()
}

// randAddrNear returns a random address inside p (or, now and then, a
// random address of either family) so lookups hit nested boundaries.
func randAddrNear(r *rand.Rand, p netip.Prefix) netip.Addr {
	if r.IntN(6) == 0 {
		p = randPrefix(r)
	}
	a := p.Addr().AsSlice()
	for i := range a {
		a[i] |= byte(r.Uint32())
	}
	// Restore the network bits so the address stays inside p.
	pb := p.Addr().AsSlice()
	for bit := 0; bit < p.Bits(); bit++ {
		mask := byte(0x80) >> (bit % 8)
		a[bit/8] = a[bit/8]&^mask | pb[bit/8]&mask
	}
	addr, _ := netip.AddrFromSlice(a)
	return addr
}

// TestDBMatchesLinearScan checks the flattened interval index against a
// linear longest-prefix scan over every Insert, over thousands of random
// mixed v4/v6 prefix sets with nesting, siblings, /0, full-length
// prefixes and re-inserts — including Inserts after a Lookup, which must
// invalidate the memoized index.
func TestDBMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewPCG(42, 7))
	for set := 0; set < 3000; set++ {
		db := NewDB(0)
		var inserted []iputil.Span[Location]
		distinct := map[netip.Prefix]bool{}
		// linear returns the last-inserted entry of the longest prefix
		// containing addr: a re-insert replaces the earlier entry.
		linear := func(addr netip.Addr) (netip.Prefix, Location, bool) {
			best := -1
			for i, e := range inserted {
				if e.Prefix.Contains(addr) && (best < 0 || e.Prefix.Bits() >= inserted[best].Prefix.Bits()) {
					best = i
				}
			}
			if best < 0 {
				return netip.Prefix{}, Location{}, false
			}
			return inserted[best].Prefix, inserted[best].Val, true
		}
		n := 1 + r.IntN(40)
		check := func() {
			for q := 0; q < 24; q++ {
				addr := randAddrNear(r, inserted[r.IntN(len(inserted))].Prefix)
				wp, wl, wok := linear(addr)
				gp, gl, gok := db.Network(addr)
				if gp != wp || gl != wl || gok != wok {
					t.Fatalf("set %d: Network(%v) = %v %+v %v, linear scan says %v %+v %v",
						set, addr, gp, gl, gok, wp, wl, wok)
				}
				if l, ok := db.Lookup(addr); l != wl || ok != wok {
					t.Fatalf("set %d: Lookup(%v) = %+v %v, linear scan says %+v %v", set, addr, l, ok, wl, wok)
				}
			}
			if db.Len() != len(distinct) {
				t.Fatalf("set %d: Len = %d, want %d distinct prefixes", set, db.Len(), len(distinct))
			}
		}
		for i := 0; i < n; i++ {
			p := randPrefix(r)
			if len(inserted) > 0 && r.IntN(5) == 0 {
				p = inserted[r.IntN(len(inserted))].Prefix // re-insert replaces
			}
			loc := Location{CountryCode: "US", City: strconv.Itoa(set) + "/" + strconv.Itoa(i)}
			db.Insert(p, loc)
			inserted = append(inserted, iputil.Span[Location]{Prefix: p, Val: loc})
			distinct[p] = true
			if r.IntN(4) == 0 {
				check()
			}
		}
		check()
	}
}

// TestDBConcurrentLookupInsert races lookups, which build and read the
// memoized index, against Inserts that invalidate it; run under -race.
func TestDBConcurrentLookupInsert(t *testing.T) {
	db := NewDB(0)
	db.Insert(netip.MustParsePrefix("10.0.0.0/8"), Location{CountryCode: "US"})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if loc, ok := db.Lookup(netip.MustParseAddr("10.1.2.3")); !ok || loc.CountryCode == "" {
					t.Errorf("Lookup = %+v %v", loc, ok)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		db.Insert(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16), Location{CountryCode: "DE"})
	}
	wg.Wait()
	if db.Len() != 201 {
		t.Fatalf("Len = %d, want 201", db.Len())
	}
}

// TestDBIgnoresInvalidPrefix: invalid prefixes (the zero
// prefix, a 4-in-6 prefix longer than 32 bits once unmapped) are dropped.
func TestDBIgnoresInvalidPrefix(t *testing.T) {
	db := NewDB(0)
	db.Insert(netip.Prefix{}, Location{CountryCode: "US"})
	db.Insert(netip.MustParsePrefix("::ffff:10.0.0.0/104"), Location{CountryCode: "DE"})
	if db.Len() != 0 {
		t.Fatalf("Len = %d, want 0", db.Len())
	}
	if loc, ok := db.Lookup(netip.MustParseAddr("10.1.2.3")); ok {
		t.Fatalf("Lookup = %+v, want a miss", loc)
	}
}

// oldCityCoords is the fmt-based coordinate formula CityCoords replaced.
func oldCityCoords(cc string, i int) (lat, lon float64) {
	lat, lon = Centroid(cc)
	h := iputil.HashString(fmt.Sprintf("city:%s:%d", cc, i))
	lat += -3.5 + float64(h%7000)/1000.0
	lon += -6 + float64((h>>13)%12000)/1000.0
	if lat > 89 {
		lat = 89
	}
	if lat < -89 {
		lat = -89
	}
	for lon > 180 {
		lon -= 360
	}
	for lon < -180 {
		lon += 360
	}
	return lat, lon
}

// TestNamesMatchSprintf pins the fmt-free names and coordinates to
// the fmt.Sprintf formulations they replaced, across the pad widths.
func TestNamesMatchSprintf(t *testing.T) {
	for _, cc := range []string{"US", "DE", "KN", "ZW"} {
		for i := -20; i <= 20000; i++ {
			if got, want := CityName(cc, i), fmt.Sprintf("%s-city-%03d", cc, i); got != want {
				t.Fatalf("CityName(%s, %d) = %q, want %q", cc, i, got, want)
			}
			if got, want := RegionName(cc, i), fmt.Sprintf("%s-region-%02d", cc, i/8); got != want {
				t.Fatalf("RegionName(%s, %d) = %q, want %q", cc, i, got, want)
			}
			lat, lon := CityCoords(cc, i)
			wlat, wlon := oldCityCoords(cc, i)
			if lat != wlat || lon != wlon {
				t.Fatalf("CityCoords(%s, %d) = %v,%v, want %v,%v", cc, i, lat, lon, wlat, wlon)
			}
		}
	}
	loc := CityLocation("FR", 1234)
	lat, lon := CityCoords("FR", 1234)
	if loc.City != "FR-city-1234" || loc.Region != "FR-region-154" || loc.Lat != lat || loc.Lon != lon {
		t.Fatalf("CityLocation = %+v", loc)
	}
}
