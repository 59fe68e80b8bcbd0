// Package geo provides the geolocation substrate: a country catalog with
// centroids, a deterministic city catalog, geohash encoding, and a
// prefix-indexed location database in the spirit of MaxMind GeoLite2.
//
// The paper observes that commercial geolocation databases adopted Apple's
// published egress mapping, i.e. they describe the represented client
// location rather than the relay's physical location. The DB here is
// likewise built *from* the egress list, reproducing that property.
package geo

import (
	"fmt"
	"net/netip"
	"strconv"
	"sync"

	"github.com/relay-networks/privaterelay/internal/iputil"
)

// Location is a geolocated place: country, region, city and coordinates.
// City may be empty (1.6 % of egress subnets in the paper omit the city).
type Location struct {
	CountryCode string
	Region      string
	City        string
	Lat, Lon    float64
}

// String renders the location like the egress list columns.
func (l Location) String() string {
	if l.City == "" {
		return l.CountryCode
	}
	return fmt.Sprintf("%s/%s/%s", l.CountryCode, l.Region, l.City)
}

// Geohash returns the location's geohash at the given precision.
func (l Location) Geohash(precision int) string {
	return EncodeGeohash(l.Lat, l.Lon, precision)
}

// CityName returns the deterministic name of the i-th synthetic city of a
// country. Real city names are irrelevant to the analysis; what matters is
// a stable identity per (country, index).
func CityName(cc string, i int) string { return catalogName(cc, "-city-", i, 3) }

// RegionName returns the deterministic region containing city index i.
// Cities are grouped eight per region.
func RegionName(cc string, i int) string { return catalogName(cc, "-region-", i/8, 2) }

// catalogName formats cc, kind and i, with i zero-padded exactly as fmt's
// %0<width>d does, in one allocation.
func catalogName(cc, kind string, i, width int) string {
	var buf [32]byte
	b := append(append(buf[:0], cc...), kind...)
	if i < 0 {
		b, i, width = append(b, '-'), -i, width-1
	}
	for p := 10; width > 1; p, width = p*10, width-1 {
		if i < p {
			b = append(b, '0')
		}
	}
	return string(strconv.AppendInt(b, int64(i), 10))
}

// CityCoords returns the coordinates of the i-th city of cc, jittered
// deterministically around the country centroid; they are the Lat/Lon of
// CityLocation(cc, i), without formatting the names.
func CityCoords(cc string, i int) (lat, lon float64) {
	lat, lon = Centroid(cc)
	var buf [32]byte
	key := strconv.AppendInt(append(append(append(buf[:0], "city:"...), cc...), ':'), int64(i), 10)
	h := iputil.HashString(string(key)) // a non-escaping conversion: no copy on the heap
	// Jitter within ±3.5° lat, ±6° lon — keeps points inside a country-
	// sized blob while separating cities on a map.
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

// CityLocation returns the full Location of the i-th city of cc, jittered
// deterministically around the country centroid.
func CityLocation(cc string, i int) Location {
	lat, lon := CityCoords(cc, i)
	return Location{
		CountryCode: cc,
		Region:      RegionName(cc, i),
		City:        CityName(cc, i),
		Lat:         lat,
		Lon:         lon,
	}
}

// DB is a longest-prefix-match geolocation database: the first lookup
// after an Insert flattens the entries with iputil.Flatten, as bgp.Index
// does. The zero value is not usable; call NewDB.
type DB struct {
	mu      sync.RWMutex
	entries []iputil.Span[Location]
	idx     *iputil.Flat[Location]
}

// NewDB returns an empty geolocation database with room for n entries,
// so a builder that knows its row count (the 240 k-row egress list)
// inserts them without regrowing the backing array. n is a capacity
// hint; Insert still grows past it.
func NewDB(n int) *DB {
	return &DB{entries: make([]iputil.Span[Location], 0, max(n, 0))}
}

// Insert maps prefix p to loc, replacing any previous entry for p.
// Invalid prefixes are ignored.
func (db *DB) Insert(p netip.Prefix, loc Location) {
	p = iputil.CanonicalPrefix(p)
	if !p.IsValid() {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.entries = append(db.entries, iputil.Span[Location]{Prefix: p, Val: loc})
	db.idx = nil
}

// index returns the flattened entries, building them on first use. Later
// Inserts append past the snapshot's length, so it stays valid.
func (db *DB) index() *iputil.Flat[Location] {
	db.mu.RLock()
	ix := db.idx
	db.mu.RUnlock()
	if ix != nil {
		return ix
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.idx == nil {
		f := iputil.Flatten(db.entries)
		db.idx = &f
	}
	return db.idx
}

// Lookup geolocates addr via longest-prefix match.
func (db *DB) Lookup(addr netip.Addr) (Location, bool) {
	_, loc, ok := db.Network(addr)
	return loc, ok
}

// LookupPrefix geolocates the network address of p.
func (db *DB) LookupPrefix(p netip.Prefix) (Location, bool) {
	return db.Lookup(iputil.CanonicalPrefix(p).Addr())
}

// Network returns the matched database prefix for addr alongside its
// location — callers use it to attribute an address to its listed subnet.
func (db *DB) Network(addr netip.Addr) (netip.Prefix, Location, bool) {
	addr = iputil.Canonical(addr)
	if !addr.IsValid() {
		return netip.Prefix{}, Location{}, false
	}
	ix := db.index()
	i := ix.Lookup(addr)
	if i < 0 {
		return netip.Prefix{}, Location{}, false
	}
	e := ix.At(i)
	return e.Prefix, e.Val, true
}

// Len returns the number of distinct prefixes.
func (db *DB) Len() int {
	return db.index().Prefixes()
}
