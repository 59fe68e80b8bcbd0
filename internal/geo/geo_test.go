package geo

import (
	"math"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestAllCountryCodesAssigned(t *testing.T) {
	if len(AllCountryCodes) != 249 {
		t.Fatalf("country codes = %d, want 249 assigned alpha-2 codes", len(AllCountryCodes))
	}
	seen := map[string]bool{}
	for _, cc := range AllCountryCodes {
		if len(cc) != 2 {
			t.Errorf("bad code %q", cc)
		}
		if seen[cc] {
			t.Errorf("duplicate code %q", cc)
		}
		seen[cc] = true
	}
	for _, cc := range []string{"US", "DE", "KN", "TV"} {
		if !IsCountryCode(cc) {
			t.Errorf("IsCountryCode(%s) = false", cc)
		}
	}
	if IsCountryCode("XX") || IsCountryCode("usa") {
		t.Error("bogus codes accepted")
	}
}

func TestCentroidKnownAndFallback(t *testing.T) {
	lat, lon := Centroid("US")
	if lat != 39.8 || lon != -98.6 {
		t.Fatalf("US centroid = %v,%v", lat, lon)
	}
	// Fallback must be deterministic and in range.
	la1, lo1 := Centroid("ZW")
	la2, lo2 := Centroid("ZW")
	if la1 != la2 || lo1 != lo2 {
		t.Fatal("fallback centroid not deterministic")
	}
	if la1 < -50 || la1 >= 70 || lo1 < -180 || lo1 >= 180 {
		t.Fatalf("fallback centroid out of range: %v,%v", la1, lo1)
	}
}

func TestGeohashKnownValue(t *testing.T) {
	// Reference value: geohash of (57.64911, 10.40744) is u4pruydqqvj.
	got := EncodeGeohash(57.64911, 10.40744, 11)
	if got != "u4pruydqqvj" {
		t.Fatalf("EncodeGeohash = %q, want u4pruydqqvj", got)
	}
}

func TestGeohashDecodeInverse(t *testing.T) {
	lat, lon, err := DecodeGeohash("u4pruydqqvj")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lat-57.64911) > 0.001 || math.Abs(lon-10.40744) > 0.001 {
		t.Fatalf("decode = %v,%v", lat, lon)
	}
}

func TestGeohashPrecisionClamping(t *testing.T) {
	if got := EncodeGeohash(0, 0, 0); len(got) != 1 {
		t.Fatalf("precision 0 → len %d", len(got))
	}
	if got := EncodeGeohash(0, 0, 99); len(got) != 12 {
		t.Fatalf("precision 99 → len %d", len(got))
	}
}

func TestGeohashBadInput(t *testing.T) {
	if _, _, err := DecodeGeohash(""); err == nil {
		t.Fatal("empty geohash accepted")
	}
	if _, _, err := DecodeGeohash("aio"); err == nil {
		t.Fatal("alphabet excludes a/i/o/l — should be rejected")
	}
}

// Property: decode(encode(p)) stays within the cell's error bounds, and
// re-encoding the decoded center reproduces the hash.
func TestPropertyGeohashRoundTrip(t *testing.T) {
	f := func(a, b uint32) bool {
		lat := -90 + float64(a%180_000)/1000.0
		lon := -180 + float64(b%360_000)/1000.0
		h := EncodeGeohash(lat, lon, 8)
		dlat, dlon, err := DecodeGeohash(h)
		if err != nil {
			return false
		}
		// Precision-8 cell is ~0.00017° lat × 0.00034° lon.
		if math.Abs(dlat-lat) > 0.001 || math.Abs(dlon-lon) > 0.001 {
			return false
		}
		return EncodeGeohash(dlat, dlon, 8) == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCityCatalogDeterminism(t *testing.T) {
	a := CityLocation("DE", 5)
	b := CityLocation("DE", 5)
	if a != b {
		t.Fatal("CityLocation not deterministic")
	}
	if a.City != "DE-city-005" || a.Region != "DE-region-00" {
		t.Fatalf("naming: %+v", a)
	}
	if CityLocation("DE", 8).Region != "DE-region-01" {
		t.Fatal("region grouping broken")
	}
	other := CityLocation("DE", 6)
	if other.Lat == a.Lat && other.Lon == a.Lon {
		t.Fatal("distinct cities share coordinates")
	}
	clat, clon := Centroid("DE")
	if math.Abs(a.Lat-clat) > 4 || math.Abs(a.Lon-clon) > 7 {
		t.Fatalf("city strayed from centroid: %+v", a)
	}
}

func TestCityLocationCoordinateBounds(t *testing.T) {
	for _, cc := range AllCountryCodes {
		for i := 0; i < 3; i++ {
			l := CityLocation(cc, i)
			if l.Lat < -90 || l.Lat > 90 || l.Lon < -180 || l.Lon > 180 {
				t.Fatalf("out-of-range coords for %s/%d: %+v", cc, i, l)
			}
		}
	}
}

func TestLocationString(t *testing.T) {
	l := Location{CountryCode: "US", Region: "US-region-00", City: "US-city-001"}
	if l.String() != "US/US-region-00/US-city-001" {
		t.Fatalf("String = %s", l.String())
	}
	blank := Location{CountryCode: "US"}
	if blank.String() != "US" {
		t.Fatalf("blank-city String = %s", blank.String())
	}
}

func TestDBLookup(t *testing.T) {
	db := NewDB(0)
	usLoc := CityLocation("US", 0)
	deLoc := CityLocation("DE", 0)
	db.Insert(netip.MustParsePrefix("172.224.224.0/27"), usLoc)
	db.Insert(netip.MustParsePrefix("172.224.0.0/12"), deLoc)

	got, ok := db.Lookup(netip.MustParseAddr("172.224.224.5"))
	if !ok || got.CountryCode != "US" {
		t.Fatalf("Lookup = %+v,%v want US (most specific)", got, ok)
	}
	got, ok = db.Lookup(netip.MustParseAddr("172.230.0.1"))
	if !ok || got.CountryCode != "DE" {
		t.Fatalf("Lookup = %+v,%v want DE", got, ok)
	}
	if _, ok := db.Lookup(netip.MustParseAddr("9.9.9.9")); ok {
		t.Fatal("unknown address geolocated")
	}
	if db.Len() != 2 {
		t.Fatalf("Len = %d", db.Len())
	}

	gotP, ok := db.LookupPrefix(netip.MustParsePrefix("172.224.224.0/27"))
	if !ok || gotP.City != usLoc.City {
		t.Fatalf("LookupPrefix = %+v,%v", gotP, ok)
	}
}

func TestLocationGeohash(t *testing.T) {
	l := Location{Lat: 57.64911, Lon: 10.40744}
	if got := l.Geohash(5); got != "u4pru" {
		t.Fatalf("Geohash = %q", got)
	}
}

func TestDistanceKm(t *testing.T) {
	// Munich (48.14, 11.58) to New York (40.71, -74.01) ≈ 6,488 km.
	d := DistanceKm(48.14, 11.58, 40.71, -74.01)
	if d < 6300 || d < 0 || d > 6700 {
		t.Fatalf("Munich–NYC distance = %.0f km", d)
	}
	if got := DistanceKm(10, 20, 10, 20); got != 0 {
		t.Fatalf("self distance = %v", got)
	}
	// Symmetry.
	if DistanceKm(1, 2, 3, 4) != DistanceKm(3, 4, 1, 2) {
		t.Fatal("distance not symmetric")
	}
	// Antipodal bound: max ≈ half the circumference ≈ 20,015 km.
	if d := DistanceKm(0, 0, 0, 180); d < 19000 || d > 21000 {
		t.Fatalf("antipodal distance = %.0f", d)
	}
}
