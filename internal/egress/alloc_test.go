//go:build !race

// Allocation-regression pin for building the geolocation database from
// the generated egress list. It runs without the race detector (its
// instrumentation makes AllocsPerRun report noise); `make alloc` gives
// it its own non-race invocation.
package egress

import "testing"

// TestListGeoDBAllocBudget: GeoDB sizes the database's entries once from
// the list, so the ≈240 k-row build costs the DB and its backing array,
// not a doubling series of discarded copies.
func TestListGeoDBAllocBudget(t *testing.T) {
	_, l := testList(t)
	if n := testing.AllocsPerRun(3, func() { l.GeoDB() }); n > 4 {
		t.Fatalf("GeoDB allocs/op = %v, want ≤ 4", n)
	}
	e := l.Entries[len(l.Entries)/2]
	if loc, ok := l.GeoDB().LookupPrefix(e.Prefix); !ok || loc.CountryCode != e.CC || loc.City != e.City {
		t.Fatalf("GeoDB lookup of %v = %+v %v, want %s/%s", e.Prefix, loc, ok, e.CC, e.City)
	}
}
