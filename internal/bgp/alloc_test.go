//go:build !race

// Allocation-regression pins for the one longest-prefix match every
// origin attribution runs: the table's lookup, the index's and the
// cursor's. These run without the race detector (its instrumentation
// makes AllocsPerRun report noise); `make alloc` gives them their own
// non-race invocation.
package bgp

import (
	"net/netip"
	"testing"
)

func TestIndexLookupZeroAlloc(t *testing.T) {
	tbl := indexFixture()
	v4 := netip.MustParseAddr("10.5.1.2")
	v6 := netip.MustParseAddr("2600:9000::1")
	ix := tbl.Index() // build the memoized index outside the measurement
	cur := ix.Cursor()
	p4, p6 := netip.PrefixFrom(v4, 24).Masked(), netip.PrefixFrom(v6, 64).Masked()
	for _, c := range []struct {
		name   string
		lookup func() bool
	}{
		{"Table.Origin", func() bool {
			_, ok4 := tbl.Origin(v4)
			_, ok6 := tbl.Origin(v6)
			return ok4 && ok6
		}},
		{"Index.Route", func() bool {
			_, _, ok4 := ix.Route(v4)
			_, _, ok6 := ix.Route(v6)
			return ok4 && ok6
		}},
		{"Cursor.CoveringRoute", func() bool {
			_, _, _, ok4 := cur.CoveringRoute(p4)
			_, _, _, ok6 := cur.CoveringRoute(p6)
			return ok4 && ok6
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(1000, func() {
				if !c.lookup() {
					t.Fatal("lookup missed")
				}
			}); n != 0 {
				t.Fatalf("allocs/op = %v, want 0", n)
			}
		})
	}
}
