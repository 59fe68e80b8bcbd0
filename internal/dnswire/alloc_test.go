//go:build !race

// Allocation-regression pin for the response decode path. Excluded from
// race builds: the race runtime's allocation instrumentation makes
// testing.AllocsPerRun meaningless, so CI runs this in a separate
// non-race step (see the chaos job).

package dnswire

import (
	"net/netip"
	"testing"
)

// TestDecodeIntoAllocBudget pins the steady-state cost of decoding a
// representative MASQUE-probe response (one question, eight A answers,
// EDNS+ECS) into a reused Message. The per-message name cache resolves
// every compression-pointed answer owner without allocating, and the OPT
// record is parsed in place, so the budget is the one string for the
// question name — and this test is what keeps the remaining per-record
// allocations from creeping back in.
func TestDecodeIntoAllocBudget(t *testing.T) {
	const budget = 1
	m := &Message{
		Header:    Header{ID: 1, Response: true},
		Questions: []Question{{Name: "mask.icloud.com.", Type: TypeA, Class: ClassIN}},
		Edns:      &EDNS{UDPSize: 1232, ClientSubnet: &ClientSubnet{SourcePrefixLen: 24, ScopePrefixLen: 24, Addr: netip.MustParseAddr("203.0.113.0")}},
	}
	for i := 0; i < 8; i++ {
		m.Answers = append(m.Answers, Record{Name: "mask.icloud.com.", Type: TypeA, Class: ClassIN, TTL: 60, Addr: netip.AddrFrom4([4]byte{17, 248, 0, byte(i)})})
	}
	wire, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out Message
	// Warm the record slices and the EDNS scratch.
	for i := 0; i < 4; i++ {
		if err := DecodeInto(wire, &out); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(500, func() {
		if err := DecodeInto(wire, &out); err != nil {
			panic(err)
		}
	})
	if avg > budget {
		t.Fatalf("DecodeInto: %.2f allocs/op, budget %d", avg, budget)
	}
}
