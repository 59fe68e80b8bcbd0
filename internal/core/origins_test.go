package core

import (
	"net/netip"
	"testing"

	"github.com/relay-networks/privaterelay/internal/bgp"
)

// foldAll folds every address into a fresh worker whose routing table
// announces each address as its own /32 from want's AS, twice over, and
// checks that each folds to its own AS and enters the batch frame, and
// after a seal the shard, exactly once.
func foldAll(t *testing.T, addrs []netip.Addr, want func(i int) bgp.ASN) *scanWorker {
	t.Helper()
	tab := bgp.NewTable()
	for i, a := range addrs {
		tab.Announce(netip.PrefixFrom(a, 32), want(i))
	}
	w := (&scanState{idx: tab.Index()}).newWorker()
	for round := 0; round < 2; round++ {
		for i, a := range addrs {
			if got := w.foldAddr(a); got != want(i) {
				t.Fatalf("round %d: foldAddr(%v) = %d, want %d", round, a, got, want(i))
			}
		}
	}
	seen := make(map[netip.Addr]bool, len(addrs))
	for _, e := range w.fr.addrs {
		if seen[e.addr] {
			t.Fatalf("%v entered the batch frame twice", e.addr)
		}
		seen[e.addr] = true
	}
	if len(seen) != len(addrs) {
		t.Fatalf("batch frame holds %d addresses, want %d", len(seen), len(addrs))
	}
	w.seal()
	if len(w.sh.addrs) != len(addrs) {
		t.Fatalf("shard holds %d addresses, want %d", len(w.sh.addrs), len(addrs))
	}
	for i, a := range addrs {
		if as, ok := w.sh.addrs[a]; !ok || as != want(i) {
			t.Fatalf("shard[%v] = %d, %v; want %d", a, as, ok, want(i))
		}
	}
	return w
}

func addrOf(key uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(key >> 24), byte(key >> 16), byte(key >> 8), byte(key)})
}

// TestFoldAddrSharedProbeChain folds addresses whose keys all hash to
// one slot of a fresh table, so each after the first lands further
// down the same probe chain, and a lookup must walk past the others.
func TestFoldAddrSharedProbeChain(t *testing.T) {
	fresh := newOriginTable()
	var addrs []netip.Addr
	for key := uint32(10 << 24); len(addrs) < 6; key++ {
		if fresh.home(key) == fresh.home(10<<24) {
			addrs = append(addrs, addrOf(key))
		}
	}
	w := foldAll(t, addrs, func(i int) bgp.ASN { return bgp.ASN(64500 + i) })
	if got := len(w.origins4.slots); got != len(fresh.slots) {
		t.Fatalf("table grew to %d slots for %d addresses", got, len(addrs))
	}
}

// TestFoldAddrBeyondInitialCapacity folds more distinct addresses than
// a fresh table has slots, so the table doubles several times and every
// entry must survive each rehash. 0.0.0.0, whose key marks an empty
// slot, rides along.
func TestFoldAddrBeyondInitialCapacity(t *testing.T) {
	n := 3 << originTableBits
	addrs := []netip.Addr{netip.IPv4Unspecified()}
	for i := 0; i < n; i++ {
		// Hosts packed densely in 16-address runs across prefixes, as
		// ingress fleets are.
		addrs = append(addrs, addrOf(172<<24|224<<16|uint32(i/16)<<12|uint32(1+i%16)))
	}
	w := foldAll(t, addrs, func(i int) bgp.ASN { return bgp.ASN(4_200_000 + i) })
	if got := w.origins4.n; got != n {
		t.Fatalf("table holds %d entries, want %d (0.0.0.0 goes to the map)", got, n)
	}
	if got, min := len(w.origins4.slots), 2*n; got < min {
		t.Fatalf("table has %d slots for %d entries, want at least %d", got, n, min)
	}
}
