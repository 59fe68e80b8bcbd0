package iputil

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
)

func TestTrieCloneIsDeepAndIndependent(t *testing.T) {
	var orig Trie[int]
	prefixes := []netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/8"),
		netip.MustParsePrefix("10.1.0.0/16"),
		netip.MustParsePrefix("2001:db8::/32"),
	}
	for i, p := range prefixes {
		orig.Insert(p, i)
	}

	cl := orig.Clone()
	if cl.Len() != orig.Len() {
		t.Fatalf("clone has %d prefixes, want %d", cl.Len(), orig.Len())
	}
	for i, p := range prefixes {
		if v, ok := cl.Get(p); !ok || v != i {
			t.Fatalf("clone lost %v: %d %v", p, v, ok)
		}
	}

	// Mutating the clone must not leak into the original, and vice versa.
	cl.Insert(netip.MustParsePrefix("192.168.0.0/24"), 99)
	cl.Delete(prefixes[0])
	if _, ok := orig.Get(netip.MustParsePrefix("192.168.0.0/24")); ok {
		t.Fatal("insert into clone visible in original")
	}
	if _, ok := orig.Get(prefixes[0]); !ok {
		t.Fatal("delete in clone removed prefix from original")
	}
	orig.Insert(netip.MustParsePrefix("172.16.0.0/12"), 7)
	if _, ok := cl.Get(netip.MustParsePrefix("172.16.0.0/12")); ok {
		t.Fatal("insert into original visible in clone")
	}
}

func TestTrieCloneNilReceiver(t *testing.T) {
	var nilTrie *Trie[string]
	cl := nilTrie.Clone()
	if cl == nil || cl.Len() != 0 {
		t.Fatalf("nil.Clone() = %v", cl)
	}
	if !cl.Insert(netip.MustParsePrefix("10.0.0.0/8"), "x") {
		t.Fatal("clone of nil trie not usable")
	}
}

// TestTrieSnapshotConcurrentReaders exercises the guarantee bgp.Table's
// cloned reader (Table.Snapshot) relies on: a clone is independent of
// later inserts. Readers hold a snapshot loaded from an atomic.Pointer
// while a writer clones, inserts, and republishes. Run under -race this
// proves snapshot reads never observe mutation.
func TestTrieSnapshotConcurrentReaders(t *testing.T) {
	const inserts = 200
	var snap atomic.Pointer[Trie[int]]
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			addr := netip.AddrFrom4([4]byte{10, byte(r), 1, 1})
			for {
				select {
				case <-stop:
					return
				default:
				}
				cur := snap.Load()
				if cur == nil {
					continue
				}
				n := cur.Len()
				if _, v, ok := cur.Lookup(addr); ok && (v < 0 || v >= inserts) {
					t.Errorf("reader saw impossible value %d", v)
					return
				}
				// A snapshot is immutable: its size cannot change while held.
				if cur.Len() != n {
					t.Error("snapshot mutated under reader")
					return
				}
			}
		}(r)
	}

	for i := 0; i < inserts; i++ {
		p := netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", i/256, i%256))
		next := snap.Load().Clone()
		next.Insert(p, i)
		snap.Store(next)
	}
	close(stop)
	wg.Wait()

	final := snap.Load()
	if final.Len() != inserts {
		t.Fatalf("final snapshot has %d prefixes, want %d", final.Len(), inserts)
	}
}
