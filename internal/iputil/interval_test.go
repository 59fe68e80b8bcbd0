package iputil

import (
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
)

// spansOf builds spans whose payload is the prefix's position in ps.
func spansOf(t *testing.T, ps ...string) []Span[int] {
	t.Helper()
	spans := make([]Span[int], len(ps))
	for i, s := range ps {
		spans[i] = Span[int]{Prefix: mustPrefix(t, s), Val: i}
	}
	return spans
}

func TestFlatLongestPrefixMatch(t *testing.T) {
	f := Flatten(spansOf(t, "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"))
	cases := []struct{ addr, pfx string }{
		{"10.1.2.3", "10.1.2.0/24"},
		{"10.1.9.9", "10.1.0.0/16"},
		{"10.200.0.1", "10.0.0.0/8"},
		{"10.1.3.0", "10.1.0.0/16"}, // just past the /24: back to the /16
		{"10.2.0.0", "10.0.0.0/8"},  // just past the /16: back to the /8
		{"10.255.255.255", "10.0.0.0/8"},
	}
	for _, c := range cases {
		i := f.Lookup(mustAddr(t, c.addr))
		if i < 0 || f.At(i).Prefix.String() != c.pfx {
			t.Errorf("Lookup(%s) = span %d, want %s", c.addr, i, c.pfx)
		}
	}
	for _, miss := range []string{"9.255.255.255", "11.0.0.0", "2001:db8::1"} {
		if i := f.Lookup(mustAddr(t, miss)); i != -1 {
			t.Errorf("Lookup(%s) = span %d outside every prefix, want -1", miss, i)
		}
	}
}

// TestFlatDualStackSeparation checks each family's default route answers
// only its own family: a v4 key and a v6 key with equal integer values
// must not meet in one interval list.
func TestFlatDualStackSeparation(t *testing.T) {
	f := Flatten(spansOf(t, "0.0.0.0/0", "::/0"))
	if i := f.Lookup(mustAddr(t, "8.8.8.8")); i != 0 {
		t.Fatalf("v4 default route: got span %d", i)
	}
	if i := f.Lookup(mustAddr(t, "2001:db8::1")); i != 1 {
		t.Fatalf("v6 default route: got span %d", i)
	}
	// ::808:808 has the same low 32 bits as 8.8.8.8.
	v4only := Flatten(spansOf(t, "8.8.8.0/24"))
	if i := v4only.Lookup(mustAddr(t, "::808:808")); i != -1 {
		t.Fatalf("v6 address matched a v4 prefix: span %d", i)
	}
}

func TestFlatEmpty(t *testing.T) {
	var zero Flat[int]
	for name, f := range map[string]*Flat[int]{"zero value": &zero, "Flatten(nil)": ptr(Flatten[int](nil))} {
		if i := f.Lookup(mustAddr(t, "10.0.0.1")); i != -1 {
			t.Errorf("%s: Lookup = %d, want -1", name, i)
		}
		hint := 3
		if i := f.Family(mustAddr(t, "2001:db8::1")).Seek(KeyOf(mustAddr(t, "2001:db8::1")), &hint); i != -1 {
			t.Errorf("%s: Seek = %d, want -1", name, i)
		}
		if f.Len() != 0 || f.Prefixes() != 0 {
			t.Errorf("%s: Len = %d, Prefixes = %d, want 0, 0", name, f.Len(), f.Prefixes())
		}
	}
}

func ptr[T any](v T) *T { return &v }

// TestFlatDuplicatePrefixLastWins checks a prefix listed more than once
// resolves to its last span and counts once in Prefixes.
func TestFlatDuplicatePrefixLastWins(t *testing.T) {
	spans := spansOf(t, "192.0.2.0/24", "10.0.0.0/8", "192.0.2.0/24", "2001:db8::/32", "192.0.2.0/24", "2001:db8::/32")
	f := Flatten(spans)
	if i := f.Lookup(mustAddr(t, "192.0.2.77")); i != 4 {
		t.Fatalf("Lookup(192.0.2.77) = span %d, want the last listing, 4", i)
	}
	if i := f.Lookup(mustAddr(t, "2001:db8::1")); i != 5 {
		t.Fatalf("Lookup(2001:db8::1) = span %d, want the last listing, 5", i)
	}
	if got := f.Prefixes(); got != 3 {
		t.Fatalf("Prefixes = %d, want 3 distinct", got)
	}
}

// TestFlatRetainsSpans checks Flatten neither copies nor reorders its
// input: indexes name positions in the caller's slice, and At points
// into it.
func TestFlatRetainsSpans(t *testing.T) {
	spans := spansOf(t, "2001:db8::/32", "192.0.2.0/24", "10.0.0.0/8")
	f := Flatten(spans)
	for i := range spans {
		if f.At(int32(i)) != &spans[i] {
			t.Fatalf("At(%d) does not point at the caller's span", i)
		}
	}
	if i := f.Lookup(mustAddr(t, "10.9.9.9")); i != 2 {
		t.Fatalf("Lookup(10.9.9.9) = span %d, want input position 2", i)
	}
	if spans[0].Prefix.String() != "2001:db8::/32" || spans[2].Prefix.String() != "10.0.0.0/8" {
		t.Fatalf("Flatten reordered its input: %v", spans)
	}
}

// TestSeekMatchesLookup checks Seek answers as Lookup does from any
// hint, including hints out of range, and always leaves a valid one.
func TestSeekMatchesLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var spans []Span[int]
	for i := 0; i < 200; i++ {
		var b [4]byte
		rng.Read(b[:])
		spans = append(spans, Span[int]{Prefix: netip.PrefixFrom(netip.AddrFrom4(b), 8+rng.Intn(25)).Masked(), Val: i})
	}
	f := Flatten(spans)
	iv := &f.v4
	n := len(iv.owner)
	hints := []int{-5, 0, n / 2, n - 1, n + 10}
	carried := 0
	for q := 0; q < 5000; q++ {
		var b [4]byte
		rng.Read(b[:])
		addr := netip.AddrFrom4(b)
		if q%3 == 0 {
			// Land on and just past boundaries, where an off-by-one shows.
			s := spans[rng.Intn(len(spans))].Prefix
			addr = s.Addr()
			if q%2 == 0 {
				addr = lastAddr(s).Next()
			}
			if !addr.IsValid() {
				continue
			}
		}
		want := f.Lookup(addr)
		// The fixed hints, then the one a cursor carries between queries.
		for j, h0 := range append(hints, carried) {
			h := h0
			if got := iv.Seek(KeyOf(addr), &h); got != want {
				t.Fatalf("Seek(%v, hint %d) = span %d, Lookup = %d", addr, h0, got, want)
			}
			if h < 0 || h >= n {
				t.Fatalf("Seek(%v, hint %d) left hint %d outside [0, %d)", addr, h0, h, n)
			}
			if j == len(hints) {
				carried = h
			}
		}
	}
}

// TestFlatConcurrentReaders is the guarantee bgp.Table's shared Index
// relies on: a Flat is immutable once built. Readers look up through
// whichever Flat an atomic.Pointer holds while a writer flattens a
// longer fresh slice and republishes; under -race this proves lookups
// never observe a Flat being built.
func TestFlatConcurrentReaders(t *testing.T) {
	const publishes = 200
	var snap atomic.Pointer[Flat[int]]
	snap.Store(ptr(Flatten[int](nil)))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 4)

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
				f := snap.Load()
				// Every published Flat lists 10.0.0.0/8 first once it has
				// any span, and its /16s never cover 10.r.0.0 for r < 4.
				if i := f.Lookup(addr); i > 0 || (i == -1 && f.Prefixes() > 0) {
					errs <- "reader saw a route other than 10.0.0.0/8"
					return
				}
			}
		}(r)
	}

	var spans []Span[int]
	for i := 0; i < publishes; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(4 + i%250), 0, 0}), 16)
		if i == 0 {
			p = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, 0, 0}), 8)
		}
		// A fresh slice each time: a published Flat retains its spans.
		spans = append(spans[:len(spans):len(spans)], Span[int]{Prefix: p, Val: i})
		snap.Store(ptr(Flatten(spans)))
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if got := snap.Load().Prefixes(); got != publishes {
		t.Fatalf("final Flat has %d prefixes, want %d", got, publishes)
	}
}
