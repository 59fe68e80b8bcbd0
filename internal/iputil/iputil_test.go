package iputil

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func mustAddr(t *testing.T, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatalf("ParseAddr(%q): %v", s, err)
	}
	return a
}

func mustPrefix(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatalf("ParsePrefix(%q): %v", s, err)
	}
	return p
}

func TestCanonicalUnmaps4In6(t *testing.T) {
	mapped := netip.AddrFrom16(netip.MustParseAddr("::ffff:192.0.2.1").As16())
	got := Canonical(mapped)
	if !got.Is4() {
		t.Fatalf("Canonical(%v) = %v, want plain IPv4", mapped, got)
	}
	if got.String() != "192.0.2.1" {
		t.Fatalf("Canonical(%v) = %v, want 192.0.2.1", mapped, got)
	}
}

func TestCanonicalStripsZone(t *testing.T) {
	a := netip.MustParseAddr("fe80::1%eth0")
	if got := Canonical(a); got.Zone() != "" {
		t.Fatalf("Canonical kept zone: %v", got)
	}
}

func TestCanonicalPrefixMasks(t *testing.T) {
	p := mustPrefix(t, "192.0.2.77/24")
	got := CanonicalPrefix(p)
	if got.Addr().String() != "192.0.2.0" {
		t.Fatalf("CanonicalPrefix(%v) = %v, want masked", p, got)
	}
}

func TestCanonicalPrefixInvalid(t *testing.T) {
	var p netip.Prefix
	if got := CanonicalPrefix(p); got.IsValid() {
		t.Fatalf("CanonicalPrefix(zero) = %v, want invalid", got)
	}
}

func TestAddrAtIndexV4(t *testing.T) {
	p := mustPrefix(t, "10.0.0.0/24")
	cases := []struct {
		i    uint64
		want string
	}{
		{0, "10.0.0.0"},
		{1, "10.0.0.1"},
		{255, "10.0.0.255"},
	}
	for _, c := range cases {
		if got := AddrAtIndex(p, c.i); got.String() != c.want {
			t.Errorf("AddrAtIndex(%v, %d) = %v, want %s", p, c.i, got, c.want)
		}
	}
}

func TestAddrAtIndexV4OutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	AddrAtIndex(mustPrefix(t, "10.0.0.0/24"), 256)
}

func TestAddrAtIndexV6Carry(t *testing.T) {
	p := mustPrefix(t, "2001:db8::/32")
	got := AddrAtIndex(p, 5)
	if got.String() != "2001:db8::5" {
		t.Fatalf("AddrAtIndex = %v, want 2001:db8::5", got)
	}
}

func TestAddrCount(t *testing.T) {
	cases := []struct {
		p    string
		want uint64
	}{
		{"10.0.0.0/24", 256},
		{"10.0.0.0/32", 1},
		{"10.0.0.0/8", 1 << 24},
		{"2001:db8::/64", 1 << 62}, // capped
		{"2001:db8::/120", 256},
	}
	for _, c := range cases {
		if got := AddrCount(mustPrefix(t, c.p)); got != c.want {
			t.Errorf("AddrCount(%s) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestSubnetCount(t *testing.T) {
	if got := SubnetCount(mustPrefix(t, "10.0.0.0/8"), 24); got != 1<<16 {
		t.Errorf("SubnetCount(/8, 24) = %d, want %d", got, 1<<16)
	}
	if got := SubnetCount(mustPrefix(t, "10.0.0.0/24"), 8); got != 0 {
		t.Errorf("SubnetCount(/24, 8) = %d, want 0", got)
	}
}

func TestNthSubnet(t *testing.T) {
	p := mustPrefix(t, "10.0.0.0/8")
	if got := NthSubnet(p, 24, 0).String(); got != "10.0.0.0/24" {
		t.Errorf("NthSubnet(0) = %s", got)
	}
	if got := NthSubnet(p, 24, 257).String(); got != "10.1.1.0/24" {
		t.Errorf("NthSubnet(257) = %s, want 10.1.1.0/24", got)
	}
}

func TestNthSubnetPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NthSubnet(mustPrefix(t, "10.0.0.0/24"), 25, 2)
}

func TestSubnetsIteration(t *testing.T) {
	var got []string
	Subnets(mustPrefix(t, "192.0.2.0/24"), 26, func(p netip.Prefix) bool {
		got = append(got, p.String())
		return true
	})
	want := []string{"192.0.2.0/26", "192.0.2.64/26", "192.0.2.128/26", "192.0.2.192/26"}
	if len(got) != len(want) {
		t.Fatalf("got %d subnets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("subnet %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestSubnetsEarlyStop(t *testing.T) {
	n := 0
	done := Subnets(mustPrefix(t, "10.0.0.0/8"), 16, func(netip.Prefix) bool {
		n++
		return n < 3
	})
	if done || n != 3 {
		t.Fatalf("early stop: done=%v n=%d, want false/3", done, n)
	}
}

func TestSlash24(t *testing.T) {
	if got := Slash24(mustAddr(t, "198.51.100.200")).String(); got != "198.51.100.0/24" {
		t.Fatalf("Slash24 = %s", got)
	}
}

func TestSlash24PanicsOnV6(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Slash24(mustAddr(t, "2001:db8::1"))
}

func TestSlash64(t *testing.T) {
	if got := Slash64(mustAddr(t, "2001:db8:1:2:3::9")).String(); got != "2001:db8:1:2::/64" {
		t.Fatalf("Slash64 = %s", got)
	}
}

func TestContainsMixedRepresentation(t *testing.T) {
	p := mustPrefix(t, "192.0.2.0/24")
	mapped := netip.MustParseAddr("::ffff:192.0.2.9")
	if !Contains(p, mapped) {
		t.Fatal("Contains should unmap 4-in-6 addresses")
	}
}

func TestHashDeterminism(t *testing.T) {
	a := mustAddr(t, "203.0.113.7")
	if HashAddr(a) != HashAddr(a) {
		t.Fatal("HashAddr not deterministic")
	}
	if HashAddr(a) == HashAddr(mustAddr(t, "203.0.113.8")) {
		t.Fatal("adjacent addresses collide (suspicious)")
	}
	p := mustPrefix(t, "203.0.113.0/24")
	if HashPrefix(p) == HashPrefix(mustPrefix(t, "203.0.113.0/25")) {
		t.Fatal("same addr different bits should hash differently")
	}
	if HashString("a") == HashString("b") {
		t.Fatal("HashString collision on single chars")
	}
}

func TestMixChangesValue(t *testing.T) {
	if Mix(1, 2) == Mix(1, 3) {
		t.Fatal("Mix must differ for different salts")
	}
}

// Property: for any IPv4 address, the /24 parent contains the address and
// AddrAtIndex inverts the offset.
func TestPropertySlash24RoundTrip(t *testing.T) {
	f := func(b [4]byte) bool {
		addr := netip.AddrFrom4(b)
		p := Slash24(addr)
		if !p.Contains(addr) {
			return false
		}
		back := AddrAtIndex(p, uint64(b[3]))
		return back == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: NthSubnet enumerates disjoint subnets that tile the parent.
func TestPropertySubnetTiling(t *testing.T) {
	f := func(b [4]byte, bitsRaw, deltaRaw uint8) bool {
		bits := int(bitsRaw%17) + 8 // /8../24
		delta := int(deltaRaw%4) + 1
		p := netip.PrefixFrom(netip.AddrFrom4(b), bits).Masked()
		n := SubnetCount(p, bits+delta)
		var prev netip.Prefix
		for i := uint64(0); i < n; i++ {
			s := NthSubnet(p, bits+delta, i)
			if !p.Overlaps(s) {
				return false
			}
			if i > 0 && prev.Overlaps(s) {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: hashing is stable and canonicalization-invariant for 4-in-6.
func TestPropertyHashCanonicalInvariance(t *testing.T) {
	f := func(b [4]byte) bool {
		v4 := netip.AddrFrom4(b)
		var m [16]byte
		m[10], m[11] = 0xff, 0xff
		copy(m[12:], b[:])
		mapped := netip.AddrFrom16(m)
		return HashAddr(v4) == HashAddr(mapped)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Flatten's longest-prefix match equals a linear scan over the
// spans — the longest containing prefix, and of a prefix listed more than
// once its last span — over random dual-stack sets that mix /0 routes,
// duplicates, nesting and prefixes ending at the family's last address.
func TestPropertyFlatMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Bytes drawn from a few values nest and abut the prefixes, and the
	// all-ones byte puts some at the top of their family.
	randByte := func() byte {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return 0x0a
		case 2:
			return 0xff
		}
		return byte(rng.Intn(256))
	}
	randPrefix := func() netip.Prefix {
		if rng.Intn(2) == 0 {
			var b [4]byte
			for i := range b {
				b[i] = randByte()
			}
			return netip.PrefixFrom(netip.AddrFrom4(b), rng.Intn(33)).Masked()
		}
		var b [16]byte
		for i := range b {
			b[i] = randByte()
		}
		return netip.PrefixFrom(netip.AddrFrom16(b), rng.Intn(129)).Masked()
	}
	// oracle returns the index of the span the linear scan picks, or -1.
	oracle := func(spans []Span[int], addr netip.Addr) int32 {
		best, bestBits := int32(-1), -1
		for i, s := range spans {
			// >=: two containing prefixes of one length are the same
			// prefix, and the later span replaces the earlier.
			if s.Prefix.Contains(addr) && s.Prefix.Bits() >= bestBits {
				best, bestBits = int32(i), s.Prefix.Bits()
			}
		}
		return best
	}
	for set := 0; set < 400; set++ {
		var spans []Span[int]
		for i := 0; i < 1+rng.Intn(40); i++ {
			p := randPrefix()
			switch {
			case len(spans) > 0 && rng.Intn(5) == 0:
				p = spans[rng.Intn(len(spans))].Prefix // re-listed: the last span wins
			case rng.Intn(20) == 0:
				p = netip.PrefixFrom(p.Addr(), 0).Masked() // a default route
			}
			spans = append(spans, Span[int]{Prefix: p, Val: i})
		}
		f := Flatten(spans)
		probe := func(addr netip.Addr) {
			t.Helper()
			if got, want := f.Lookup(addr), oracle(spans, addr); got != want {
				t.Fatalf("set %d: Lookup(%v) = span %d, linear scan says %d (spans %v)", set, addr, got, want, spans)
			}
		}
		for _, s := range spans {
			first, last := s.Prefix.Addr(), lastAddr(s.Prefix)
			for _, a := range []netip.Addr{first, first.Prev(), last, last.Next()} {
				if a.IsValid() {
					probe(a)
				}
			}
		}
		for q := 0; q < 32; q++ {
			probe(randPrefix().Addr())
		}
	}
}

// lastAddr returns the last address inside p.
func lastAddr(p netip.Prefix) netip.Addr {
	b := p.Addr().As16()
	off := 0
	if p.Addr().Is4() {
		off = 96
	}
	for bit := off + p.Bits(); bit < 128; bit++ {
		b[bit/8] |= 0x80 >> (bit % 8)
	}
	if p.Addr().Is4() {
		return netip.AddrFrom16(b).Unmap()
	}
	return netip.AddrFrom16(b)
}

func TestNthSubnetV6LargeHostOffsets(t *testing.T) {
	// /64 subnets inside a /40: host offset is 64 bits — exercises the
	// 128-bit arithmetic path.
	p := mustPrefix(t, "2a04:4e40::/40")
	if got := NthSubnet(p, 64, 0).String(); got != "2a04:4e40::/64" {
		t.Fatalf("NthSubnet(0) = %s", got)
	}
	if got := NthSubnet(p, 64, 1).String(); got != "2a04:4e40:0:1::/64" {
		t.Fatalf("NthSubnet(1) = %s", got)
	}
	if got := NthSubnet(p, 64, 1<<16).String(); got != "2a04:4e40:1::/64" {
		t.Fatalf("NthSubnet(2^16) = %s", got)
	}
	// /64s inside a /48.
	q := mustPrefix(t, "2a02:26f7:1::/48")
	if got := NthSubnet(q, 64, 5).String(); got != "2a02:26f7:1:5::/64" {
		t.Fatalf("NthSubnet(/48, 5) = %s", got)
	}
	// Distinctness across a broad sample.
	seen := map[string]bool{}
	for i := uint64(0); i < 1000; i++ {
		s := NthSubnet(p, 64, i*7919).String()
		if seen[s] {
			t.Fatalf("duplicate subnet %s", s)
		}
		seen[s] = true
	}
	// Subnets shorter than 64 bits inside a /32 (host > 64 bits).
	r := mustPrefix(t, "2606:4700::/32")
	if got := NthSubnet(r, 48, 3).String(); got != "2606:4700:3::/48" {
		t.Fatalf("NthSubnet(/32→/48, 3) = %s", got)
	}
}

// hashPrefixCanonical is HashPrefix's general path: canonicalize the
// prefix, then hash its address and length.
func hashPrefixCanonical(p netip.Prefix) uint64 {
	p = CanonicalPrefix(p)
	h := HashAddr(p.Addr())
	h ^= uint64(p.Bits()) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// Property: HashPrefix's IPv4 fast path, which masks the packed address
// instead of canonicalizing the prefix, hashes every IPv4 prefix —
// masked or not, /0 through /32 — as the general path does.
func TestPropertyHashPrefixIPv4FastPath(t *testing.T) {
	f := func(b [4]byte, bitsRaw uint8) bool {
		p := netip.PrefixFrom(netip.AddrFrom4(b), int(bitsRaw%33))
		return HashPrefix(p) == hashPrefixCanonical(p) && HashPrefix(p) == HashPrefix(p.Masked())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"0.0.0.0/0", "255.255.255.255/0", "255.255.255.255/32", "192.0.2.77/24", "2001:db8::/48", "::ffff:192.0.2.0/120"} {
		if p := mustPrefix(t, s); HashPrefix(p) != hashPrefixCanonical(p) {
			t.Fatalf("HashPrefix(%v) differs from the general path", p)
		}
	}
	if got := HashPrefix(netip.Prefix{}); got != hashPrefixCanonical(netip.Prefix{}) {
		t.Fatalf("HashPrefix(invalid) = %#x", got)
	}
}
