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

func TestTrieInsertGet(t *testing.T) {
	var tr Trie[int]
	if !tr.Insert(mustPrefix(t, "10.0.0.0/8"), 1) {
		t.Fatal("first insert should be fresh")
	}
	if tr.Insert(mustPrefix(t, "10.0.0.0/8"), 2) {
		t.Fatal("second insert should replace, not add")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	v, ok := tr.Get(mustPrefix(t, "10.0.0.0/8"))
	if !ok || v != 2 {
		t.Fatalf("Get = %d,%v want 2,true", v, ok)
	}
	if _, ok := tr.Get(mustPrefix(t, "10.0.0.0/9")); ok {
		t.Fatal("Get of absent prefix should miss")
	}
}

func TestTrieLongestPrefixMatch(t *testing.T) {
	var tr Trie[string]
	tr.Insert(mustPrefix(t, "10.0.0.0/8"), "eight")
	tr.Insert(mustPrefix(t, "10.1.0.0/16"), "sixteen")
	tr.Insert(mustPrefix(t, "10.1.2.0/24"), "twentyfour")

	cases := []struct {
		addr string
		want string
		pfx  string
	}{
		{"10.1.2.3", "twentyfour", "10.1.2.0/24"},
		{"10.1.9.9", "sixteen", "10.1.0.0/16"},
		{"10.200.0.1", "eight", "10.0.0.0/8"},
	}
	for _, c := range cases {
		p, v, ok := tr.Lookup(mustAddr(t, c.addr))
		if !ok || v != c.want || p.String() != c.pfx {
			t.Errorf("Lookup(%s) = %v,%q,%v want %s,%q", c.addr, p, v, ok, c.pfx, c.want)
		}
	}
	if _, _, ok := tr.Lookup(mustAddr(t, "11.0.0.1")); ok {
		t.Fatal("Lookup outside table should miss")
	}
}

func TestTrieDualStackSeparation(t *testing.T) {
	var tr Trie[int]
	tr.Insert(mustPrefix(t, "0.0.0.0/0"), 4)
	tr.Insert(mustPrefix(t, "::/0"), 6)
	if _, v, _ := tr.Lookup(mustAddr(t, "8.8.8.8")); v != 4 {
		t.Fatalf("v4 default route: got %d", v)
	}
	if _, v, _ := tr.Lookup(mustAddr(t, "2001:db8::1")); v != 6 {
		t.Fatalf("v6 default route: got %d", v)
	}
}

func TestTrieDelete(t *testing.T) {
	var tr Trie[int]
	p := mustPrefix(t, "192.0.2.0/24")
	tr.Insert(p, 7)
	if !tr.Delete(p) {
		t.Fatal("Delete of present prefix should succeed")
	}
	if tr.Delete(p) {
		t.Fatal("second Delete should fail")
	}
	if _, _, ok := tr.Lookup(mustAddr(t, "192.0.2.1")); ok {
		t.Fatal("Lookup after delete should miss")
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after delete, want 0", tr.Len())
	}
}

func TestTrieDeleteAbsentBranch(t *testing.T) {
	var tr Trie[int]
	tr.Insert(mustPrefix(t, "10.0.0.0/8"), 1)
	if tr.Delete(mustPrefix(t, "10.128.0.0/9")) {
		t.Fatal("Delete of absent longer prefix should fail")
	}
	if tr.Delete(mustPrefix(t, "2001:db8::/32")) {
		t.Fatal("Delete in empty family should fail")
	}
}

func TestTrieWalkAndPrefixes(t *testing.T) {
	var tr Trie[int]
	inputs := []string{"10.0.0.0/8", "10.1.0.0/16", "192.0.2.0/24", "2001:db8::/32"}
	for i, s := range inputs {
		tr.Insert(mustPrefix(t, s), i)
	}
	got := tr.Prefixes()
	if len(got) != len(inputs) {
		t.Fatalf("Prefixes len = %d, want %d", len(got), len(inputs))
	}
	want := []string{"10.0.0.0/8", "10.1.0.0/16", "192.0.2.0/24", "2001:db8::/32"}
	for i := range want {
		if got[i].String() != want[i] {
			t.Errorf("Prefixes[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	n := 0
	tr.Walk(func(netip.Prefix, int) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("Walk early stop visited %d, want 2", n)
	}
}

func TestTrieInvalidInputs(t *testing.T) {
	var tr Trie[int]
	if tr.Insert(netip.Prefix{}, 1) {
		t.Fatal("Insert of invalid prefix should fail")
	}
	if _, ok := tr.Get(netip.Prefix{}); ok {
		t.Fatal("Get of invalid prefix should miss")
	}
	if _, _, ok := tr.Lookup(netip.Addr{}); ok {
		t.Fatal("Lookup of invalid addr should miss")
	}
}

// Property: LPM result always equals the longest stored prefix that
// contains the address (checked against a linear scan oracle).
func TestPropertyTrieMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var tr Trie[int]
	var stored []netip.Prefix
	for i := 0; i < 300; i++ {
		var b [4]byte
		rng.Read(b[:])
		bits := 8 + rng.Intn(17)
		p := netip.PrefixFrom(netip.AddrFrom4(b), bits).Masked()
		if tr.Insert(p, i) {
			stored = append(stored, p)
		}
	}
	for i := 0; i < 2000; i++ {
		var b [4]byte
		rng.Read(b[:])
		addr := netip.AddrFrom4(b)
		bestBits := -1
		for _, p := range stored {
			if p.Contains(addr) && p.Bits() > bestBits {
				bestBits = p.Bits()
			}
		}
		gotP, _, ok := tr.Lookup(addr)
		if bestBits < 0 {
			if ok {
				t.Fatalf("Lookup(%v) matched %v, oracle says none", addr, gotP)
			}
			continue
		}
		if !ok || gotP.Bits() != bestBits {
			t.Fatalf("Lookup(%v) = %v,%v; oracle wants /%d", addr, gotP, ok, bestBits)
		}
	}
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
