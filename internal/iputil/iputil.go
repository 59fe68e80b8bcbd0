// Package iputil provides IP address and prefix arithmetic used throughout
// the measurement toolkit: subnet enumeration, address indexing inside
// prefixes, deterministic hashing, and longest-prefix match over prefix
// sets flattened into sorted intervals (Flatten).
//
// All functions operate on net/netip types. IPv4 addresses are handled in
// their native 4-byte form; Is4In6 inputs are unmapped before use so that
// callers can mix representations freely.
package iputil

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Canonical returns addr in its canonical form: IPv4-mapped IPv6 addresses
// are unmapped to plain IPv4. Zone information is stripped, as routing-level
// analysis never deals with scoped addresses. A plain IPv4 address, what
// every scan query carries, has neither a mapping nor a zone and comes
// back as it is, inlined into the caller.
func Canonical(addr netip.Addr) netip.Addr {
	if addr.Is4() {
		return addr
	}
	return canonical6(addr)
}

// canonical6 is Canonical's non-IPv4 path, kept out of line so Canonical
// inlines (WithZone does not).
func canonical6(addr netip.Addr) netip.Addr {
	return addr.Unmap().WithZone("")
}

// CanonicalPrefix returns p with its address canonicalized and host bits
// zeroed (Masked). An invalid prefix is returned unchanged.
func CanonicalPrefix(p netip.Prefix) netip.Prefix {
	if !p.IsValid() {
		return p
	}
	return netip.PrefixFrom(Canonical(p.Addr()), p.Bits()).Masked()
}

// AddrAtIndex returns the i-th address within prefix p, counting from the
// network address. It panics if i addresses past the end of the prefix;
// callers are expected to bound i by AddrCount.
func AddrAtIndex(p netip.Prefix, i uint64) netip.Addr {
	p = CanonicalPrefix(p)
	if p.Addr().Is4() {
		b := p.Addr().As4()
		base := binary.BigEndian.Uint32(b[:])
		hostBits := 32 - p.Bits()
		if hostBits < 32 && i >= uint64(1)<<hostBits {
			panic(fmt.Sprintf("iputil: index %d out of range for %v", i, p))
		}
		var out [4]byte
		binary.BigEndian.PutUint32(out[:], base+uint32(i))
		return netip.AddrFrom4(out)
	}
	b := p.Addr().As16()
	hi := binary.BigEndian.Uint64(b[:8])
	lo := binary.BigEndian.Uint64(b[8:])
	newLo := lo + i
	if newLo < lo { // carry
		hi++
	}
	var out [16]byte
	binary.BigEndian.PutUint64(out[:8], hi)
	binary.BigEndian.PutUint64(out[8:], newLo)
	return netip.AddrFrom16(out)
}

// AddrCount returns the number of addresses in p, capped at 1<<62 to stay
// representable; IPv6 prefixes shorter than /66 all report the cap.
func AddrCount(p netip.Prefix) uint64 {
	p = CanonicalPrefix(p)
	bits := 128
	if p.Addr().Is4() {
		bits = 32
	}
	host := bits - p.Bits()
	if host >= 62 {
		return 1 << 62
	}
	return 1 << host
}

// SubnetCount returns how many subnets of length newBits fit inside p.
// It returns 0 when newBits is shorter than p's own length. The result is
// capped at 1<<62.
func SubnetCount(p netip.Prefix, newBits int) uint64 {
	p = CanonicalPrefix(p)
	if newBits < p.Bits() {
		return 0
	}
	d := newBits - p.Bits()
	if d >= 62 {
		return 1 << 62
	}
	return 1 << d
}

// NthSubnet returns the n-th subnet of length newBits inside p.
// It panics on out-of-range n or newBits outside [p.Bits(), addrBits].
func NthSubnet(p netip.Prefix, newBits int, n uint64) netip.Prefix {
	p = CanonicalPrefix(p)
	maxBits := 128
	if p.Addr().Is4() {
		maxBits = 32
	}
	if newBits < p.Bits() || newBits > maxBits {
		panic(fmt.Sprintf("iputil: bad subnet length %d for %v", newBits, p))
	}
	if c := SubnetCount(p, newBits); n >= c {
		panic(fmt.Sprintf("iputil: subnet index %d out of range for %v/%d", n, p, newBits))
	}
	host := uint(maxBits - newBits)
	if p.Addr().Is4() {
		addr := AddrAtIndex(netip.PrefixFrom(p.Addr(), p.Bits()), n<<host)
		return netip.PrefixFrom(addr, newBits).Masked()
	}
	// IPv6 offsets need 128-bit arithmetic: add n << host to the address.
	b := p.Addr().As16()
	hi := binary.BigEndian.Uint64(b[:8])
	lo := binary.BigEndian.Uint64(b[8:])
	var sHi, sLo uint64
	switch {
	case host >= 64:
		sHi = n << (host - 64)
	case host == 0:
		sLo = n
	default:
		sLo = n << host
		sHi = n >> (64 - host)
	}
	newLo := lo + sLo
	carry := uint64(0)
	if newLo < lo {
		carry = 1
	}
	binary.BigEndian.PutUint64(b[:8], hi+sHi+carry)
	binary.BigEndian.PutUint64(b[8:], newLo)
	return netip.PrefixFrom(netip.AddrFrom16(b), newBits).Masked()
}

// Subnets calls fn for every subnet of length newBits within p, in address
// order, stopping early if fn returns false. It reports whether iteration
// ran to completion.
func Subnets(p netip.Prefix, newBits int, fn func(netip.Prefix) bool) bool {
	n := SubnetCount(p, newBits)
	// IPv4 fast path: enumerate by stepping a packed uint32 instead of
	// paying NthSubnet's canonicalization and bounds checks per subnet
	// (scan universes iterate millions of /24s through here). Produces
	// bit-identical prefixes to the generic path.
	if a := Canonical(p.Addr()); a.Is4() && newBits > 0 && newBits >= p.Bits() && newBits <= 32 {
		a4 := a.As4()
		base := binary.BigEndian.Uint32(a4[:]) & (^uint32(0) << (32 - p.Bits()))
		step := uint32(1) << (32 - newBits)
		var b [4]byte
		for i := uint64(0); i < n; i++ {
			binary.BigEndian.PutUint32(b[:], base+uint32(i)*step)
			if !fn(netip.PrefixFrom(netip.AddrFrom4(b), newBits)) {
				return false
			}
		}
		return true
	}
	for i := uint64(0); i < n; i++ {
		if !fn(NthSubnet(p, newBits, i)) {
			return false
		}
	}
	return true
}

// ParentAt returns the enclosing prefix of addr with the given length.
func ParentAt(addr netip.Addr, bits int) netip.Prefix {
	return netip.PrefixFrom(Canonical(addr), bits).Masked()
}

// Slash24 returns the /24 containing the IPv4 address addr. It panics if
// addr is not IPv4 (after unmapping).
func Slash24(addr netip.Addr) netip.Prefix {
	addr = Canonical(addr)
	if !addr.Is4() {
		panic("iputil: Slash24 requires an IPv4 address")
	}
	return ParentAt(addr, 24)
}

// Slash64 returns the /64 containing the IPv6 address addr. It panics if
// addr is IPv4.
func Slash64(addr netip.Addr) netip.Prefix {
	addr = Canonical(addr)
	if addr.Is4() {
		panic("iputil: Slash64 requires an IPv6 address")
	}
	return ParentAt(addr, 64)
}

// Contains reports whether p contains the (canonicalized) address addr,
// tolerating mixed 4-in-6 representations.
func Contains(p netip.Prefix, addr netip.Addr) bool {
	return CanonicalPrefix(p).Contains(Canonical(addr))
}

// Overlaps reports whether the two prefixes share any address, tolerating
// mixed representations.
func Overlaps(a, b netip.Prefix) bool {
	return CanonicalPrefix(a).Overlaps(CanonicalPrefix(b))
}

// HashAddr returns a deterministic 64-bit FNV-1a hash of the address.
// It is stable across processes and platforms, which the world generator
// relies on for reproducible assignment decisions.
func HashAddr(addr netip.Addr) uint64 {
	addr = Canonical(addr)
	if addr.Is4() {
		b := addr.As4()
		return fnv1a(b[:])
	}
	b := addr.As16()
	return fnv1a(b[:])
}

// fnv1a returns the 64-bit FNV-1a hash of b.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// HashPrefix returns a deterministic 64-bit hash of the prefix, combining
// the masked network address with the prefix length.
func HashPrefix(p netip.Prefix) uint64 {
	var h uint64
	if a, bits := p.Addr(), p.Bits(); a.Is4() && bits >= 0 {
		// Plain IPv4 — every /24 the scan asks about — is already
		// canonical: clear the host bits in place and hash the four
		// bytes as HashAddr does, without rebuilding the prefix. For
		// bits 0 the shift yields 0, so the mask clears every bit.
		b := a.As4()
		binary.BigEndian.PutUint32(b[:], binary.BigEndian.Uint32(b[:])&^(uint32(1)<<(32-bits)-1))
		h = fnv1a(b[:])
	} else {
		p = CanonicalPrefix(p)
		h = HashAddr(p.Addr())
	}
	h ^= uint64(p.Bits()) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// HashString returns a deterministic 64-bit FNV-1a hash of s.
func HashString(s string) uint64 {
	const offset = 14695981039346656037
	const prime = 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Mix folds extra entropy into a hash value. It implements the
// splitmix64 finalizer, which is cheap and has full avalanche behaviour.
func Mix(h, salt uint64) uint64 {
	h += salt + 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
