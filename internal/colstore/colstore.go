// Package colstore is the columnar representation of a canonical scan
// dataset: the address set split into per-family sorted key columns —
// 4-byte IPv4 keys and 16-byte IPv6 keys as hi/lo word pairs, mirroring
// bgp.Index's interval layout — each with a parallel origin-AS column,
// plus the per-client serving statistics as sorted (client, operator,
// count) triples. The columns are the scan pipeline's interchange
// currency for everything that is slow about maps: month-over-month
// diffing becomes a streaming two-pointer merge, operator counts become
// a linear sweep, and persistence becomes a block copy (codec.go) —
// no per-row parsing, hashing, or post-sorting anywhere.
//
// The row order is total and canonical: IPv4 rows ascending, then IPv6
// rows ascending, exactly netip.Addr.Compare's order over the same
// addresses. Every producer must uphold it (Normalize exists for bulk
// builders); every consumer may rely on it.
package colstore

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"

	"github.com/relay-networks/privaterelay/internal/bgp"
)

// Dataset is one canonical scan dataset in columnar form. The i-th
// element of each key column pairs with the i-th element of its
// parallel columns; families never share a column. All key columns are
// strictly ascending (no duplicate addresses, no duplicate
// (client, operator) pairs).
type Dataset struct {
	// Domain is the scanned service name ("mask.icloud.com.").
	Domain string

	// V4Addr holds IPv4 addresses as big-endian uint32 keys, strictly
	// ascending; V4ASN[i] is the origin AS of V4Addr[i].
	V4Addr []uint32
	V4ASN  []bgp.ASN

	// V6Hi/V6Lo hold IPv6 addresses as 128-bit keys split into two
	// word columns (numeric big-endian halves), strictly ascending by
	// (hi, lo); V6ASN[i] is the origin AS of row i.
	V6Hi  []uint64
	V6Lo  []uint64
	V6ASN []bgp.ASN

	// SrvClient/SrvOp/SrvCount are the serving statistics — served /24
	// count per (client AS, operator AS) — strictly ascending by
	// (client, operator).
	SrvClient []bgp.ASN
	SrvOp     []bgp.ASN
	SrvCount  []int64
}

// Rows returns the total row count across all three sections.
func (d *Dataset) Rows() int {
	return len(d.V4Addr) + len(d.V6Hi) + len(d.SrvClient)
}

// Addrs returns the number of address rows (both families).
func (d *Dataset) Addrs() int { return len(d.V4Addr) + len(d.V6Hi) }

// V4AddrAt reconstructs the netip.Addr of IPv4 row i.
func (d *Dataset) V4AddrAt(i int) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], d.V4Addr[i])
	return netip.AddrFrom4(b)
}

// V6AddrAt reconstructs the netip.Addr of IPv6 row i.
func (d *Dataset) V6AddrAt(i int) netip.Addr {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], d.V6Hi[i])
	binary.BigEndian.PutUint64(b[8:], d.V6Lo[i])
	return netip.AddrFrom16(b)
}

// V4Key flattens an IPv4 address into its column key.
func V4Key(a netip.Addr) uint32 {
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

// V6Key flattens an IPv6 address into its (hi, lo) column key.
func V6Key(a netip.Addr) (hi, lo uint64) {
	b := a.As16()
	return binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
}

// ForEachAddr visits every address row in canonical order (IPv4
// ascending, then IPv6 ascending — netip.Addr.Compare order) until fn
// returns false.
func (d *Dataset) ForEachAddr(fn func(addr netip.Addr, as bgp.ASN) bool) {
	for i := range d.V4Addr {
		if !fn(d.V4AddrAt(i), d.V4ASN[i]) {
			return
		}
	}
	for i := range d.V6Hi {
		if !fn(d.V6AddrAt(i), d.V6ASN[i]) {
			return
		}
	}
}

// AddressesOf returns the addresses originated by as, in canonical
// order — a filter over the walk, with no sort.
func (d *Dataset) AddressesOf(as bgp.ASN) []netip.Addr {
	var out []netip.Addr
	d.ForEachAddr(func(addr netip.Addr, origin bgp.ASN) bool {
		if origin == as {
			out = append(out, addr)
		}
		return true
	})
	return out
}

// AppendAddr appends one address row to its family's columns. A builder
// that appends out of canonical order calls Normalize once at the end.
func (d *Dataset) AppendAddr(addr netip.Addr, as bgp.ASN) {
	if addr.Is4() {
		d.V4Addr = append(d.V4Addr, V4Key(addr))
		d.V4ASN = append(d.V4ASN, as)
		return
	}
	hi, lo := V6Key(addr)
	d.V6Hi = append(d.V6Hi, hi)
	d.V6Lo = append(d.V6Lo, lo)
	d.V6ASN = append(d.V6ASN, as)
}

// AppendServing appends one serving row: count /24s of client served by
// operator. The same Normalize rule as AppendAddr applies.
func (d *Dataset) AppendServing(client, operator bgp.ASN, count int64) {
	d.SrvClient = append(d.SrvClient, client)
	d.SrvOp = append(d.SrvOp, operator)
	d.SrvCount = append(d.SrvCount, count)
}

// OperatorCounts returns the number of address rows per origin AS, one
// linear sweep over the ASN columns.
func (d *Dataset) OperatorCounts() map[bgp.ASN]int {
	out := make(map[bgp.ASN]int)
	for _, as := range d.V4ASN {
		out[as]++
	}
	for _, as := range d.V6ASN {
		out[as]++
	}
	return out
}

// Normalize sorts every section into canonical order and fails on
// duplicate keys. Builders that appended rows out of order (the scan's
// final merge) call it once at the end; datasets decoded from the binary
// codec or the canonical text arrive normalized already.
func (d *Dataset) Normalize() error {
	if err := sortParallel(len(d.V4Addr), func(i, j int) int {
		if d.V4Addr[i] != d.V4Addr[j] {
			if d.V4Addr[i] < d.V4Addr[j] {
				return -1
			}
			return 1
		}
		return 0
	}, func(i, j int) {
		d.V4Addr[i], d.V4Addr[j] = d.V4Addr[j], d.V4Addr[i]
		d.V4ASN[i], d.V4ASN[j] = d.V4ASN[j], d.V4ASN[i]
	}); err != nil {
		return fmt.Errorf("colstore: v4 column: %w", err)
	}
	if err := sortParallel(len(d.V6Hi), func(i, j int) int {
		return compare128(d.V6Hi[i], d.V6Lo[i], d.V6Hi[j], d.V6Lo[j])
	}, func(i, j int) {
		d.V6Hi[i], d.V6Hi[j] = d.V6Hi[j], d.V6Hi[i]
		d.V6Lo[i], d.V6Lo[j] = d.V6Lo[j], d.V6Lo[i]
		d.V6ASN[i], d.V6ASN[j] = d.V6ASN[j], d.V6ASN[i]
	}); err != nil {
		return fmt.Errorf("colstore: v6 column: %w", err)
	}
	if err := sortParallel(len(d.SrvClient), func(i, j int) int {
		return compare128(uint64(d.SrvClient[i]), uint64(d.SrvOp[i]), uint64(d.SrvClient[j]), uint64(d.SrvOp[j]))
	}, func(i, j int) {
		d.SrvClient[i], d.SrvClient[j] = d.SrvClient[j], d.SrvClient[i]
		d.SrvOp[i], d.SrvOp[j] = d.SrvOp[j], d.SrvOp[i]
		d.SrvCount[i], d.SrvCount[j] = d.SrvCount[j], d.SrvCount[i]
	}); err != nil {
		return fmt.Errorf("colstore: serving column: %w", err)
	}
	return nil
}

// compare128 orders two 128-bit values given as word pairs.
func compare128(ahi, alo, bhi, blo uint64) int {
	switch {
	case ahi != bhi:
		if ahi < bhi {
			return -1
		}
		return 1
	case alo != blo:
		if alo < blo {
			return -1
		}
		return 1
	}
	return 0
}

// sortParallel sorts n rows through swap using cmp, then rejects
// duplicates. Sorting through an index permutation keeps the parallel
// columns aligned without materializing row structs.
func sortParallel(n int, cmp func(i, j int) int, swap func(i, j int)) error {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, cmp)
	// Apply the permutation in place via cycle walking.
	applied := make([]bool, n)
	for start := range perm {
		if applied[start] || perm[start] == start {
			continue
		}
		i := start
		for {
			applied[i] = true
			next := perm[i]
			if next == start {
				break
			}
			swap(i, next)
			i = next
		}
	}
	for i := 1; i < n; i++ {
		if cmp(i-1, i) >= 0 {
			return fmt.Errorf("duplicate key at row %d", i)
		}
	}
	return nil
}
