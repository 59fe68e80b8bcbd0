package colstore

// Streaming dataset diffing. Because both datasets hold their address
// rows in the same total order (IPv4 ascending, then IPv6 ascending —
// netip.Addr.Compare's order), the month-over-month change set is a
// single two-pointer merge per family: no maps to build, no hash
// lookups per row, no post-sort of the output, and the emitted changes
// arrive already in canonical order. relayd's ComputeDiff is this merge.

import (
	"net/netip"

	"github.com/relay-networks/privaterelay/internal/bgp"
)

// ChangeKind classifies one address-level change between two datasets.
type ChangeKind uint8

// Change kinds, in the order the canonical diff format renders them.
const (
	// Appeared: the address is in the new dataset only.
	Appeared ChangeKind = iota
	// Vanished: the address is in the old dataset only.
	Vanished
	// MovedAS: the address is in both with a different origin AS.
	MovedAS
)

// String names the kind.
func (k ChangeKind) String() string {
	switch k {
	case Appeared:
		return "appeared"
	case Vanished:
		return "vanished"
	case MovedAS:
		return "moved-as"
	default:
		return "unknown"
	}
}

// Change is one emitted difference. OldAS is set for Vanished and
// MovedAS; NewAS for Appeared and MovedAS.
type Change struct {
	Kind  ChangeKind
	Addr  netip.Addr
	OldAS bgp.ASN
	NewAS bgp.ASN
}

// Diff streams the change set from old to new: one merge over the IPv4
// columns, then one over the IPv6 columns. Within each family, changes
// are emitted in ascending address order; families do not interleave
// (all IPv4 changes precede all IPv6 changes, matching
// netip.Addr.Compare). fn returning false stops the walk early.
//
// The walk is allocation-light: the only per-change work is
// reconstructing the netip.Addr handed to fn.
func Diff(old, new *Dataset, fn func(Change) bool) {
	if !diffV4(old, new, fn) {
		return
	}
	diffV6(old, new, fn)
}

// DiffCounts tallies Diff's change set, indexed by ChangeKind.
func DiffCounts(old, new *Dataset) (counts [MovedAS + 1]int) {
	Diff(old, new, func(c Change) bool {
		counts[c.Kind]++
		return true
	})
	return counts
}

func diffV4(old, new *Dataset, fn func(Change) bool) bool {
	i, j := 0, 0
	for i < len(old.V4Addr) && j < len(new.V4Addr) {
		a, b := old.V4Addr[i], new.V4Addr[j]
		switch {
		case a == b:
			if oldAS, newAS := old.V4ASN[i], new.V4ASN[j]; oldAS != newAS {
				if !fn(Change{Kind: MovedAS, Addr: new.V4AddrAt(j), OldAS: oldAS, NewAS: newAS}) {
					return false
				}
			}
			i++
			j++
		case a < b:
			if !fn(Change{Kind: Vanished, Addr: old.V4AddrAt(i), OldAS: old.V4ASN[i]}) {
				return false
			}
			i++
		default:
			if !fn(Change{Kind: Appeared, Addr: new.V4AddrAt(j), NewAS: new.V4ASN[j]}) {
				return false
			}
			j++
		}
	}
	for ; i < len(old.V4Addr); i++ {
		if !fn(Change{Kind: Vanished, Addr: old.V4AddrAt(i), OldAS: old.V4ASN[i]}) {
			return false
		}
	}
	for ; j < len(new.V4Addr); j++ {
		if !fn(Change{Kind: Appeared, Addr: new.V4AddrAt(j), NewAS: new.V4ASN[j]}) {
			return false
		}
	}
	return true
}

func diffV6(old, new *Dataset, fn func(Change) bool) bool {
	i, j := 0, 0
	for i < len(old.V6Hi) && j < len(new.V6Hi) {
		switch compare128(old.V6Hi[i], old.V6Lo[i], new.V6Hi[j], new.V6Lo[j]) {
		case 0:
			if oldAS, newAS := old.V6ASN[i], new.V6ASN[j]; oldAS != newAS {
				if !fn(Change{Kind: MovedAS, Addr: new.V6AddrAt(j), OldAS: oldAS, NewAS: newAS}) {
					return false
				}
			}
			i++
			j++
		case -1:
			if !fn(Change{Kind: Vanished, Addr: old.V6AddrAt(i), OldAS: old.V6ASN[i]}) {
				return false
			}
			i++
		default:
			if !fn(Change{Kind: Appeared, Addr: new.V6AddrAt(j), NewAS: new.V6ASN[j]}) {
				return false
			}
			j++
		}
	}
	for ; i < len(old.V6Hi); i++ {
		if !fn(Change{Kind: Vanished, Addr: old.V6AddrAt(i), OldAS: old.V6ASN[i]}) {
			return false
		}
	}
	for ; j < len(new.V6Hi); j++ {
		if !fn(Change{Kind: Appeared, Addr: new.V6AddrAt(j), NewAS: new.V6ASN[j]}) {
			return false
		}
	}
	return true
}

// Lookup reports the origin AS of addr, using binary search over the
// family's sorted key column. It is how consumers borrow the columns as
// a read-only address set — the classifier's ingress membership test,
// for example — without rebuilding a map.
func (d *Dataset) Lookup(addr netip.Addr) (bgp.ASN, bool) {
	if addr.Is4() {
		key := V4Key(addr)
		lo, hi := 0, len(d.V4Addr)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if d.V4Addr[mid] < key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(d.V4Addr) && d.V4Addr[lo] == key {
			return d.V4ASN[lo], true
		}
		return 0, false
	}
	if !addr.IsValid() {
		return 0, false
	}
	khi, klo := V6Key(addr)
	lo, hi := 0, len(d.V6Hi)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if compare128(d.V6Hi[mid], d.V6Lo[mid], khi, klo) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(d.V6Hi) && d.V6Hi[lo] == khi && d.V6Lo[lo] == klo {
		return d.V6ASN[lo], true
	}
	return 0, false
}
