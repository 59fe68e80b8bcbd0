package core

import "github.com/relay-networks/privaterelay/internal/bgp"

// originTableBits sizes a fresh table at 1 024 slots. A scan month's
// answers come from a fleet of about 1.6k addresses, so a worker's
// table doubles twice on its first units and never again.
const originTableBits = 10

// originTable maps a packed IPv4 answer address to its origin AS: open
// addressing with linear probing over a power-of-two array of 8-byte
// slots, doubled whenever an insert leaves it half full. The slot is
// the top bits of a Fibonacci hash of the key, so the densely packed
// hosts of one ingress prefix spread over the array instead of
// clustering. Key 0 marks an empty slot, so 0.0.0.0 is never stored.
type originTable struct {
	slots []originSlot
	shift uint8 // 32 - log2(len(slots)): the hash bits that pick a slot
	n     int   // filled slots
}

type originSlot struct {
	key uint32
	as  bgp.ASN
}

func newOriginTable() originTable {
	return originTable{slots: make([]originSlot, 1<<originTableBits), shift: 32 - originTableBits}
}

// home returns the slot key's probe starts at.
func (t *originTable) home(key uint32) uint32 { return key * 0x9E3779B1 >> t.shift }

// find returns key's slot, or the empty slot an insert of key fills.
// key must not be 0. The table is never more than half full, so the
// probe ends.
func (t *originTable) find(key uint32) *originSlot {
	mask := uint32(len(t.slots) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.key == key || s.key == 0 {
			return s
		}
	}
}

// fill stores key → as in s, an empty slot find returned for key.
func (t *originTable) fill(s *originSlot, key uint32, as bgp.ASN) {
	*s = originSlot{key: key, as: as}
	if t.n++; 2*t.n >= len(t.slots) {
		t.grow()
	}
}

func (t *originTable) grow() {
	old := t.slots
	t.slots = make([]originSlot, 2*len(old))
	t.shift--
	for _, s := range old {
		if s.key != 0 {
			*t.find(s.key) = s
		}
	}
}
