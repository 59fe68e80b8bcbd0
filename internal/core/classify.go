package core

import (
	"cmp"
	"net/netip"
	"slices"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/colstore"
	"github.com/relay-networks/privaterelay/internal/iputil"
)

// TrafficClass labels one observed flow endpoint pair for a passive
// network observer (§6: the ingress dataset lets operators detect relay
// traffic; the published egress list identifies relay-originated flows).
type TrafficClass int

// Flow classifications.
const (
	// ClassUnrelated is ordinary traffic.
	ClassUnrelated TrafficClass = iota
	// ClassToIngress is a client talking into the relay network: its
	// destination is a known ingress relay. The observer learns that the
	// client uses Private Relay but nothing about the visited service.
	ClassToIngress
	// ClassFromEgress is relay traffic arriving at a server: the source
	// is inside a published egress subnet. IDSs should expect rotating
	// source addresses within these ranges.
	ClassFromEgress
)

// String names the class.
func (c TrafficClass) String() string {
	switch c {
	case ClassToIngress:
		return "to-ingress"
	case ClassFromEgress:
		return "from-egress"
	default:
		return "unrelated"
	}
}

// Classifier detects relay traffic from the two public datasets.
// Ingress membership is answered from borrowed sorted column sets probed
// by binary search, so a classifier over a scan or a loaded sidecar
// costs no copy to build; the columns must stay immutable for the
// classifier's lifetime.
type Classifier struct {
	ingress []*colstore.Dataset
	egress  iputil.Flat[bgp.ASN]
}

// NewClassifier builds a classifier from an ingress dataset (nil for
// none yet) and the egress subnet list (prefix → operator AS).
func NewClassifier(ingress *colstore.Dataset, egressSubnets map[netip.Prefix]bgp.ASN) *Classifier {
	c := &Classifier{}
	if ingress != nil {
		c.ingress = append(c.ingress, ingress)
	}
	spans := make([]iputil.Span[bgp.ASN], 0, len(egressSubnets))
	for pfx, as := range egressSubnets {
		if pfx = iputil.CanonicalPrefix(pfx); pfx.IsValid() {
			spans = append(spans, iputil.Span[bgp.ASN]{Prefix: pfx, Val: as})
		}
	}
	// Sorted so the flattened index does not depend on map order; of two
	// keys that canonicalize to one prefix, the higher AS wins.
	slices.SortFunc(spans, func(a, b iputil.Span[bgp.ASN]) int {
		return cmp.Or(a.Prefix.Addr().Compare(b.Prefix.Addr()),
			cmp.Compare(a.Prefix.Bits(), b.Prefix.Bits()), cmp.Compare(a.Val, b.Val))
	})
	c.egress = iputil.Flatten(spans)
	return c
}

// AddIngress borrows an additional ingress dataset (e.g. the fallback
// plane's or a newer scan). On overlapping addresses the newest addition
// wins.
func (c *Classifier) AddIngress(cs *colstore.Dataset) {
	c.ingress = append(c.ingress, cs)
}

// lookupIngress resolves an already-canonicalized address across the
// borrowed column sets, newest first.
func (c *Classifier) lookupIngress(addr netip.Addr) (bgp.ASN, bool) {
	for i := len(c.ingress) - 1; i >= 0; i-- {
		if as, ok := c.ingress[i].Lookup(addr); ok {
			return as, true
		}
	}
	return 0, false
}

// Classify labels a flow given by source and destination address, as seen
// by a passive observer. Operator attribution (when matched) is returned
// alongside.
func (c *Classifier) Classify(src, dst netip.Addr) (TrafficClass, bgp.ASN) {
	if as, ok := c.lookupIngress(iputil.Canonical(dst)); ok {
		return ClassToIngress, as
	}
	if as, ok := c.lookupEgress(src); ok {
		return ClassFromEgress, as
	}
	return ClassUnrelated, 0
}

// IsIngress reports whether addr is a known ingress relay.
func (c *Classifier) IsIngress(addr netip.Addr) bool {
	_, ok := c.lookupIngress(iputil.Canonical(addr))
	return ok
}

// IsEgress reports whether addr falls in a published egress subnet.
func (c *Classifier) IsEgress(addr netip.Addr) bool {
	_, ok := c.lookupEgress(addr)
	return ok
}

// lookupEgress resolves addr to the operator AS of the most-specific
// published egress subnet containing it.
func (c *Classifier) lookupEgress(addr netip.Addr) (bgp.ASN, bool) {
	addr = iputil.Canonical(addr)
	if !addr.IsValid() {
		return 0, false
	}
	i := c.egress.Lookup(addr)
	if i < 0 {
		return 0, false
	}
	return c.egress.At(i).Val, true
}
