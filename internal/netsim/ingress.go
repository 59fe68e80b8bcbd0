package netsim

import (
	"net/netip"
	"slices"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/iputil"
)

// Pool sizing: each pool is a stable superset from which monthly fleets
// are cut as sliding windows, so consecutive months overlap heavily
// (growth with light churn, as observed between the paper's four scans).
const (
	poolAppleDefault   = 380
	poolAkamaiDefault  = 1300
	poolAppleFallback  = 370
	poolAkamaiFallback = 1100
)

// MaxAnswerRecords is the maximum number of A/AAAA records per response,
// matching the paper's observation of "up to eight different records".
const MaxAnswerRecords = 8

// buildPools materializes every ingress relay address pool.
func (w *World) buildPools() {
	mk := func(as bgp.ASN, proto Proto, fam Family, n int) {
		prefixes := w.ingressPfx[serviceKey{as, fam}]
		pool := make([]netip.Addr, n)
		for i := 0; i < n; i++ {
			pfx := prefixes[i%len(prefixes)]
			// Hosts are packed densely from offset 1; each prefix holds
			// far more hosts than pool/len(prefixes), so no collisions.
			host := uint64(1 + i/len(prefixes))
			pool[i] = iputil.AddrAtIndex(pfx, host)
		}
		w.pools[poolKey{as, proto, fam}] = pool
	}
	mk(ASApple, ProtoDefault, FamilyV4, poolAppleDefault)
	mk(ASAkamaiPR, ProtoDefault, FamilyV4, poolAkamaiDefault)
	mk(ASApple, ProtoFallback, FamilyV4, poolAppleFallback)
	mk(ASAkamaiPR, ProtoFallback, FamilyV4, poolAkamaiFallback)
	// IPv6 pools are sized exactly to the (single) April observation.
	mk(ASApple, ProtoDefault, FamilyV6, w.Params.V6Fleet.Apple)
	mk(ASAkamaiPR, ProtoDefault, FamilyV6, w.Params.V6Fleet.Akamai)
	mk(ASApple, ProtoFallback, FamilyV6, w.Params.V6Fleet.Apple)
	mk(ASAkamaiPR, ProtoFallback, FamilyV6, w.Params.V6Fleet.Akamai)
}

// fleetSize returns the configured fleet size for the month and plane.
func (w *World) fleetSize(month bgp.Month, proto Proto) FleetSizes {
	if proto == ProtoFallback {
		return w.Params.FallbackFleet[month]
	}
	return w.Params.DefaultFleet[month]
}

// monthIndex returns the scan index of month (0 for January 2022, and
// for any month that is not a scan month).
func monthIndex(m bgp.Month) int {
	i, _ := scanMonthIndex(m)
	return i
}

// scanMonthIndex returns month's position in ScanMonths.
func scanMonthIndex(m bgp.Month) (int, bool) {
	for i, sm := range ScanMonths {
		if sm == m {
			return i, true
		}
	}
	return 0, false
}

// fleetIndex returns the slot of one prebuilt fleet — the unshifted
// (phase 0) window of one operator in one scan month, plane and family
// — in World.fleets, laid out operator × scan month × plane × family.
// It reports false for any other combination.
func fleetIndex(as bgp.ASN, month bgp.Month, proto Proto, fam Family) (int, bool) {
	var op int
	switch as {
	case ASApple:
		op = 0
	case ASAkamaiPR:
		op = 1
	default:
		return 0, false
	}
	m, ok := scanMonthIndex(month)
	if !ok || uint(proto) > 1 || uint(fam) > 1 {
		return 0, false
	}
	return ((op*len(ScanMonths)+m)*2+int(proto))*2 + int(fam), true
}

// buildFleets materializes the phase-0 fleet of every operator, scan
// month, plane and family — the only fleets the answer path asks for.
func (w *World) buildFleets() {
	w.fleets = make([][]netip.Addr, 2*len(ScanMonths)*2*2)
	for _, as := range []bgp.ASN{ASApple, ASAkamaiPR} {
		for _, month := range ScanMonths {
			for _, proto := range []Proto{ProtoDefault, ProtoFallback} {
				for _, fam := range []Family{FamilyV4, FamilyV6} {
					i, _ := fleetIndex(as, month, proto, fam)
					w.fleets[i] = w.buildIngressFleet(as, month, proto, fam, 0)
				}
			}
		}
	}
}

// IngressFleet returns the relay addresses of one operator active in the
// given month/plane/family. The phase parameter shifts the fleet window by
// phase addresses, modeling fleet churn between two scans run at slightly
// different times (the RIPE Atlas validation in §4.1 found exactly one
// address the concurrent ECS scan did not).
//
// Unshifted scan-month fleets come from the table built in NewWorld and
// are shared between callers — treat the returned slice as read-only.
// Anything else is computed on demand.
func (w *World) IngressFleet(as bgp.ASN, month bgp.Month, proto Proto, fam Family, phase int) []netip.Addr {
	if phase == 0 {
		if i, ok := fleetIndex(as, month, proto, fam); ok {
			return w.fleets[i]
		}
	}
	return w.buildIngressFleet(as, month, proto, fam, phase)
}

func (w *World) buildIngressFleet(as bgp.ASN, month bgp.Month, proto Proto, fam Family, phase int) []netip.Addr {
	pool := w.pools[poolKey{as, proto, fam}]
	if len(pool) == 0 {
		return nil
	}
	var n int
	if fam == FamilyV6 {
		// A single IPv6 fleet was observed (April); it is month-invariant.
		n = len(pool)
	} else {
		sizes := w.fleetSize(month, proto)
		if as == ASApple {
			n = sizes.Apple
		} else {
			n = sizes.Akamai
		}
	}
	if n <= 0 {
		return nil
	}
	if n > len(pool) {
		n = len(pool)
	}
	// Sliding window: later months start slightly further into the pool,
	// so fleets mostly grow while a few early members rotate out.
	start := monthIndex(month)*5 + phase
	out := make([]netip.Addr, n)
	for i := 0; i < n; i++ {
		out[i] = pool[(start+i)%len(pool)]
	}
	return out
}

// FleetUnion returns both operators' fleets merged, with AS attribution.
func (w *World) FleetUnion(month bgp.Month, proto Proto, fam Family, phase int) map[netip.Addr]bgp.ASN {
	out := make(map[netip.Addr]bgp.ASN)
	for _, addr := range w.IngressFleet(ASApple, month, proto, fam, phase) {
		out[addr] = ASApple
	}
	for _, addr := range w.IngressFleet(ASAkamaiPR, month, proto, fam, phase) {
		out[addr] = ASAkamaiPR
	}
	return out
}

// answerPlan is everything the serving path derives from one client
// subnet, before the month and plane come in: whether it belongs to a
// client AS, the serving operator, the answer key and the ECS scope.
// It is computed per query from one lookup in the flattened routing
// table — nothing on the answer path is memoized.
//
// Scope honesty: every field is a function of the answer key's unit —
// the /24 itself inside "both" ASes (scope /24), the covering route in
// single-operator ASes (scope = route length) — so all /24s inside an
// advertised scope get the same plan, and with it the same answer, in
// every month and on both planes. The scanner's scope skipping (§7)
// and its concurrency-independence rest on this.
type answerPlan struct {
	key   uint64  // record-selection hash (per-/24 in "both" ASes, per-route otherwise)
	scope uint8   // ECS scope length the server advertises
	known bool    // subnet belongs to a client AS
	base  bgp.ASN // serving operator before the fallback ramp
	// marAkamai: the March fallback ramp keeps this answer unit at
	// Akamai (only meaningful when base == ASAkamaiPR).
	marAkamai bool
}

// serving applies the month/proto-dependent part of the plan: the
// fallback plane was served entirely by Apple until Akamai fallback
// capacity appeared in March (partial) and April (full) — Table 1's
// fallback columns.
func (p answerPlan) serving(month bgp.Month, proto Proto) bgp.ASN {
	s := p.base
	if proto == ProtoFallback && s == ASAkamaiPR {
		switch {
		case month.Before(MonthMar):
			s = ASApple
		case month == MonthMar:
			if !p.marAkamai {
				s = ASApple
			}
		}
	}
	return s
}

// planFor derives subnet's answer plan. Assignment reproduces the
// Table 2 structure: whole ASes are Akamai-only or Apple-only, and
// inside "both" ASes the split is per-/24 with Apple at 76 %.
func (w *World) planFor(subnet netip.Prefix) answerPlan {
	route, origin, routed := w.routes.Route(subnet.Addr())
	if !routed {
		return answerPlan{}
	}
	idx, isClient := w.clientIndex(origin)
	if !isClient {
		return answerPlan{}
	}

	// The answer unit is the /24 inside "both" ASes, where the operator
	// varies per /24, and the covering route everywhere else.
	group := w.ClientASes[idx].Group
	p := answerPlan{known: true}
	if group == GroupBoth {
		p.key, p.scope = iputil.HashPrefix(subnet), 24
	} else {
		p.key, p.scope = iputil.HashPrefix(route), uint8(route.Bits())
	}
	switch group {
	case GroupAkamaiOnly:
		p.base = ASAkamaiPR
	case GroupAppleOnly:
		p.base = ASApple
	default:
		if iputil.Mix(p.key, w.seed^0xA5)%100 < 100-appleShareInBothPct {
			p.base = ASAkamaiPR
		} else {
			p.base = ASApple
		}
	}
	if p.base == ASAkamaiPR {
		// March fallback ramp: ~7 % of Akamai-served answer units already
		// have fallback capacity. Hashed from the answer key, not the /24,
		// so the operator is constant inside every advertised scope.
		p.marAkamai = iputil.Mix(p.key, w.seed^0x7C)%100 < 7
	}
	return p
}

// ServingAS decides which ingress operator serves a client /24 on the
// given plane and month. See planFor for the assignment structure.
func (w *World) ServingAS(subnet netip.Prefix, month bgp.Month, proto Proto) (bgp.ASN, bool) {
	p := w.planFor(subnet)
	if !p.known {
		return 0, false
	}
	return p.serving(month, proto), true
}

// AnswerScope returns the ECS scope prefix length the authoritative server
// attaches when answering for subnet: /24 inside "both" ASes (operator
// varies per /24) and the covering route's length for single-operator
// ASes, where one answer is valid for the whole announcement.
func (w *World) AnswerScope(subnet netip.Prefix) (uint8, bool) {
	p := w.planFor(subnet)
	if !p.known {
		return 0, false
	}
	return p.scope, true
}

// AnswerClass bundles the per-subnet serving decision for one month and
// plane: the operator, the record-selection key and the ECS scope, all
// from a single routing lookup. Callers that need more than one of
// these — the authoritative server needs all three per query — use this
// instead of three separate World calls.
type AnswerClass struct {
	Serving bgp.ASN
	Key     uint64
	Scope   uint8
	Known   bool
}

// AnswerClass classifies subnet for the month/plane in one lookup.
func (w *World) AnswerClass(subnet netip.Prefix, month bgp.Month, proto Proto) AnswerClass {
	p := w.planFor(subnet)
	if !p.known {
		return AnswerClass{}
	}
	return AnswerClass{
		Serving: p.serving(month, proto),
		Key:     p.key,
		Scope:   p.scope,
		Known:   true,
	}
}

// IngressAnswer returns the up-to-eight A records the authoritative name
// server serves for an ECS query with the given client subnet, for the
// month/plane. Record selection is deterministic per (subnet, month) —
// more precisely per the subnet's answer key, which also determines the
// serving operator.
func (w *World) IngressAnswer(subnet netip.Prefix, month bgp.Month, proto Proto) []netip.Addr {
	ac := w.AnswerClass(iputil.CanonicalPrefix(subnet), month, proto)
	return w.IngressAnswerFor(nil, ac, month, proto)
}

// IngressAnswerFor appends the A records for an already-classified
// subnet (see AnswerClass) to dst and returns the extended slice. The
// authoritative server classifies each query itself, to get the ECS
// scope, and passes a stack array of MaxAnswerRecords here.
func (w *World) IngressAnswerFor(dst []netip.Addr, ac AnswerClass, month bgp.Month, proto Proto) []netip.Addr {
	if !ac.Known {
		return dst
	}
	fleet := w.IngressFleet(ac.Serving, month, proto, FamilyV4, 0)
	if len(fleet) == 0 {
		// Plane not yet deployed at this operator: Apple serves it.
		fleet = w.IngressFleet(ASApple, month, proto, FamilyV4, 0)
	}
	return pickAnswers(dst, fleet, ac.Key, month, proto)
}

// IngressAnswerV6 appends to dst the AAAA records served to a resolver
// identified by key (the server has no per-subnet view for IPv6 — it
// answers with scope 0, §3). The Apple/Akamai split matches the April
// IPv6 shares.
func (w *World) IngressAnswerV6(dst []netip.Addr, key uint64, month bgp.Month, proto Proto) []netip.Addr {
	serving := ASAkamaiPR
	// 346/1575 ≈ 22 % of IPv6 relays sit at Apple.
	if iputil.Mix(key, w.seed^0x6A)%100 < 22 {
		serving = ASApple
	}
	return pickAnswers(dst, w.IngressFleet(serving, month, proto, FamilyV6, 0), key, month, proto)
}

// pickAnswers deterministically selects up to MaxAnswerRecords distinct
// fleet members for a key, appending them to dst.
func pickAnswers(dst, fleet []netip.Addr, key uint64, month bgp.Month, proto Proto) []netip.Addr {
	n := min(MaxAnswerRecords, len(fleet))
	base := len(dst)
	salt := uint64(monthIndex(month))<<8 | uint64(proto)
	for k := 0; len(dst)-base < n; k++ {
		a := fleet[iputil.Mix(key, salt+uint64(k)*0x9E37)%uint64(len(fleet))]
		// Linear dedup: n is at most MaxAnswerRecords (8), so scanning the
		// short output slice beats allocating a set per query.
		if !slices.Contains(dst[base:], a) {
			dst = append(dst, a)
		}
		if k > 16*n { // fleet smaller than n after dedup pressure
			break
		}
	}
	return dst
}
