// Package analysis turns measurement outputs into the paper's tables and
// figures: Table 1 (ingress evolution), Table 2 (client attribution),
// Table 3 (egress subnets), Table 4 (covered cities), Figure 2/5 (egress
// geolocation scatter), Figure 3 (operator changes), Figure 4 (location
// CDFs), plus the §4.1 blocking and §4.3 rotation summaries.
//
// Builders are pure functions over the measurement results; rendering is
// separated so binaries can emit either aligned text or CSV.
package analysis

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
	"slices"
	"strings"

	"github.com/relay-networks/privaterelay/internal/aspop"
	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/colstore"
	"github.com/relay-networks/privaterelay/internal/egress"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/workpool"
)

// minShardItems is the fan-out grain: below this, the goroutine
// hand-off plus the per-worker accumulator merge cost more than the
// parallelism buys, so a small input runs on one worker. Every table builder is worker-count-independent by
// construction — workers accumulate into their own maps and the merge
// sums and unions them — so the pool's clamp never changes a result,
// only how the input is partitioned.
const minShardItems = 1 << 13

// Table1Row is one month of Table 1.
type Table1Row struct {
	Month bgp.Month
	// Default plane (mask.icloud.com).
	DefaultApple, DefaultAkamai int
	// Fallback plane (mask-h2.icloud.com); Present is false for January,
	// where the paper ran no fallback scan.
	FallbackPresent               bool
	FallbackApple, FallbackAkamai int
}

// SharePct returns (appleShare, akamaiShare) of the default plane.
func (r Table1Row) SharePct() (float64, float64) {
	total := float64(r.DefaultApple + r.DefaultAkamai)
	if total == 0 {
		return 0, 0
	}
	return float64(r.DefaultApple) / total * 100, float64(r.DefaultAkamai) / total * 100
}

// Table1 builds the ingress-evolution table from per-month datasets.
// fallback may omit months (nil dataset → scan absent).
func Table1(months []bgp.Month, def, fallback map[bgp.Month]*colstore.Dataset) []Table1Row {
	rows := make([]Table1Row, 0, len(months))
	for _, m := range months {
		row := Table1Row{Month: m}
		if cs := def[m]; cs != nil {
			c := cs.OperatorCounts()
			row.DefaultApple = c[netsim.ASApple]
			row.DefaultAkamai = c[netsim.ASAkamaiPR]
		}
		if cs := fallback[m]; cs != nil {
			row.FallbackPresent = true
			c := cs.OperatorCounts()
			row.FallbackApple = c[netsim.ASApple]
			row.FallbackAkamai = c[netsim.ASAkamaiPR]
		}
		rows = append(rows, row)
	}
	return rows
}

// Table2Row is one serving-group row of Table 2.
type Table2Row struct {
	Group   string
	ASPop   int64
	ASes    int
	Subnets int64
}

// forEachClient walks the client-sorted serving columns one client AS at
// a time — a client's operators are adjacent rows — passing the /24s
// AkamaiPR and Apple serve it.
func forEachClient(cs *colstore.Dataset, fn func(client bgp.ASN, akamai, apple int64)) {
	for i := 0; i < len(cs.SrvClient); {
		client := cs.SrvClient[i]
		var ak, ap int64
		for ; i < len(cs.SrvClient) && cs.SrvClient[i] == client; i++ {
			switch cs.SrvOp[i] {
			case netsim.ASAkamaiPR:
				ak = cs.SrvCount[i]
			case netsim.ASApple:
				ap = cs.SrvCount[i]
			}
		}
		fn(client, ak, ap)
	}
}

// Table2 joins the April scan's serving statistics with the AS
// population dataset, grouping client ASes by which operators serve them.
func Table2(cs *colstore.Dataset, pop *aspop.Dataset) []Table2Row {
	rows := map[string]*Table2Row{
		"AkamaiPR": {Group: "AkamaiPR"},
		"Apple":    {Group: "Apple"},
		"Both":     {Group: "Both"},
	}
	forEachClient(cs, func(clientAS bgp.ASN, ak, ap int64) {
		var key string
		switch {
		case ak > 0 && ap > 0:
			key = "Both"
		case ak > 0:
			key = "AkamaiPR"
		case ap > 0:
			key = "Apple"
		default:
			return
		}
		r := rows[key]
		r.ASes++
		r.Subnets += ak + ap
		r.ASPop += pop.Population(clientAS)
	})
	return []Table2Row{*rows["AkamaiPR"], *rows["Apple"], *rows["Both"]}
}

// AppleShareInBoth returns Apple's share (percent) of served subnets
// within "both"-group ASes — the Table 2 footnote.
func AppleShareInBoth(cs *colstore.Dataset) float64 {
	var apple, total int64
	forEachClient(cs, func(_ bgp.ASN, ak, ap int64) {
		if ak > 0 && ap > 0 {
			apple += ap
			total += ak + ap
		}
	})
	if total == 0 {
		return 0
	}
	return float64(apple) / float64(total) * 100
}

// Table3Row is one operator row of Table 3.
type Table3Row struct {
	AS bgp.ASN
	// IPv4.
	V4Subnets int
	V4BGP     int
	V4Addrs   uint64
	// IPv6 (all /64s; the paper omits the address count).
	V6Subnets int
	V6BGP     int
	V6CCs     int
}

// pfxKey is a prefix flattened to a pointer-free comparable value: the
// address as a 128-bit integer plus the prefix length. meta is bits+1 so
// the zero pfxKey (the empty filter slot) differs from 0.0.0.0/0, and
// pfxKeyInvalid marks the one obtainable invalid prefix (the zero
// netip.Prefix). Keys are compared by full content, so the direct-mapped
// filters below never produce false positives, and the exact dedup maps
// hash three machine words instead of a struct the GC must also scan.
// Families never share a key space (v4 and v6 sets are separate fields).
type pfxKey struct {
	hi, lo uint64
	meta   uint8
}

const pfxKeyInvalid = 255

func makePfxKey(p netip.Prefix) pfxKey {
	a := p.Addr()
	if !a.IsValid() {
		return pfxKey{meta: pfxKeyInvalid}
	}
	if a.Is4() {
		b := a.As4()
		return pfxKey{lo: uint64(binary.BigEndian.Uint32(b[:])), meta: uint8(p.Bits() + 1)}
	}
	b := a.As16()
	return pfxKey{hi: binary.BigEndian.Uint64(b[:8]), lo: binary.BigEndian.Uint64(b[8:]), meta: uint8(p.Bits() + 1)}
}

// idBits is a lazily grown bitset over dense route IDs. The attribution
// join numbers BGP announcements 0..N-1 (N is a few thousand at full
// scale), so "have I seen this prefix" is one word test — no hashing, no
// pointers for the GC to scan.
type idBits []uint64

// set marks id, growing the word array on the (rare) first visit past
// the current end. The hot in-range case inlines to a load, or, store.
func (s *idBits) set(id int32) {
	w := int(id >> 6)
	if w < len(*s) {
		(*s)[w] |= uint64(1) << (id & 63)
		return
	}
	s.setSlow(w, uint64(1)<<(id&63))
}

func (s *idBits) setSlow(w int, bit uint64) {
	grown := make(idBits, w+1)
	copy(grown, *s)
	grown[w] |= bit
	*s = grown
}

// or merges o into s, growing as needed.
func (s *idBits) or(o idBits) {
	if len(o) > len(*s) {
		grown := make(idBits, len(o))
		copy(grown, *s)
		*s = grown
	}
	for i, w := range o {
		(*s)[i] |= w
	}
}

// count returns the number of set bits.
func (s idBits) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// ccIndex returns the dense index of an uppercase two-letter country
// code (0..675), or -1 when cc isn't one.
func ccIndex(cc string) int {
	if len(cc) != 2 {
		return -1
	}
	c0, c1 := cc[0]-'A', cc[1]-'A'
	if c0 > 25 || c1 > 25 {
		return -1
	}
	return int(c0)*26 + int(c1)
}

// ccWords holds one bit per two-letter country code.
const ccWords = (26*26 + 63) / 64

// t3acc accumulates one operator's Table 3 row inside one shard. Entries
// stamped with a RouteID dedup their BGP prefix through the bitsets, and
// well-formed country codes dedup through a fixed 676-bit array; rows
// built by hand with no RouteID or an exotic CC fall back to the exact
// maps. Each pair of structures partitions its key space — a prefix or
// CC lands in exactly one of the two — so sizes sum into the row counts.
type t3acc struct {
	row      Table3Row
	v4IDs    idBits
	v6IDs    idBits
	v6CCBits [ccWords]uint64
	v4BGP    map[pfxKey]bool
	v6BGP    map[pfxKey]bool
	v6CCs    map[string]bool
}

func newT3acc(as bgp.ASN) *t3acc {
	return &t3acc{row: Table3Row{AS: as},
		v4BGP: map[pfxKey]bool{}, v6BGP: map[pfxKey]bool{}, v6CCs: map[string]bool{}}
}

// Table3N aggregates the attributed egress list per operator, fanned
// out over `workers` goroutines (≤ 0: workpool's default). Each worker
// aggregates its ranges of entries into per-AS accumulators; the merge
// sums the counters and unions the distinct sets, so the rows are
// identical to the sequential build at any worker count.
func Table3N(attributed []egress.Attributed, workers int) []Table3Row {
	n := len(attributed)
	sharded := make([]map[bgp.ASN]*t3acc, workpool.Workers(n, minShardItems, workers))
	workpool.Run(n, minShardItems, workers, func(w, lo, hi int) {
		byAS := sharded[w]
		if byAS == nil {
			byAS = map[bgp.ASN]*t3acc{}
			sharded[w] = byAS
		}
		var lastAS bgp.ASN
		var ac *t3acc
		for i := lo; i < hi; i++ {
			a := &attributed[i]
			if a.AS == 0 {
				continue
			}
			if ac == nil || a.AS != lastAS {
				lastAS = a.AS
				ac = byAS[a.AS]
				if ac == nil {
					ac = newT3acc(a.AS)
					byAS[a.AS] = ac
				}
			}
			if a.Prefix.Addr().Is4() {
				ac.row.V4Subnets++
				ac.row.V4Addrs += uint64(1) << (32 - a.Prefix.Bits())
				if id := a.RouteID; id > 0 {
					ac.v4IDs.set(id)
				} else {
					ac.v4BGP[makePfxKey(a.BGPPrefix)] = true
				}
			} else {
				ac.row.V6Subnets++
				if id := a.RouteID; id > 0 {
					ac.v6IDs.set(id)
				} else {
					ac.v6BGP[makePfxKey(a.BGPPrefix)] = true
				}
				if cc := ccIndex(a.CC); cc >= 0 {
					ac.v6CCBits[cc>>6] |= uint64(1) << (cc & 63)
				} else {
					ac.v6CCs[a.CC] = true
				}
			}
		}
	})
	merged := map[bgp.ASN]*t3acc{}
	for _, byAS := range sharded {
		for as, ac := range byAS {
			m := merged[as]
			if m == nil {
				merged[as] = ac
				continue
			}
			m.row.V4Subnets += ac.row.V4Subnets
			m.row.V4Addrs += ac.row.V4Addrs
			m.row.V6Subnets += ac.row.V6Subnets
			m.v4IDs.or(ac.v4IDs)
			m.v6IDs.or(ac.v6IDs)
			for i, w := range ac.v6CCBits {
				m.v6CCBits[i] |= w
			}
			for p := range ac.v4BGP {
				m.v4BGP[p] = true
			}
			for p := range ac.v6BGP {
				m.v6BGP[p] = true
			}
			for cc := range ac.v6CCs {
				m.v6CCs[cc] = true
			}
		}
	}
	out := make([]Table3Row, 0, len(merged))
	for _, ac := range merged {
		ac.row.V4BGP = ac.v4IDs.count() + len(ac.v4BGP)
		ac.row.V6BGP = ac.v6IDs.count() + len(ac.v6BGP)
		ac.row.V6CCs = idBits(ac.v6CCBits[:]).count() + len(ac.v6CCs)
		out = append(out, ac.row)
	}
	slices.SortFunc(out, func(a, b Table3Row) int { return cmp.Compare(a.AS, b.AS) })
	return out
}

// Table4Row is one operator row of Table 4 (appendix A).
type Table4Row struct {
	AS                         bgp.ASN
	Cities, CitiesV4, CitiesV6 int
}

// t4 city-set masks: bit 0 = seen via IPv4, bit 1 = seen via IPv6.
const (
	t4MaskV4 uint8 = 1 << 0
	t4MaskV6 uint8 = 1 << 1
)

// t4acc accumulates one operator's covered cities inside one shard as a
// single key→family-bitmask map (one map instead of the three sets the
// sequential builder used). keyBuf is reused across entries so the
// "CC/City" key costs an allocation only when a new city is inserted —
// the m[string(buf)] lookup itself does not allocate.
type t4acc struct {
	masks            map[string]uint8
	keyBuf           []byte
	lastCC, lastCity string
	lastMask         uint8
}

// Table4N counts covered cities per operator, overall and per family,
// fanned out over `workers` goroutines (≤ 0: workpool's default); the
// workers' masks are OR-merged per city, so the rows are identical to
// the sequential build at any worker count.
func Table4N(attributed []egress.Attributed, workers int) []Table4Row {
	n := len(attributed)
	sharded := make([]map[bgp.ASN]*t4acc, workpool.Workers(n, minShardItems, workers))
	workpool.Run(n, minShardItems, workers, func(w, lo, hi int) {
		byAS := sharded[w]
		if byAS == nil {
			byAS = map[bgp.ASN]*t4acc{}
			sharded[w] = byAS
		}
		var lastAS bgp.ASN
		var ac *t4acc
		for i := lo; i < hi; i++ {
			a := &attributed[i]
			if a.AS == 0 || a.City == "" {
				continue
			}
			if ac == nil || a.AS != lastAS {
				lastAS = a.AS
				ac = byAS[a.AS]
				if ac == nil {
					ac = &t4acc{masks: map[string]uint8{}}
					byAS[a.AS] = ac
				}
			}
			mask := t4MaskV6
			if a.Prefix.Addr().Is4() {
				mask = t4MaskV4
			}
			// Egress lists enumerate each city's subnets in runs, so the
			// common case is "same city, family already recorded".
			if a.CC == ac.lastCC && a.City == ac.lastCity && ac.lastMask&mask != 0 {
				continue
			}
			ac.keyBuf = append(append(append(ac.keyBuf[:0], a.CC...), '/'), a.City...)
			m := ac.masks[string(ac.keyBuf)]
			if m&mask == 0 {
				ac.masks[string(ac.keyBuf)] = m | mask
			}
			ac.lastCC, ac.lastCity, ac.lastMask = a.CC, a.City, m|mask
		}
	})
	merged := map[bgp.ASN]map[string]uint8{}
	for _, byAS := range sharded {
		for as, ac := range byAS {
			m := merged[as]
			if m == nil {
				merged[as] = ac.masks
				continue
			}
			for key, mask := range ac.masks {
				m[key] |= mask
			}
		}
	}
	out := make([]Table4Row, 0, len(merged))
	for as, masks := range merged {
		row := Table4Row{AS: as, Cities: len(masks)}
		for _, mask := range masks {
			if mask&t4MaskV4 != 0 {
				row.CitiesV4++
			}
			if mask&t4MaskV6 != 0 {
				row.CitiesV6++
			}
		}
		out = append(out, row)
	}
	slices.SortFunc(out, func(a, b Table4Row) int { return cmp.Compare(a.AS, b.AS) })
	return out
}

// CountryShare summarizes the §4.2 geographic bias.
type CountryShare struct {
	CC      string
	Subnets int
	Share   float64 // percent of all subnets
}

// CountrySharesN returns per-country subnet shares, descending, plus the
// number of countries holding fewer than `smallThreshold` subnets,
// fanned out over `workers` goroutines (≤ 0: workpool's default).
// Workers count per-country subtotals with run-length accumulation
// (egress lists cluster entries by country, so most increments fold into
// a local counter instead of a map write); the merge sums them, and the
// (count desc, CC asc) sort has no ties to break non-deterministically.
func CountrySharesN(attributed []egress.Attributed, smallThreshold, workers int) (shares []CountryShare, smallCCs int) {
	n := len(attributed)
	sharded := make([]map[string]int, workpool.Workers(n, minShardItems, workers))
	workpool.Run(n, minShardItems, workers, func(w, lo, hi int) {
		counts := sharded[w]
		if counts == nil {
			counts = map[string]int{}
			sharded[w] = counts
		}
		runCC := ""
		runN := 0
		for i := lo; i < hi; i++ {
			cc := attributed[i].CC
			if cc == runCC {
				runN++
				continue
			}
			if runN > 0 {
				counts[runCC] += runN
			}
			runCC, runN = cc, 1
		}
		if runN > 0 {
			counts[runCC] += runN
		}
	})
	counts := map[string]int{}
	for _, sub := range sharded {
		for cc, c := range sub {
			counts[cc] += c
		}
	}
	for cc, c := range counts {
		shares = append(shares, CountryShare{CC: cc, Subnets: c, Share: float64(c) / float64(n) * 100})
		if c < smallThreshold {
			smallCCs++
		}
	}
	slices.SortFunc(shares, func(a, b CountryShare) int {
		if a.Subnets != b.Subnets {
			return b.Subnets - a.Subnets
		}
		return strings.Compare(a.CC, b.CC)
	})
	return shares, smallCCs
}

// RenderTable1 renders Table 1 in the paper's layout.
func RenderTable1(rows []Table1Row) string {
	var sb strings.Builder
	sb.WriteString("            Default                    Fallback\n")
	sb.WriteString("Month   Apple        Akamai        Apple        Akamai\n")
	for _, r := range rows {
		ap, ak := r.SharePct()
		fmt.Fprintf(&sb, "%s  %4d %5.1f%%  %4d %5.1f%%", r.Month.String()[5:], r.DefaultApple, ap, r.DefaultAkamai, ak)
		if !r.FallbackPresent {
			sb.WriteString("     -      -       -      -\n")
			continue
		}
		ft := float64(r.FallbackApple + r.FallbackAkamai)
		fmt.Fprintf(&sb, "  %4d %5.1f%%  %4d %5.1f%%\n",
			r.FallbackApple, pct(r.FallbackApple, ft), r.FallbackAkamai, pct(r.FallbackAkamai, ft))
	}
	return sb.String()
}

// RenderTable2 renders Table 2.
func RenderTable2(rows []Table2Row, appleShareBoth float64) string {
	var sb strings.Builder
	sb.WriteString("AS         ASPop        ASes    /24 Subnets\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-9s  %11d  %6d  %11d\n", r.Group, r.ASPop, r.ASes, r.Subnets)
	}
	fmt.Fprintf(&sb, "Apple's subnet share within Both: %.0f%%\n", appleShareBoth)
	return sb.String()
}

// RenderTable3 renders Table 3.
func RenderTable3(rows []Table3Row) string {
	var sb strings.Builder
	sb.WriteString("                 IPv4                          IPv6\n")
	sb.WriteString("AS          Subnets  BGP Pfxs  IP Addr.   Subnets  BGP Pfxs  CCs\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-11s %7d  %8d  %8d  %8d  %8d  %3d\n",
			netsim.ASName(r.AS), r.V4Subnets, r.V4BGP, r.V4Addrs, r.V6Subnets, r.V6BGP, r.V6CCs)
	}
	return sb.String()
}

// RenderTable4 renders Table 4.
func RenderTable4(rows []Table4Row) string {
	var sb strings.Builder
	sb.WriteString("AS          Covered Cities   IPv4   IPv6\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-11s %14d  %5d  %5d\n", netsim.ASName(r.AS), r.Cities, r.CitiesV4, r.CitiesV6)
	}
	return sb.String()
}

func pct(n int, total float64) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / total * 100
}
