package egress

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/geo"
	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/workpool"
)

// Generate produces the full-scale synthetic egress list (≈240 k entries)
// for a world. The result is deterministic in (world seed, seed).
func Generate(w *netsim.World, seed uint64) *List {
	g := &generator{world: w, seed: seed}
	g.buildCCSets()
	// parts[2k] and parts[2k+1] are the k-th AS's v4 and v6 entries. Each
	// (AS, family) draws only from its own carver and hashes, so the parts
	// build at once; slices.Concat joins them in generation order, sizing
	// Entries once from their total.
	parts := make([][]Entry, 2*len(egressASes))
	workpool.Run(len(parts), 1, 0, func(_, i, _ int) {
		as, fam := egressASes[i/2], netsim.Family(i%2)
		if as == netsim.ASFastly && fam == netsim.FamilyV6 {
			return // mirrored from the v4 part below
		}
		parts[i] = g.generateFamily(as, fam)
	})
	// Fastly's IPv6 footprint mirrors IPv4 1:1 (equal subnet and city
	// counts in Tables 3–4), so entries are mirrored rather than
	// independently drawn.
	fastly := 2 * slices.Index(egressASes, netsim.ASFastly)
	parts[fastly+1] = g.mirrorFastlyV6(parts[fastly])
	return &List{Entries: slices.Concat(parts...)}
}

type generator struct {
	world *netsim.World
	seed  uint64
	// ccSet[as][fam] is the ordered country list the AS covers.
	ccSet map[bgp.ASN][2][]string
	// cities[as][fam][cc] is the number of covered cities.
	cities map[bgp.ASN][2]map[string]int
}

// buildCCSets derives per-AS country coverage honoring the set algebra in
// §4.2: Cloudflare misses exactly one country; Akamai misses 13;
// Fastly misses 12 of Akamai's 13 plus one more; hence 11 countries are
// Cloudflare-only. AkamaiEdge's countries are a subset of AkamaiPR's.
func (g *generator) buildCCSets() {
	all := append([]string(nil), geo.AllCountryCodes...)
	// Deterministic "obscurity" order: the first entries are the codes
	// that drop out of coverage first.
	sort.Slice(all, func(i, j int) bool {
		hi := iputil.Mix(iputil.HashString(all[i]), g.seed^0xCC)
		hj := iputil.Mix(iputil.HashString(all[j]), g.seed^0xCC)
		if hi != hj {
			return hi < hj
		}
		return all[i] < all[j]
	})
	// Keep the anchor countries out of every missing set.
	anchored := func(cc string) bool { return cc == "US" || cc == "DE" || cc == "KN" }
	var candidates []string
	for _, cc := range all {
		if !anchored(cc) {
			candidates = append(candidates, cc)
		}
	}
	miss := candidates[:14] // c0..c13
	missCF := map[string]bool{miss[0]: true}
	missAK := map[string]bool{}
	for _, cc := range miss[:13] {
		missAK[cc] = true
	}
	missFast := map[string]bool{miss[13]: true}
	for _, cc := range miss[:12] {
		missFast[cc] = true
	}

	covered := func(missing map[string]bool) []string {
		var out []string
		for _, cc := range geo.AllCountryCodes {
			if !missing[cc] {
				out = append(out, cc)
			}
		}
		return out
	}
	akSet := covered(missAK)     // 236
	cfSet := covered(missCF)     // 248
	fastSet := covered(missFast) // 236

	// AkamaiEdge coverage is a small subset of AkamaiPR's heaviest
	// countries; small countries like KN stay AkamaiPR-represented only.
	edge6 := g.topWeighted(akSet, ccCounts[netsim.ASAkamaiEdge][1])
	edge4 := edge6[:ccCounts[netsim.ASAkamaiEdge][0]]

	g.ccSet = map[bgp.ASN][2][]string{
		netsim.ASAkamaiPR:   {akSet, akSet},
		netsim.ASAkamaiEdge: {edge4, edge6},
		netsim.ASCloudflare: {cfSet, cfSet},
		netsim.ASFastly:     {fastSet, fastSet},
	}

	// City budgets per country, proportional to expected subnet mass,
	// with v4 coverage forced to nest inside v6 coverage (except the
	// three AkamaiPR v4-only cities handled at assignment time).
	g.cities = make(map[bgp.ASN][2]map[string]int)
	for _, as := range egressASes {
		v6 := g.splitCityBudget(g.ccSet[as][1], cityBudgets[as][1])
		v4Budget := cityBudgets[as][0]
		if as == netsim.ASAkamaiPR {
			v4Budget -= akamaiPRV4OnlyCities // the 3 extras live outside v6's range
		}
		v4 := g.splitCityBudget(g.ccSet[as][0], v4Budget)
		for cc, n := range v4 {
			if max6, ok := v6[cc]; ok && n > max6 {
				v4[cc] = max6 // nest v4 city indices inside v6's
			}
		}
		g.rebalance(v4, v4Budget, v6)
		g.cities[as] = [2]map[string]int{v4, v6}
	}
}

// topWeighted returns the n heaviest countries of set.
func (g *generator) topWeighted(set []string, n int) []string {
	out := append([]string(nil), set...)
	sort.Slice(out, func(i, j int) bool {
		wi, wj := g.ccWeight(out[i]), g.ccWeight(out[j])
		if wi != wj {
			return wi > wj
		}
		return out[i] < out[j]
	})
	if n > len(out) {
		n = len(out)
	}
	top := append([]string(nil), out[:n]...)
	sort.Strings(top)
	return top
}

// ccWeight returns the relative subnet mass of a country: US 58 %, DE
// 3.6 %, the rest a squared-Zipf tail thin enough that >100 countries
// end below 50 subnets at full scale (§4.2).
func (g *generator) ccWeight(cc string) float64 {
	switch cc {
	case "US":
		return 0.58
	case "DE":
		return 0.036
	}
	// Squared-Zipf tail normalized so the non-US/DE mass sums to ≈0.384
	// (Σ 1/(r+10)² over the ~247 remaining countries ≈ 0.0961).
	rank := 1 + iputil.Mix(iputil.HashString("rank:"+cc), g.seed)%240
	return 0.384 / 0.0961 / float64((rank+10)*(rank+10))
}

// subnetTotal returns how many entries (as, fam) will contain.
func (g *generator) subnetTotal(as bgp.ASN, fam netsim.Family) int {
	if fam == netsim.FamilyV6 {
		return v6Counts[as]
	}
	n := 0
	for _, m := range v4SizeMix[as] {
		n += m.Count
	}
	return n
}

// splitCityBudget distributes budget cities across ccs proportional to
// country weight, each country getting at least one, the total exact.
func (g *generator) splitCityBudget(ccs []string, budget int) map[string]int {
	out := make(map[string]int, len(ccs))
	if budget < len(ccs) {
		budget = len(ccs) // every covered country has at least one city
	}
	var totalW float64
	for _, cc := range ccs {
		totalW += g.ccWeight(cc)
	}
	assigned := 0
	for _, cc := range ccs {
		n := int(float64(budget) * g.ccWeight(cc) / totalW)
		if n < 1 {
			n = 1
		}
		out[cc] = n
		assigned += n
	}
	// Fix rounding on the heaviest country (it has subnets to spare).
	heaviest := g.topWeighted(ccs, 1)[0]
	out[heaviest] += budget - assigned
	if out[heaviest] < 1 {
		out[heaviest] = 1
	}
	return out
}

// rebalance restores the exact v4 budget after nesting capped some
// countries, by growing countries that still have v6 headroom.
func (g *generator) rebalance(v4 map[string]int, budget int, v6 map[string]int) {
	total := 0
	for _, n := range v4 {
		total += n
	}
	if total >= budget {
		return
	}
	// Grow deterministically: iterate countries in sorted order.
	var ccs []string
	for cc := range v4 {
		ccs = append(ccs, cc)
	}
	sort.Strings(ccs)
	for total < budget {
		grew := false
		for _, cc := range ccs {
			if total >= budget {
				break
			}
			if max6, ok := v6[cc]; ok && v4[cc] < max6 {
				v4[cc]++
				total++
				grew = true
			}
		}
		if !grew {
			break // no headroom anywhere; accept the shortfall
		}
	}
}

// generateFamily emits all entries for one (AS, family).
func (g *generator) generateFamily(as bgp.ASN, fam netsim.Family) []Entry {
	prefixes := g.world.EgressPrefixes(as, fam)
	if len(prefixes) == 0 {
		return nil
	}
	carver := newCarver(prefixes)

	// Build the flat list of subnet sizes.
	var sizes []int
	if fam == netsim.FamilyV4 {
		for _, m := range v4SizeMix[as] {
			for i := 0; i < m.Count; i++ {
				sizes = append(sizes, m.Bits)
			}
		}
	} else {
		n := v6Counts[as]
		sizes = make([]int, n)
		for i := range sizes {
			sizes[i] = 64
		}
	}

	ccs := g.ccSet[as][fam]
	cities := g.cities[as][fam]
	ccOf := g.assignCountries(as, fam, len(sizes), ccs)

	// Per-country running index used for city coverage.
	perCC := make(map[string]int, len(ccs))
	entries := make([]Entry, 0, len(sizes))
	for i, bits := range sizes {
		cc := ccOf[i]
		j := perCC[cc]
		perCC[cc]++
		cityIdx, blank := g.cityFor(as, fam, cc, j, cities[cc], uint64(i))
		pfx := carver.next(bits)
		e := Entry{Prefix: pfx, CC: cc}
		if !blank {
			e.City = geo.CityName(cc, cityIdx)
			e.Region = geo.RegionName(cc, cityIdx)
		}
		entries = append(entries, e)
	}
	return entries
}

// assignCountries maps each of n subnets to a country: one guaranteed
// subnet per covered country, the rest weighted.
func (g *generator) assignCountries(as bgp.ASN, fam netsim.Family, n int, ccs []string) []string {
	out := make([]string, n)
	// Cumulative weights for sampling.
	cum := make([]float64, len(ccs))
	var total float64
	for i, cc := range ccs {
		total += g.ccWeight(cc)
		cum[i] = total
	}
	for i := 0; i < n; i++ {
		if i < len(ccs) {
			out[i] = ccs[i] // coverage guarantee
			continue
		}
		h := iputil.Mix(g.seed^uint64(as)<<1^uint64(fam), uint64(i))
		x := float64(h%1_000_000) / 1_000_000 * total
		k := sort.SearchFloat64s(cum, x)
		if k >= len(ccs) {
			k = len(ccs) - 1
		}
		out[i] = ccs[k]
	}
	return out
}

// cityFor picks the city index for the j-th subnet of a country, plus
// whether the subnet goes city-less. The first nCities subnets cover each
// city once; later subnets pick a covered city by hash, and only those may
// be blanked (so coverage counts stay exact). AkamaiPR's IPv4 US plane
// appends three cities beyond the IPv6 range (Table 4's 14 088 vs 14 085).
func (g *generator) cityFor(as bgp.ASN, fam netsim.Family, cc string, j, nCities int, salt uint64) (int, bool) {
	if nCities < 1 {
		nCities = 1
	}
	extraBase := -1
	if as == netsim.ASAkamaiPR && fam == netsim.FamilyV4 && cc == "US" {
		// Indices beyond the v6 city count are v4-only cities.
		extraBase = g.cities[as][1][cc]
	}
	if j < nCities {
		return j, false
	}
	if extraBase >= 0 && j < nCities+akamaiPRV4OnlyCities {
		return extraBase + (j - nCities), false
	}
	h := iputil.Mix(g.seed^0xC17F^uint64(as), iputil.Mix(iputil.HashString(cc), salt))
	if h%1000 < blankCityPerMille {
		return 0, true
	}
	// Within a country, subnet mass concentrates on a few big cities:
	// a quartic transform of a uniform draw puts ~56 % of picks on the
	// lowest-index decile, giving Figure 4 its steep initial rise.
	x := float64((h>>10)%1_000_000) / 1_000_000
	idx := int(x * x * x * x * float64(nCities))
	if idx >= nCities {
		idx = nCities - 1
	}
	return idx, false
}

// mirrorFastlyV6 maps each Fastly IPv4 entry to a /64 with the same
// location, preserving the 1:1 v4/v6 structure in Tables 3–4.
func (g *generator) mirrorFastlyV6(v4 []Entry) []Entry {
	prefixes := g.world.EgressPrefixes(netsim.ASFastly, netsim.FamilyV6)
	carver := newCarver(prefixes)
	out := make([]Entry, len(v4))
	for i, e := range v4 {
		out[i] = Entry{Prefix: carver.next(64), CC: e.CC, Region: e.Region, City: e.City}
	}
	return out
}

// carver allocates consecutive aligned subnets inside a prefix set,
// spreading allocations round-robin across prefixes.
type carver struct {
	prefixes []netip.Prefix
	cursor   []uint64 // next free subnet index per prefix, in finest units
	i        int
}

func newCarver(prefixes []netip.Prefix) *carver {
	return &carver{prefixes: prefixes, cursor: make([]uint64, len(prefixes))}
}

// next returns the next free subnet of the given length, rotating over
// the prefix list. It panics when capacity is exhausted (a calibration
// bug caught by the generation tests).
func (c *carver) next(bits int) netip.Prefix {
	for tries := 0; tries < len(c.prefixes); tries++ {
		idx := c.i % len(c.prefixes)
		c.i++
		p := c.prefixes[idx]
		if bits < p.Bits() {
			continue
		}
		// The cursor counts in fine units: /32 granularity for IPv4 and
		// /64 granularity for IPv6 (no listed subnet is longer).
		fineBits := 64
		if p.Addr().Is4() {
			fineBits = 32
		}
		if bits > fineBits {
			continue
		}
		unit := uint64(1) << uint(fineBits-bits) // fine units per subnet
		cur := (c.cursor[idx] + unit - 1) / unit
		if cur >= iputil.SubnetCount(p, bits) {
			continue
		}
		c.cursor[idx] = (cur + 1) * unit
		return iputil.NthSubnet(p, bits, cur)
	}
	panic(fmt.Sprintf("egress: carver exhausted for /%d across %d prefixes", bits, len(c.prefixes)))
}
