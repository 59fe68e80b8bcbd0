// Package egress models Apple's published egress relay list
// (mask-api.icloud.com/egress-ip-ranges.csv): a CSV of subnets, each
// mapped to a represented country, region and city. The package parses
// the real file format and generates a synthetic list calibrated to the
// paper's measurements:
//
//   - Table 3: per-AS subnet counts, BGP prefix counts, address counts
//     and covered countries for IPv4 and IPv6;
//   - Table 4: covered-city counts per AS (combined, IPv4, IPv6);
//   - §4.2: 58 % of subnets represent the US, DE is second at 3.6 %,
//     123 countries hold fewer than 50 subnets, 11 countries are covered
//     only by Cloudflare, AkamaiPR covers AkamaiEdge's countries plus
//     212 more, and 1.6 % of subnets carry no city.
package egress

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/geo"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/workpool"
)

// Entry is one row of the egress list.
type Entry struct {
	Prefix netip.Prefix
	CC     string
	Region string // empty when City is empty
	City   string // empty for the ~1.6 % of region-less subnets
}

// Location returns the entry's representative coordinates: the city
// location when a city is present, the country centroid otherwise.
func (e Entry) Location() geo.Location {
	if e.City != "" {
		if idx, ok := cityIndex(e.City); ok {
			return geo.CityLocation(e.CC, idx)
		}
	}
	lat, lon := geo.Centroid(e.CC)
	return geo.Location{CountryCode: e.CC, Lat: lat, Lon: lon}
}

// cityIndex recovers the index from a synthetic city name "CC-city-NNN".
func cityIndex(city string) (int, bool) {
	i := strings.LastIndexByte(city, '-')
	if i < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(city[i+1:])
	if err != nil {
		return 0, false
	}
	return n, true
}

// List is a parsed or generated egress list.
type List struct {
	Entries []Entry
}

// WriteCSV emits the list in Apple's four-column format:
// prefix,country,region,city (region and city may be empty).
func (l *List) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range l.Entries {
		if _, err := fmt.Fprintf(bw, "%s,%s,%s,%s\n", e.Prefix, e.CC, e.Region, e.City); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// parseCSVBytesPerLine is the preallocation heuristic: the average line
// in Apple's format ("17.0.0.0/24,US,California,Los Angeles\n") runs
// 35–55 bytes, so sizing Entries at hint/40 lands within a small factor
// of the real row count and avoids the append-regrow copies of a 240k-row
// parse.
const parseCSVBytesPerLine = 40

// ParseCSV reads a list in the four-column format. Malformed lines are
// reported with their line number.
func ParseCSV(r io.Reader) (*List, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024), 1024*1024)
	var out List
	if hint := readerSizeHint(r); hint > 0 {
		out.Entries = make([]Entry, 0, hint/parseCSVBytesPerLine+1)
	}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		pfxField, rest, ok := strings.Cut(text, ",")
		var ccField, regionField, cityField string
		if ok {
			ccField, rest, ok = strings.Cut(rest, ",")
		}
		if ok {
			regionField, cityField, ok = strings.Cut(rest, ",")
		}
		if !ok || strings.IndexByte(cityField, ',') >= 0 {
			return nil, fmt.Errorf("egress: line %d: want 4 fields, got %d", line, strings.Count(text, ",")+1)
		}
		pfx, err := netip.ParsePrefix(pfxField)
		if err != nil {
			return nil, fmt.Errorf("egress: line %d: %w", line, err)
		}
		cc := strings.TrimSpace(ccField)
		if !geo.IsCountryCode(cc) {
			return nil, fmt.Errorf("egress: line %d: unknown country %q", line, cc)
		}
		out.Entries = append(out.Entries, Entry{
			Prefix: pfx,
			CC:     cc,
			Region: strings.TrimSpace(regionField),
			City:   strings.TrimSpace(cityField),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("egress: line %d: %w", line+1, err)
	}
	return &out, nil
}

// readerSizeHint reports how many bytes remain in r when the reader
// exposes that cheaply (bytes.Reader/Buffer, strings.Reader, *os.File),
// and 0 otherwise.
func readerSizeHint(r io.Reader) int64 {
	switch v := r.(type) {
	case interface{ Len() int }:
		return int64(v.Len())
	case io.Seeker:
		cur, err := v.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0
		}
		end, err := v.Seek(0, io.SeekEnd)
		if err != nil {
			return 0
		}
		if _, err := v.Seek(cur, io.SeekStart); err != nil {
			return 0
		}
		return end - cur
	}
	return 0
}

// Attributed is an entry joined with BGP origin data. RouteID is a dense
// 1-based identifier of the covering BGP announcement within the routing
// snapshot the join used (0 when unrouted, or when the value was built
// by hand rather than by Attribute): within one attribution run, two
// entries share a RouteID exactly when they share a BGPPrefix, which
// lets aggregations count distinct prefixes with a bitset.
type Attributed struct {
	Entry
	AS        bgp.ASN
	RouteID   int32
	BGPPrefix netip.Prefix
}

// attributeGrain is how many consecutive entries a worker claims at a
// time: long enough that the per-range cursor's locality pays off.
const attributeGrain = 1 << 12

// AttributeN joins every entry against the routing table, mirroring the
// paper's AS and BGP-prefix attribution of the published list, fanned
// out over `workers` goroutines (≤ 0: workpool's default). Entries in
// unrouted space are attributed to AS 0 with an invalid BGP prefix. The
// table is flattened once into a lock-free interval index, entries are
// claimed in index ranges, and each worker writes its ranges' results
// straight into the shared preallocated slice — no merge, no locks, and
// output identical to the sequential join at any worker count.
func AttributeN(l *List, table *bgp.Table, workers int) []Attributed {
	return AttributeInto(nil, l, table, workers)
}

// AttributeInto is AttributeN writing into dst, reusing its capacity
// when it fits so repeated joins (monthly snapshots, benchmarks) don't
// churn a fresh multi-megabyte result slice each run. Every element is
// fully overwritten. Returns the filled slice, which may share memory
// with dst.
func AttributeInto(dst []Attributed, l *List, table *bgp.Table, workers int) []Attributed {
	n := len(l.Entries)
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]Attributed, n)
	}
	if n == 0 {
		return dst
	}
	idx := table.Index()
	workpool.Run(n, attributeGrain, workers, func(_, lo, hi int) {
		// Consecutive entries are ~93% address-ascending, so a per-range
		// cursor turns most lookups into a couple of neighboring key
		// compares instead of a binary search.
		cur := idx.Cursor()
		for i := lo; i < hi; i++ {
			e := l.Entries[i]
			route, as, id, ok := cur.CoveringRoute(e.Prefix)
			a := Attributed{Entry: e, AS: as, BGPPrefix: route}
			if ok {
				a.RouteID = id + 1
			}
			dst[i] = a
		}
	})
	return dst
}

// GeoDB builds a MaxMind-style geolocation database from the list,
// reproducing the paper's observation that commercial geo databases
// adopted Apple's egress mapping verbatim: each entry's own country,
// region and city, at the coordinates Location gives it.
func (l *List) GeoDB() *geo.DB {
	db := geo.NewDB(len(l.Entries))
	for _, e := range l.Entries {
		loc := geo.Location{CountryCode: e.CC, Region: e.Region, City: e.City}
		if idx, ok := cityIndex(e.City); ok {
			loc.Lat, loc.Lon = geo.CityCoords(e.CC, idx)
		} else {
			loc.Lat, loc.Lon = geo.Centroid(e.CC)
		}
		db.Insert(e.Prefix, loc)
	}
	return db
}

// ---- Calibration tables ----

// v4SizeMix describes the IPv4 subnet-size composition per AS, chosen so
// subnet and address counts land exactly on Table 3:
//
//	AkamaiPR:   4508×/29 + 5381×/30 + 1×/32 = 9890 subnets, 57 589 addrs
//	AkamaiEdge:  948×/30 +  654×/31         = 1602 subnets,  5 100 addrs
//	Cloudflare: 18218×/32                   = 18218 subnets, 18 218 addrs
//	Fastly:      8530×/31                   = 8530 subnets, 17 060 addrs
var v4SizeMix = map[bgp.ASN][]struct{ Bits, Count int }{
	netsim.ASAkamaiPR:   {{29, 4508}, {30, 5381}, {32, 1}},
	netsim.ASAkamaiEdge: {{30, 948}, {31, 654}},
	netsim.ASCloudflare: {{32, 18218}},
	netsim.ASFastly:     {{31, 8530}},
}

// v6Counts is the number of /64 entries per AS (Table 3; every listed
// IPv6 subnet has a 64-bit mask).
var v6Counts = map[bgp.ASN]int{
	netsim.ASAkamaiPR:   142826,
	netsim.ASAkamaiEdge: 23495,
	netsim.ASCloudflare: 26988,
	netsim.ASFastly:     8530,
}

// ccCounts is the number of covered countries per AS and family.
// IPv6 counts come from Table 3; AkamaiEdge's 18 IPv4 countries from
// §4.2. Unstated IPv4 counts reuse the IPv6 coverage.
var ccCounts = map[bgp.ASN][2]int{ // [v4, v6]
	netsim.ASAkamaiPR:   {236, 236},
	netsim.ASAkamaiEdge: {18, 24},
	netsim.ASCloudflare: {248, 248},
	netsim.ASFastly:     {236, 236},
}

// cityBudgets is Table 4: covered cities per AS for IPv4 and IPv6.
var cityBudgets = map[bgp.ASN][2]int{ // [v4, v6]
	netsim.ASAkamaiPR:   {853, 14085},
	netsim.ASAkamaiEdge: {455, 7507},
	netsim.ASCloudflare: {1134, 5228},
	netsim.ASFastly:     {848, 848},
}

// akamaiPRV4OnlyCities is the number of cities AkamaiPR covers with IPv4
// subnets only: Table 4 has 14 088 combined vs 14 085 IPv6 cities.
const akamaiPRV4OnlyCities = 3

// blankCityPerMille is the share of subnets without a city (§4.2: 1.6 %).
const blankCityPerMille = 16

// egressASes lists the operators in generation order.
var egressASes = []bgp.ASN{netsim.ASAkamaiPR, netsim.ASAkamaiEdge, netsim.ASCloudflare, netsim.ASFastly}
