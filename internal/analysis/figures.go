package analysis

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/egress"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/scan"
)

// GeoPoint is one egress subnet's representative location (Figures 2, 5).
type GeoPoint struct {
	Lat, Lon float64
	CC       string
}

// GeoScatter returns the geolocation series of egress subnets for one
// operator and family — the data behind the Figure 2 and Figure 5 maps.
// The Akamai panels of the paper combine both Akamai ASes; callers merge
// series as needed.
func GeoScatter(attributed []egress.Attributed, as bgp.ASN, fam netsim.Family) []GeoPoint {
	var out []GeoPoint
	for _, a := range attributed {
		if a.AS != as {
			continue
		}
		isV4 := a.Prefix.Addr().Is4()
		if (fam == netsim.FamilyV4) != isV4 {
			continue
		}
		loc := a.Location()
		out = append(out, GeoPoint{Lat: loc.Lat, Lon: loc.Lon, CC: a.CC})
	}
	return out
}

// GeoBounds summarizes a scatter series for text output.
type GeoBounds struct {
	Points            int
	MinLat, MaxLat    float64
	MinLon, MaxLon    float64
	DistinctCountries int
}

// Bounds computes a scatter summary.
func Bounds(points []GeoPoint) GeoBounds {
	if len(points) == 0 {
		return GeoBounds{}
	}
	b := GeoBounds{
		Points: len(points),
		MinLat: points[0].Lat, MaxLat: points[0].Lat,
		MinLon: points[0].Lon, MaxLon: points[0].Lon,
	}
	ccs := map[string]bool{}
	for _, p := range points {
		if p.Lat < b.MinLat {
			b.MinLat = p.Lat
		}
		if p.Lat > b.MaxLat {
			b.MaxLat = p.Lat
		}
		if p.Lon < b.MinLon {
			b.MinLon = p.Lon
		}
		if p.Lon > b.MaxLon {
			b.MaxLon = p.Lon
		}
		ccs[p.CC] = true
	}
	b.DistinctCountries = len(ccs)
	return b
}

// CDFPoint is one point of a Figure 4 curve: after the `Rank` largest
// locations, `CumShare` of the operator's subnets are covered.
type CDFPoint struct {
	Rank     int
	CumShare float64 // 0..1
}

// LocationKind selects the Figure 4 grouping.
type LocationKind int

// Figure 4 groups subnets by city or by country.
const (
	ByCity LocationKind = iota
	ByCountry
)

// LocationCDF computes the Figure 4 CDF: subnet counts per location for
// one operator/family, locations ordered by descending subnet count, and
// the cumulative share at each rank.
func LocationCDF(attributed []egress.Attributed, as bgp.ASN, fam netsim.Family, kind LocationKind) []CDFPoint {
	// Keyed by the two strings themselves: joining them would allocate
	// a key per row.
	type location struct{ cc, city string }
	counts := map[location]int{}
	total := 0
	for i := range attributed {
		a := &attributed[i]
		if a.AS != as {
			continue
		}
		isV4 := a.Prefix.Addr().Is4()
		if (fam == netsim.FamilyV4) != isV4 {
			continue
		}
		key := location{cc: a.CC}
		if kind == ByCity {
			if a.City == "" {
				continue
			}
			key.city = a.City
		}
		counts[key]++
		total++
	}
	vals := make([]int, 0, len(counts))
	for _, n := range counts {
		vals = append(vals, n)
	}
	slices.SortFunc(vals, func(a, b int) int { return b - a })
	out := make([]CDFPoint, len(vals))
	cum := 0
	for i, n := range vals {
		cum += n
		out[i] = CDFPoint{Rank: i + 1, CumShare: float64(cum) / float64(total)}
	}
	return out
}

// GiniLike returns a concentration measure for a CDF: the share covered
// by the top 10 % of locations. Heavier concentration → higher value.
func GiniLike(cdf []CDFPoint) float64 {
	if len(cdf) == 0 {
		return 0
	}
	idx := len(cdf) / 10
	if idx >= len(cdf) {
		idx = len(cdf) - 1
	}
	return cdf[idx].CumShare
}

// Figure3Series is the rendered operator-change timeline of one scan.
type Figure3Series struct {
	Label   string
	Rounds  int
	Changes []scan.OperatorChange
}

// Figure3 builds the change timeline from scan observations.
func Figure3(label string, obs []scan.Observation) Figure3Series {
	return Figure3Series{Label: label, Rounds: len(obs), Changes: scan.OperatorChanges(obs)}
}

// RenderFigure3 renders change timelines as a text timeline.
func RenderFigure3(series []Figure3Series) string {
	var sb strings.Builder
	for _, s := range series {
		fmt.Fprintf(&sb, "%s (%d rounds): %d operator changes\n", s.Label, s.Rounds, len(s.Changes))
		for _, ch := range s.Changes {
			fmt.Fprintf(&sb, "  t=%8s  %s → %s\n", formatDur(ch.At), netsim.ASName(ch.From), netsim.ASName(ch.To))
		}
	}
	return sb.String()
}

// RenderCDF renders a Figure 4 curve at a few sample ranks.
func RenderCDF(label string, cdf []CDFPoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %d locations", label, len(cdf))
	if len(cdf) == 0 {
		sb.WriteString("\n")
		return sb.String()
	}
	for _, frac := range []float64{0.01, 0.1, 0.25, 0.5, 1.0} {
		idx := int(frac*float64(len(cdf))) - 1
		if idx < 0 {
			idx = 0
		}
		fmt.Fprintf(&sb, "  top%3.0f%%→%4.1f%%", frac*100, cdf[idx].CumShare*100)
	}
	sb.WriteString("\n")
	return sb.String()
}

// RenderGeoBounds renders a Figure 2/5 panel summary.
func RenderGeoBounds(label string, b GeoBounds) string {
	return fmt.Sprintf("%s: %d subnets across %d countries, lat [%.1f, %.1f], lon [%.1f, %.1f]\n",
		label, b.Points, b.DistinctCountries, b.MinLat, b.MaxLat, b.MinLon, b.MaxLon)
}

func formatDur(d time.Duration) string {
	return d.Truncate(time.Second).String()
}
