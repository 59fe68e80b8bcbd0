package relayd

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/relay-networks/privaterelay/internal/dnswire"
)

// The metrics plane: a dependency-free counter/gauge registry with
// Prometheus-text exposition. The ROADMAP names the counters an
// operator of this platform needs — exchange rates, fault mix by kind,
// breaker state transitions, pool hit rates. Exposition is
// deterministic: series render sorted by name then label set, so two
// scrapes of identical state are byte-identical (the same discipline
// every dataset writer in this repo follows).

// Counter is a monotonically increasing int64 series handle.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 series handle that can move both ways.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the gauge.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// series is one named, labeled time series in the registry.
type series struct {
	name    string
	labels  string // rendered `{k="v",...}` or ""
	counter *Counter
	gauge   *Gauge
}

// Registry holds every series relayd exports. Handles are created once
// and cached by callers; creation is locked, updates are lock-free.
type Registry struct {
	mu     sync.Mutex
	byKey  map[string]*series
	sorted []*series // maintained in exposition order
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*series)}
}

// renderLabels canonicalizes k,v pairs into `{k="v",...}` sorted by
// key, so the same logical series always maps to the same storage.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("relayd: labels must be key,value pairs")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(p.v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func (r *Registry) lookup(name string, labels []string) *series {
	key := name + renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byKey[key]; ok {
		return s
	}
	s := &series{name: name, labels: renderLabels(labels)}
	r.byKey[key] = s
	i, _ := slices.BinarySearchFunc(r.sorted, s, compareSeries)
	r.sorted = slices.Insert(r.sorted, i, s)
	return s
}

func compareSeries(a, b *series) int {
	if a.name != b.name {
		return strings.Compare(a.name, b.name)
	}
	return strings.Compare(a.labels, b.labels)
}

// Counter returns (creating if needed) the counter for name and the
// given key,value label pairs. Calling it again with the same identity
// returns the same handle; a series cannot change type.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	s := r.lookup(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.gauge != nil {
		panic(fmt.Sprintf("relayd: series %s%s is a gauge", s.name, s.labels))
	}
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge returns (creating if needed) the gauge for name and labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	s := r.lookup(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.counter != nil {
		panic(fmt.Sprintf("relayd: series %s%s is a counter", s.name, s.labels))
	}
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// WriteText renders every series in Prometheus text format, sorted by
// name then labels. Counters print as integers, gauges in shortest
// round-trip float form.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	snapshot := make([]*series, len(r.sorted))
	copy(snapshot, r.sorted)
	r.mu.Unlock()
	for _, s := range snapshot {
		var val string
		switch {
		case s.counter != nil:
			val = strconv.FormatInt(s.counter.Value(), 10)
		case s.gauge != nil:
			val = strconv.FormatFloat(s.gauge.Value(), 'g', -1, 64)
		default:
			continue // registered but never materialized
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", s.name, s.labels, val); err != nil {
			return err
		}
	}
	return nil
}

// CollectPools refreshes the pool-hit-rate series for the scan's
// pooled dnswire messages.
func (r *Registry) CollectPools() {
	acquires, misses := dnswire.MessagePoolStats()
	r.Gauge("pool_acquires_total", "pool", "dnswire_message").Set(float64(acquires))
	r.Gauge("pool_misses_total", "pool", "dnswire_message").Set(float64(misses))
	rate := 0.0
	if acquires > 0 {
		rate = float64(acquires-misses) / float64(acquires)
	}
	r.Gauge("pool_hit_rate", "pool", "dnswire_message").Set(rate)
}
