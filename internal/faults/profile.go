package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/relay-networks/privaterelay/internal/bgp"
)

// Kind enumerates the injectable fault classes — the failure modes a
// 40-hour scan against a rate-limited authoritative meets on the live
// Internet (§3): lost queries, server failures, explicit rate-limit
// refusals, UDP truncation, and responses from earlier attempts arriving
// late under a stale transaction ID.
type Kind int

// Fault kinds.
const (
	KindTimeout Kind = iota
	KindServFail
	KindRefused
	KindTruncate
	KindStale
)

// String names the kind as used in profile specs.
func (k Kind) String() string {
	switch k {
	case KindTimeout:
		return "timeout"
	case KindServFail:
		return "servfail"
	case KindRefused:
		return "refused"
	case KindTruncate:
		return "truncate"
	case KindStale:
		return "stale"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

func parseKind(s string) (Kind, error) {
	for _, k := range []Kind{KindTimeout, KindServFail, KindRefused, KindTruncate, KindStale} {
		if s == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("faults: unknown fault kind %q", s)
}

// Burst is a scheduled outage window: every query arriving while the
// clock is inside [Start, Start+Len) after the injector's epoch fails
// with Kind — the shape of a sustained SERVFAIL or rate-limit episode.
type Burst struct {
	Kind  Kind
	Start time.Duration
	Len   time.Duration
}

// Blackout fails every query whose ECS client subnet originates in AS
// until the clock passes Until after the injector's epoch — a per-AS
// routing incident or a resolver-side block.
type Blackout struct {
	AS    bgp.ASN
	Kind  Kind
	Until time.Duration
}

// Profile is a scriptable fault schedule. Steady-state rates are
// per-attempt probabilities decided by a deterministic PRNG keyed on the
// query itself (ECS subnet + transaction ID), so a given attempt's fate
// is identical across runs and worker counts; bursts and blackouts are
// clock-windowed and model correlated outages.
type Profile struct {
	// Seed drives every PRNG decision.
	Seed uint64
	// Per-attempt fault probabilities in [0, 1).
	Timeout  float64
	ServFail float64
	Refused  float64
	Truncate float64
	Stale    float64
	// LatencyRate is the share of passed-through queries delayed by
	// Latency on the injector's clock.
	LatencyRate float64
	Latency     time.Duration
	// Bursts and Blackouts are the correlated-outage schedule.
	Bursts    []Burst
	Blackouts []Blackout
}

// Zero reports whether the profile injects nothing.
func (p *Profile) Zero() bool {
	return p == nil || (p.Timeout == 0 && p.ServFail == 0 && p.Refused == 0 &&
		p.Truncate == 0 && p.Stale == 0 && p.LatencyRate == 0 &&
		len(p.Bursts) == 0 && len(p.Blackouts) == 0)
}

// String renders the profile in the spec syntax Parse accepts.
func (p *Profile) String() string {
	if p.Zero() {
		return "off"
	}
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	add("timeout", p.Timeout)
	add("servfail", p.ServFail)
	add("refused", p.Refused)
	add("truncate", p.Truncate)
	add("stale", p.Stale)
	if p.LatencyRate > 0 {
		parts = append(parts, fmt.Sprintf("latency=%g:%s", p.LatencyRate, p.Latency))
	}
	for _, b := range p.Bursts {
		parts = append(parts, fmt.Sprintf("burst=%s:%s+%s", b.Kind, b.Start, b.Len))
	}
	for _, b := range p.Blackouts {
		parts = append(parts, fmt.Sprintf("blackout=%d:%s:%s", uint32(b.AS), b.Kind, b.Until))
	}
	return strings.Join(parts, ",")
}

// Presets name the profiles the chaos sweep and the CLIs use without a
// hand-written spec.
var Presets = map[string]*Profile{
	"off":  nil,
	"none": nil,
	// mild: background flakiness any long-running scan sees.
	"mild": {
		Seed:    1,
		Timeout: 0.05, ServFail: 0.02, Stale: 0.01,
	},
	// harsh: the acceptance profile — 10 % timeouts plus a burst-SERVFAIL
	// outage and steady refusals, truncation and stale responses.
	"harsh": {
		Seed:    1,
		Timeout: 0.10, ServFail: 0.04, Refused: 0.03, Truncate: 0.02, Stale: 0.02,
		Bursts: []Burst{{Kind: KindServFail, Start: 2 * time.Second, Len: 8 * time.Second}},
	},
}

// Parse reads a profile spec: a preset name ("off", "mild", "harsh") or
// a comma-separated list of directives —
//
//	seed=N  timeout=R  servfail=R  refused=R  truncate=R  stale=R
//	latency=R:DUR  burst=KIND:START+LEN  blackout=ASN:KIND:UNTIL
//
// where R is a probability, DUR/START/LEN/UNTIL are Go durations and
// KIND is a fault kind name. A preset name may be extended with extra
// directives, e.g. "harsh,seed=7".
func Parse(spec string) (*Profile, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Profile{}
	for i, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		if i == 0 {
			if preset, ok := Presets[field]; ok {
				if preset == nil {
					return nil, nil
				}
				cp := *preset
				cp.Bursts = append([]Burst(nil), preset.Bursts...)
				cp.Blackouts = append([]Blackout(nil), preset.Blackouts...)
				p = &cp
				continue
			}
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("faults: directive %q: want key=value", field)
		}
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseUint(val, 10, 64)
		case "timeout":
			p.Timeout, err = parseRate(val)
		case "servfail":
			p.ServFail, err = parseRate(val)
		case "refused":
			p.Refused, err = parseRate(val)
		case "truncate":
			p.Truncate, err = parseRate(val)
		case "stale":
			p.Stale, err = parseRate(val)
		case "latency":
			rate, dur, found := strings.Cut(val, ":")
			if !found {
				return nil, fmt.Errorf("faults: latency=%q: want RATE:DURATION", val)
			}
			if p.LatencyRate, err = parseRate(rate); err == nil {
				p.Latency, err = time.ParseDuration(dur)
			}
		case "burst":
			var b Burst
			if b, err = parseBurst(val); err == nil {
				p.Bursts = append(p.Bursts, b)
			}
		case "blackout":
			var b Blackout
			if b, err = parseBlackout(val); err == nil {
				p.Blackouts = append(p.Blackouts, b)
			}
		default:
			return nil, fmt.Errorf("faults: unknown directive %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: directive %q: %w", field, err)
		}
	}
	return p, nil
}

func parseRate(s string) (float64, error) {
	r, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if r < 0 || r >= 1 {
		return 0, fmt.Errorf("rate %g outside [0, 1)", r)
	}
	return r, nil
}

func parseBurst(val string) (Burst, error) {
	kind, window, ok := strings.Cut(val, ":")
	if !ok {
		return Burst{}, fmt.Errorf("want KIND:START+LEN, got %q", val)
	}
	k, err := parseKind(kind)
	if err != nil {
		return Burst{}, err
	}
	start, length, ok := strings.Cut(window, "+")
	if !ok {
		return Burst{}, fmt.Errorf("want KIND:START+LEN, got %q", val)
	}
	s, err := time.ParseDuration(start)
	if err != nil {
		return Burst{}, err
	}
	l, err := time.ParseDuration(length)
	if err != nil {
		return Burst{}, err
	}
	return Burst{Kind: k, Start: s, Len: l}, nil
}

func parseBlackout(val string) (Blackout, error) {
	parts := strings.SplitN(val, ":", 3)
	if len(parts) != 3 {
		return Blackout{}, fmt.Errorf("want ASN:KIND:UNTIL, got %q", val)
	}
	asn, err := strconv.ParseUint(parts[0], 10, 32)
	if err != nil {
		return Blackout{}, err
	}
	k, err := parseKind(parts[1])
	if err != nil {
		return Blackout{}, err
	}
	until, err := time.ParseDuration(parts[2])
	if err != nil {
		return Blackout{}, err
	}
	return Blackout{AS: bgp.ASN(asn), Kind: k, Until: until}, nil
}
