// Package faults is the deterministic fault-injection plane: a
// composable dnsserver.Exchanger wrapper that subjects any DNS client —
// the ECS scanner, resolvers, Atlas campaigns — to scripted timeouts,
// SERVFAIL, REFUSED rate-limit responses, truncation, stale-ID
// responses and latency, plus clock-windowed burst outages and per-AS
// blackouts.
//
// Steady-state fault decisions are a pure function of (profile seed,
// query key, transaction ID): the k-th attempt for a given subnet meets
// the same fate in every run at every worker count, so chaos runs are
// replayable and the orchestration layers can be tested for bit-exact
// convergence. Bursts and blackouts are windows on the injector's
// vclock.Clock; with a virtual clock they expire as retry backoff
// "sleeps" accumulate, so even outage recovery needs no wall time in
// tests.
package faults

import (
	"context"
	"net/netip"
	"sync/atomic"
	"time"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/vclock"
)

// Stats counts injected faults, atomically. The resilience layers'
// observed-fault counters must reconcile exactly against these — every
// injected fault is seen, classified and survived exactly once.
type Stats struct {
	Timeouts  atomic.Int64
	ServFails atomic.Int64
	Refused   atomic.Int64
	Truncated atomic.Int64
	Stale     atomic.Int64
	Delayed   atomic.Int64 // latency injections (not faults: the query succeeds)
	Passed    atomic.Int64 // queries forwarded unharmed
}

// Total sums the injected faults (latency excluded: delayed queries
// still succeed).
func (s *Stats) Total() int64 {
	return s.Timeouts.Load() + s.ServFails.Load() + s.Refused.Load() +
		s.Truncated.Load() + s.Stale.Load()
}

// Of returns the count injected for one kind.
func (s *Stats) Of(k Kind) int64 {
	switch k {
	case KindTimeout:
		return s.Timeouts.Load()
	case KindServFail:
		return s.ServFails.Load()
	case KindRefused:
		return s.Refused.Load()
	case KindTruncate:
		return s.Truncated.Load()
	case KindStale:
		return s.Stale.Load()
	}
	return 0
}

// Injector wraps an Exchanger with a fault Profile.
type Injector struct {
	inner   dnsserver.Exchanger
	profile Profile
	clock   vclock.Clock
	epoch   time.Time
	// origin attributes an ECS client subnet to its AS for blackouts;
	// nil disables blackout matching.
	origin func(netip.Addr) (bgp.ASN, bool)

	// Stats exposes the injected-fault counters.
	Stats Stats
}

// NewInjector builds the injector. A nil profile passes everything
// through; a nil clock uses the wall clock; origin may be nil when the
// profile has no blackouts.
func NewInjector(inner dnsserver.Exchanger, profile *Profile, clock vclock.Clock, origin func(netip.Addr) (bgp.ASN, bool)) *Injector {
	if clock == nil {
		clock = vclock.WallClock{}
	}
	inj := &Injector{inner: inner, clock: clock, epoch: clock.Now(), origin: origin}
	if profile != nil {
		inj.profile = *profile
	}
	return inj
}

// Exchange implements dnsserver.Exchanger.
func (inj *Injector) Exchange(ctx context.Context, query *dnswire.Message) (*dnswire.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	kind, fault, delay := inj.decide(query)
	if fault {
		return inj.inject(kind, query)
	}
	if delay {
		inj.Stats.Delayed.Add(1)
		if err := inj.clock.Sleep(ctx, inj.profile.Latency); err != nil {
			return nil, err
		}
	}
	inj.Stats.Passed.Add(1)
	return inj.inner.Exchange(ctx, query)
}

// decide picks the query's fate. Precedence: blackout, burst, then the
// steady per-attempt rates.
func (inj *Injector) decide(query *dnswire.Message) (kind Kind, fault, delay bool) {
	p := &inj.profile
	var since time.Duration
	if len(p.Bursts) > 0 || len(p.Blackouts) > 0 {
		since = inj.clock.Now().Sub(inj.epoch)
	}
	if len(p.Blackouts) > 0 && inj.origin != nil {
		if sub, ok := querySubnet(query); ok {
			if as, ok := inj.origin(sub.Addr()); ok {
				for _, b := range p.Blackouts {
					if b.AS == as && since < b.Until {
						return b.Kind, true, false
					}
				}
			}
		}
	}
	for _, b := range p.Bursts {
		if since >= b.Start && since < b.Start+b.Len {
			return b.Kind, true, false
		}
	}

	// Steady rates: one uniform draw keyed on (seed, query key, ID).
	// The transaction ID varies per attempt (resilient clients
	// regenerate it), so retries re-roll while staying replayable.
	h := iputil.Mix(p.Seed, iputil.Mix(queryKey(query), uint64(query.Header.ID)))
	u := float64(h>>11) / float64(1<<53)
	for _, step := range []struct {
		rate float64
		kind Kind
	}{
		{p.Timeout, KindTimeout},
		{p.ServFail, KindServFail},
		{p.Refused, KindRefused},
		{p.Truncate, KindTruncate},
		{p.Stale, KindStale},
	} {
		if u < step.rate {
			return step.kind, true, false
		}
		u -= step.rate
	}
	return 0, false, p.LatencyRate > 0 && u < p.LatencyRate
}

// inject synthesizes the fault. Failure responses echo the query's
// question section and ID (except stale, whose whole point is a wrong
// ID), exactly like a real server or a late datagram would.
func (inj *Injector) inject(kind Kind, query *dnswire.Message) (*dnswire.Message, error) {
	switch kind {
	case KindTimeout:
		inj.Stats.Timeouts.Add(1)
		return nil, dnsserver.ErrTimeout
	case KindServFail:
		inj.Stats.ServFails.Add(1)
		return response(query, dnswire.RCodeServFail, false), nil
	case KindRefused:
		inj.Stats.Refused.Add(1)
		return response(query, dnswire.RCodeRefused, false), nil
	case KindTruncate:
		inj.Stats.Truncated.Add(1)
		return response(query, dnswire.RCodeNoError, true), nil
	default: // KindStale
		inj.Stats.Stale.Add(1)
		resp := response(query, dnswire.RCodeNoError, false)
		resp.Header.ID ^= 0x5A5A // a duplicate answering some other transaction
		return resp, nil
	}
}

func response(query *dnswire.Message, rcode dnswire.RCode, truncated bool) *dnswire.Message {
	return &dnswire.Message{
		Header: dnswire.Header{
			ID:        query.Header.ID,
			Response:  true,
			OpCode:    query.Header.OpCode,
			Truncated: truncated,
			RCode:     rcode,
		},
		Questions: append([]dnswire.Question(nil), query.Questions...),
	}
}

// queryKey derives the stable identity of a query independent of its
// per-attempt transaction ID: the ECS client subnet when present (the
// scanner's case), else the question name.
func queryKey(query *dnswire.Message) uint64 {
	if sub, ok := querySubnet(query); ok {
		return iputil.HashPrefix(sub)
	}
	if len(query.Questions) > 0 {
		return iputil.HashString(query.Questions[0].Name)
	}
	return 0
}

func querySubnet(query *dnswire.Message) (netip.Prefix, bool) {
	if query.Edns == nil || query.Edns.ClientSubnet == nil {
		return netip.Prefix{}, false
	}
	return query.Edns.ClientSubnet.Prefix(), true
}
