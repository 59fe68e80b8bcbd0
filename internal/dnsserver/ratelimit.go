package dnsserver

import (
	"net/netip"
	"sync"
	"time"

	"github.com/relay-networks/privaterelay/internal/vclock"
)

// RateLimiter is a per-source token bucket. The paper's authoritative
// servers rate-limit aggressively enough that a full ECS scan stretches to
// 40 hours; the simulator reproduces the behaviour (queries over the limit
// are silently dropped, surfacing as client timeouts). Buckets are keyed
// on the source netip.Addr directly — stringifying the address would cost
// an allocation on every query the server handles.
type RateLimiter struct {
	mu      sync.Mutex
	rate    float64 // tokens per second
	burst   float64
	buckets map[netip.Addr]*bucket
	clock   vclock.Clock
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter returns a limiter granting rate queries/second with the
// given burst per source key. The clock lets chaos tests drive refills
// on a VirtualClock; nil uses the wall clock.
func NewRateLimiter(rate, burst float64, clock vclock.Clock) *RateLimiter {
	if clock == nil {
		clock = vclock.WallClock{}
	}
	return &RateLimiter{
		rate:    rate,
		burst:   burst,
		buckets: make(map[netip.Addr]*bucket),
		clock:   clock,
	}
}

// Allow reports whether a query from key may be served now.
func (rl *RateLimiter) Allow(key netip.Addr) bool {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	now := rl.clock.Now()
	b, ok := rl.buckets[key]
	if !ok {
		b = &bucket{tokens: rl.burst, last: now}
		rl.buckets[key] = b
	}
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens += elapsed * rl.rate
		if b.tokens > rl.burst {
			b.tokens = rl.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}
