package core

import (
	"context"
	"net/netip"
	"sync/atomic"
	"time"

	"github.com/relay-networks/privaterelay/internal/faults"
	"github.com/relay-networks/privaterelay/internal/retry"
	"github.com/relay-networks/privaterelay/internal/vclock"
)

// The resilience layer under core.Scan: capped exponential backoff
// with deterministic jitter, a shared circuit breaker for sustained
// SERVFAIL/REFUSED episodes, and the per-subnet failure ledger. All
// waiting goes through a vclock.Clock, so chaos tests drive the whole
// stack on a virtual clock with zero wall sleeps.

// BackoffConfig shapes the scan's retry backoff: the shared
// retry.Backoff schedule, jittered per (subnet, attempt) so
// synchronized retry herds cannot form. A zero Base disables backoff
// sleeping entirely (the pre-resilience behaviour); a zero Cap defaults
// to 64×Base.
type BackoffConfig = retry.Backoff

// BreakerConfig tunes the shared circuit breaker.
type BreakerConfig struct {
	// Threshold is the consecutive SERVFAIL/REFUSED count that trips the
	// breaker; zero disables it.
	Threshold int
	// Cooldown is how long the breaker stays open before half-opening
	// (default 2s).
	Cooldown time.Duration
}

// Breaker states.
const (
	breakerClosed int32 = iota
	breakerOpen
	breakerHalfOpen
)

// circuitBreaker is shared by all scan workers: sustained server
// failures are a property of the authoritative side, so one worker's
// observations must slow every worker down. While open, acquire makes
// callers wait out the cooldown on the clock; in half-open exactly one
// probe query is admitted, and its outcome closes or re-opens the
// breaker.
type circuitBreaker struct {
	cfg   BreakerConfig
	clock vclock.Clock

	state    atomic.Int32
	deadline atomic.Int64 // UnixNano when the open state may half-open
	consec   atomic.Int64 // consecutive server failures while closed
	probing  atomic.Bool  // half-open: one probe in flight
	trips    atomic.Int64
}

func newCircuitBreaker(cfg BreakerConfig, clock vclock.Clock) *circuitBreaker {
	if cfg.Threshold <= 0 {
		return nil
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 2 * time.Second
	}
	return &circuitBreaker{cfg: cfg, clock: clock}
}

// acquireWaitCap bounds how many cooldown waits one acquire spends
// before giving up; the caller then defers the subnet to a later pass,
// keeping workers from camping on a long outage.
const acquireWaitCap = 8

// acquire gates one query attempt. It returns (admitted, probe): not
// admitted means the caller should defer the work; probe means the
// attempt is the half-open trial and its outcome must be reported.
func (cb *circuitBreaker) acquire(ctx context.Context) (admitted, probe bool) {
	if cb == nil {
		return true, false
	}
	for waits := 0; ; {
		switch cb.state.Load() {
		case breakerClosed:
			return true, false
		case breakerOpen:
			remaining := time.Duration(cb.deadline.Load() - cb.clock.Now().UnixNano())
			if remaining <= 0 {
				cb.state.CompareAndSwap(breakerOpen, breakerHalfOpen)
				continue
			}
			if waits >= acquireWaitCap {
				return false, false
			}
			waits++
			if cb.clock.Sleep(ctx, remaining) != nil {
				return false, false
			}
		case breakerHalfOpen:
			if cb.probing.CompareAndSwap(false, true) {
				return true, true
			}
			if waits >= acquireWaitCap {
				return false, false
			}
			waits++
			if cb.clock.Sleep(ctx, cb.cfg.Cooldown/4+1) != nil {
				return false, false
			}
		}
	}
}

// report feeds one admitted attempt's outcome back. A success resets
// the failure run and closes a half-open breaker. A half-open probe
// that fails in any way — SERVFAIL/REFUSED, timeout, truncation, a
// stale response or a terminal transport error — re-opens it at once.
// Otherwise only SERVFAIL/REFUSED count, and crossing the threshold
// while closed trips.
func (cb *circuitBreaker) report(out attemptOutcome, probe bool) {
	switch {
	case cb == nil:
	case out == outcomeOK:
		cb.consec.Store(0)
		if probe {
			cb.state.Store(breakerClosed)
			cb.probing.Store(false)
		}
	case probe:
		cb.open()
		cb.probing.Store(false)
	case out == outcomeServFail || out == outcomeRefused:
		if cb.consec.Add(1) >= int64(cb.cfg.Threshold) && cb.state.Load() == breakerClosed {
			cb.open()
		}
	}
}

func (cb *circuitBreaker) open() {
	cb.deadline.Store(cb.clock.Now().Add(cb.cfg.Cooldown).UnixNano())
	cb.state.Store(breakerOpen)
	cb.consec.Store(0)
	cb.trips.Add(1)
}

func (cb *circuitBreaker) tripCount() int64 {
	if cb == nil {
		return 0
	}
	return cb.trips.Load()
}

// SubnetFault is one failure-ledger entry: every fault a /24 met on its
// way to an answer (or to giving up). Recovered reports whether a later
// attempt eventually succeeded.
type SubnetFault struct {
	Subnet    netip.Prefix
	Timeouts  int32
	ServFails int32
	Refused   int32
	Truncated int32
	Stale     int32
	// Attempts counts the failed attempts (successful ones are not
	// faults and therefore not ledgered).
	Attempts  int32
	Recovered bool
	// LastKind is the most recent fault the subnet met, used to classify
	// unrecovered subnets into the legacy Timeouts/Errors loss counters.
	LastKind faults.Kind
}

// note records one failed attempt of the given kind.
func (f *SubnetFault) note(kind faults.Kind) {
	f.Attempts++
	f.LastKind = kind
	switch kind {
	case faults.KindTimeout:
		f.Timeouts++
	case faults.KindServFail:
		f.ServFails++
	case faults.KindRefused:
		f.Refused++
	case faults.KindTruncate:
		f.Truncated++
	case faults.KindStale:
		f.Stale++
	}
}

// merge folds another ledger entry for the same subnet into f.
func (f *SubnetFault) merge(o *SubnetFault) {
	f.Timeouts += o.Timeouts
	f.ServFails += o.ServFails
	f.Refused += o.Refused
	f.Truncated += o.Truncated
	f.Stale += o.Stale
	if o.Attempts > 0 {
		f.LastKind = o.LastKind
	}
	f.Attempts += o.Attempts
	f.Recovered = f.Recovered || o.Recovered
}

// bitset tracks completed /24 universe indices for checkpointing.
type bitset struct {
	words []uint64
	n     int64 // set bits
}

func newBitset(size int64) *bitset {
	return &bitset{words: make([]uint64, (size+63)/64)}
}

func (b *bitset) set(i int64) {
	w, bit := i/64, uint(i%64)
	if b.words[w]&(1<<bit) == 0 {
		b.words[w] |= 1 << bit
		b.n++
	}
}

func (b *bitset) get(i int64) bool {
	if b == nil {
		return false
	}
	w := i / 64
	if w >= int64(len(b.words)) {
		return false
	}
	return b.words[w]&(1<<uint(i%64)) != 0
}

func (b *bitset) count() int64 { return b.n }

// ranges calls fn for every maximal run [start, end] of set bits.
func (b *bitset) ranges(fn func(start, end int64)) {
	inRun := false
	var start int64
	limit := int64(len(b.words)) * 64
	for i := int64(0); i < limit; i++ {
		if b.words[i/64]&(1<<uint(i%64)) != 0 {
			if !inRun {
				start, inRun = i, true
			}
		} else if inRun {
			fn(start, i-1)
			inRun = false
		}
	}
	if inRun {
		fn(start, limit-1)
	}
}
