// Package vclock is the leaf time abstraction shared by every layer
// that must be drivable in virtual time: the fault plane, the scan
// orchestrator, the authoritative rate limiter and the MASQUE ingress.
// It is a leaf so that every layer, including the packages
// internal/faults itself depends on (dnsserver, masque), can accept an
// injectable clock without an import cycle.
//
// Production code runs on the wall clock; tests run on a virtual clock
// so backoff sleeps, circuit-breaker cooldowns, rate-limit refills and
// injected latency cost no wall time and chaos runs stay fast and
// deterministic.
package vclock

import (
	"context"
	"sync/atomic"
	"time"
)

// Clock abstracts time for the fault plane and every resilient
// orchestrator built on it.
type Clock interface {
	// Now returns the clock's current time.
	Now() time.Time
	// Sleep pauses for d or until ctx is done, returning ctx.Err() in
	// the latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

// WallClock is the real time.Now/time.Sleep clock.
type WallClock struct{}

// Now implements Clock.
func (WallClock) Now() time.Time { return time.Now() } //lint:allow determinism — WallClock is the one sanctioned wall-time source

// Sleep implements Clock; it is context-aware.
func (WallClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// VirtualClock advances only when slept on: Sleep(d) atomically adds d
// to the clock and returns immediately. Concurrent sleepers interleave
// arbitrarily — the clock models elapsed effort, not a schedule — which
// is exactly enough for backoff and cooldown logic to make progress
// without wall delays.
type VirtualClock struct {
	base time.Time
	ns   atomic.Int64
}

// NewVirtualClock starts a virtual clock at an arbitrary fixed epoch.
func NewVirtualClock() *VirtualClock {
	return &VirtualClock{base: time.Unix(1_650_000_000, 0)} // fixed epoch: runs are reproducible
}

// Now implements Clock.
func (c *VirtualClock) Now() time.Time {
	return c.base.Add(time.Duration(c.ns.Load()))
}

// Sleep implements Clock: it advances the clock by d without blocking.
func (c *VirtualClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d > 0 {
		c.ns.Add(int64(d))
	}
	return nil
}

// Elapsed reports how much virtual time has been slept away.
func (c *VirtualClock) Elapsed() time.Duration {
	return time.Duration(c.ns.Load())
}
