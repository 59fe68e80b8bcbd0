// Package retry holds the tree's one retry-delay schedule: capped
// exponential backoff with deterministic jitter. The ECS scanner, the
// UDP DNS client, relay tunnel establishment and the relayd campaign
// supervisor all wait through it; each supplies its own base, cap and
// jitter hash, so their schedules stay decorrelated from one another.
package retry

import "time"

// Backoff is a capped exponential schedule. The delay before retry k
// (0-based) is min(Cap, Base·2^k), scaled by a jitter factor in
// [1/2, 1) drawn from a caller-supplied hash.
type Backoff struct {
	// Base is the first retry's undiscounted delay; zero or negative
	// disables waiting.
	Base time.Duration
	// Cap bounds the exponential growth.
	Cap time.Duration
}

// Delay returns the wait before retry attempt (0-based). h keys the
// jitter: the same (attempt, h) always yields the same delay, and the
// caller mixes whatever should decorrelate its waits (a subnet, a
// transaction ID, a seed) into h.
func (b Backoff) Delay(attempt int, h uint64) time.Duration {
	if b.Base <= 0 {
		return 0
	}
	d := b.Base
	for i := 0; i < attempt && d < b.Cap; i++ {
		d *= 2
	}
	if d > b.Cap {
		d = b.Cap
	}
	frac := float64(h>>11) / float64(1<<53)
	return d/2 + time.Duration(frac*float64(d/2))
}
