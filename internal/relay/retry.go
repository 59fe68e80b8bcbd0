package relay

import (
	"context"
	"errors"
	"time"

	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/vclock"
)

// Connector establishes relay tunnels; *Device is the production
// implementation. Scan harnesses wrap it to retry flaky establishment
// or to inject connection failures in tests.
type Connector interface {
	Connect(ctx context.Context) (*Tunnel, error)
}

// ConnectRetry shapes tunnel-establishment retries.
type ConnectRetry struct {
	// Attempts is the total number of tries (default 3).
	Attempts int
	// Backoff is the base delay before a retry, doubling per attempt up
	// to 8×Backoff with jitter in [1/2, 1) of the delay. Zero defaults
	// to 50ms; negative disables backoff sleeps.
	Backoff time.Duration
	// Clock drives the backoff sleeps (nil: wall clock; tests pass a
	// vclock.VirtualClock).
	Clock vclock.Clock
}

// ConnectWithRetry dials through c, retrying transient establishment
// failures with bounded jittered backoff. ErrServiceBlocked is terminal:
// blocking is a state the operator configured, not a transient fault,
// and retrying it would only hammer the resolver.
func ConnectWithRetry(ctx context.Context, c Connector, r ConnectRetry) (*Tunnel, error) {
	attempts := r.Attempts
	if attempts <= 0 {
		attempts = 3
	}
	backoff := r.Backoff
	if backoff == 0 {
		backoff = 50 * time.Millisecond
	}
	clock := r.Clock
	if clock == nil {
		clock = vclock.WallClock{}
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if a > 0 && backoff > 0 {
			d := backoff
			for i := 0; i < a-1 && d < 8*backoff; i++ {
				d *= 2
			}
			if d > 8*backoff {
				d = 8 * backoff
			}
			h := iputil.Mix(0xC0FFEE^uint64(a), uint64(a))
			frac := float64(h>>11) / float64(1<<53)
			if err := clock.Sleep(ctx, d/2+time.Duration(frac*float64(d/2))); err != nil {
				return nil, err
			}
		}
		tun, err := c.Connect(ctx)
		if err == nil {
			return tun, nil
		}
		if errors.Is(err, ErrServiceBlocked) || ctx.Err() != nil {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}
