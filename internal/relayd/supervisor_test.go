package relayd

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/relay-networks/privaterelay/internal/vclock"
)

func testSupervisor(clock vclock.Clock, reg *Registry) *Supervisor {
	return NewSupervisor(SupervisorConfig{
		Name:             "t",
		Attempts:         2,
		BackoffBase:      50 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
		QuarantineAfter:  2,
		Seed:             7,
	}, clock, reg)
}

var errBoom = errors.New("boom")

// TestSupervisorEscalation walks the full state machine on a virtual
// clock: failures → backoff → breaker → quarantine, with every
// transition landing in the registry. No wall time is spent.
func TestSupervisorEscalation(t *testing.T) {
	clock := vclock.NewVirtualClock()
	reg := NewRegistry()
	sup := testSupervisor(clock, reg)
	ctx := context.Background()
	fail := func(context.Context) error { return errBoom }

	// Tick 1: both attempts fail, backoff slept between them.
	before := clock.Elapsed()
	if err := sup.Tick(ctx, fail); err == nil || errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("tick 1: err = %v", err)
	}
	if clock.Elapsed() <= before {
		t.Fatal("no backoff was slept between attempts")
	}
	if sup.State() != StateIdle {
		t.Fatalf("state after tick 1 = %s, want idle", sup.State())
	}

	// Tick 2: second consecutive failed Tick trips the breaker.
	if err := sup.Tick(ctx, fail); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("tick 2: err = %v, want ErrBreakerOpen", err)
	}
	if sup.State() != StateBreakerOpen {
		t.Fatalf("state = %s, want breaker_open", sup.State())
	}
	if got := reg.Counter("relayd_breaker_open_total", "campaign", "t").Value(); got != 1 {
		t.Fatalf("breaker_open_total = %d, want 1", got)
	}

	// While cooling down, Tick refuses without running the campaign.
	ran := false
	if err := sup.Tick(ctx, func(context.Context) error { ran = true; return nil }); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("cooldown tick: err = %v, want ErrBreakerOpen", err)
	}
	if ran {
		t.Fatal("campaign ran while the breaker was open")
	}

	// Cooldown elapses; the probe is admitted, fails twice, and the
	// second breaker trip quarantines the campaign.
	clock.Sleep(ctx, time.Minute)
	if err := sup.Tick(ctx, fail); err == nil {
		t.Fatal("probe tick: want error")
	}
	if err := sup.Tick(ctx, fail); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("tick: err = %v, want ErrQuarantined", err)
	}
	if sup.State() != StateQuarantined {
		t.Fatalf("state = %s, want quarantined", sup.State())
	}
	if got := reg.Counter("relayd_quarantine_total", "campaign", "t").Value(); got != 1 {
		t.Fatalf("quarantine_total = %d, want 1", got)
	}

	// Quarantine is terminal until explicitly lifted.
	if err := sup.Tick(ctx, func(context.Context) error { return nil }); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("quarantined tick: err = %v", err)
	}
	sup.Unquarantine()
	if err := sup.Tick(ctx, func(context.Context) error { return nil }); err != nil {
		t.Fatalf("post-unquarantine tick: %v", err)
	}
	if sup.State() != StateIdle {
		t.Fatalf("state = %s, want idle", sup.State())
	}
}

// TestSupervisorRecovery: a success between failures resets the
// consecutive-failure count, so flapping never reaches the breaker.
func TestSupervisorRecovery(t *testing.T) {
	clock := vclock.NewVirtualClock()
	sup := testSupervisor(clock, nil)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := sup.Tick(ctx, func(context.Context) error { return errBoom }); errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("round %d: breaker tripped despite interleaved successes", i)
		}
		if err := sup.Tick(ctx, func(context.Context) error { return nil }); err != nil {
			t.Fatalf("round %d: success tick: %v", i, err)
		}
	}
}

// TestSupervisorCancellationIsNotFailure: a drained service cancels its
// context; that must not push campaigns toward quarantine.
func TestSupervisorCancellationIsNotFailure(t *testing.T) {
	clock := vclock.NewVirtualClock()
	reg := NewRegistry()
	sup := testSupervisor(clock, reg)
	ctx, cancel := context.WithCancel(context.Background())
	err := sup.Tick(ctx, func(ctx context.Context) error {
		cancel()
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := reg.Counter("relayd_campaign_failures_total", "campaign", "t").Value(); got != 0 {
		t.Fatalf("cancellation counted as %d failures", got)
	}
	if sup.State() != StateIdle {
		t.Fatalf("state = %s, want idle", sup.State())
	}
}

// TestSupervisorBackoffReplays: a Tick's backoff is a pure function of
// (seed, lifetime attempt count) — a supervisor rebuilt at the same
// count sleeps the same delay — and the first retry waits within
// [BackoffBase/2, BackoffBase).
func TestSupervisorBackoffReplays(t *testing.T) {
	fail := func(context.Context) error { return errBoom }
	slept := func(prior uint64) time.Duration {
		clock := vclock.NewVirtualClock()
		s := testSupervisor(clock, nil)
		s.attempt = prior
		before := clock.Elapsed()
		_ = s.Tick(context.Background(), fail)
		return clock.Elapsed() - before
	}
	seen := map[time.Duration]bool{}
	for prior := uint64(0); prior < 8; prior++ {
		d := slept(prior)
		if again := slept(prior); again != d {
			t.Fatalf("after %d attempts: slept %v, rebuilt supervisor slept %v", prior, d, again)
		}
		if d < 25*time.Millisecond || d >= 50*time.Millisecond {
			t.Fatalf("after %d attempts: slept %v, want [25ms, 50ms)", prior, d)
		}
		seen[d] = true
	}
	if len(seen) < 4 {
		t.Fatalf("jitter barely varies across attempt counts: %d distinct of 8", len(seen))
	}
}

func TestStateStringExhaustive(t *testing.T) {
	want := []string{"idle", "running", "backoff", "breaker_open", "quarantined"}
	if len(want) != stateCount {
		t.Fatalf("stateCount = %d, want %d", stateCount, len(want))
	}
	for i, w := range want {
		if got := State(i).String(); got != w {
			t.Fatalf("State(%d) = %q, want %q", i, got, w)
		}
	}
}
