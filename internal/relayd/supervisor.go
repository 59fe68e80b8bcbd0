package relayd

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/retry"
	"github.com/relay-networks/privaterelay/internal/vclock"
)

// The campaign supervisor. Each recurring unit of work relayd runs — a
// monthly scan, an Atlas campaign, the diff pass — sits behind one
// Supervisor that owns its failure policy: bounded retries with the
// shared capped exponential backoff, a circuit breaker that trips after
// a run of consecutive failures and cools down before probing again, a
// per-attempt deadline budget, and a quarantine terminal state for
// campaigns that keep failing after the breaker has given them every
// chance. The state machine is deliberately small and fully
// observable: every transition lands in the metrics registry.

// State is the supervisor's position in its lifecycle.
type State uint8

const (
	// StateIdle: healthy, ready to run on the next tick.
	StateIdle State = iota
	// StateRunning: a campaign attempt is in flight.
	StateRunning
	// StateBackoff: the last attempt failed; waiting out jittered backoff.
	StateBackoff
	// StateBreakerOpen: too many consecutive failures; refusing to run
	// until the cooldown elapses, then admitting a single probe.
	StateBreakerOpen
	// StateQuarantined: the campaign exhausted its breaker escalations
	// and is parked until an operator (or test) unquarantines it.
	StateQuarantined
)

// stateCount pins the enum size for exhaustiveness checks.
const stateCount = int(StateQuarantined) + 1

// String names the state for logs and metric labels.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateRunning:
		return "running"
	case StateBackoff:
		return "backoff"
	case StateBreakerOpen:
		return "breaker_open"
	case StateQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// ErrQuarantined is returned by Tick while the campaign is parked.
var ErrQuarantined = errors.New("campaign quarantined")

// ErrBreakerOpen is returned by Tick while the breaker cooldown has not
// yet elapsed.
var ErrBreakerOpen = errors.New("campaign breaker open")

// SupervisorConfig bounds one campaign's failure policy. Zero values
// pick the documented defaults.
type SupervisorConfig struct {
	// Name labels this campaign's metric series.
	Name string
	// Attempts is the number of tries one Tick makes before reporting
	// failure (default 3).
	Attempts int
	// BackoffBase is the first retry's undiscounted backoff; a Tick's
	// k-th retry waits min(BackoffCap, BackoffBase·2^(k-1)) scaled by
	// jitter in [1/2, 1) (default 50ms).
	BackoffBase time.Duration
	// BackoffCap bounds the exponential growth (default 30× base).
	BackoffCap time.Duration
	// Budget caps one attempt's runtime via context deadline
	// (default: no per-attempt deadline).
	Budget time.Duration
	// BreakerThreshold is the count of consecutive failed Ticks that
	// opens the breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses work before
	// admitting a probe (default 1m).
	BreakerCooldown time.Duration
	// QuarantineAfter is the count of breaker openings that parks the
	// campaign for good (default 3).
	QuarantineAfter int
	// Seed decorrelates this campaign's jitter from its siblings.
	Seed uint64
}

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.Attempts <= 0 {
		c.Attempts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 30 * c.BackoffBase
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Minute
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = 3
	}
	return c
}

// Supervisor runs one campaign under the configured failure policy.
// It is driven synchronously by the service loop: not safe for
// concurrent Ticks.
type Supervisor struct {
	cfg   SupervisorConfig
	clock vclock.Clock
	reg   *Registry

	state        State
	consecFails  int       // failed Ticks since last success
	breakerTrips int       // times the breaker has opened
	breakerUntil time.Time // cooldown expiry while open
	attempt      uint64    // lifetime attempt counter (keys the backoff jitter)
}

// NewSupervisor builds a supervisor on the given clock, reporting into
// reg (which may be nil for tests that only care about behavior).
func NewSupervisor(cfg SupervisorConfig, clock vclock.Clock, reg *Registry) *Supervisor {
	if clock == nil {
		clock = vclock.WallClock{}
	}
	s := &Supervisor{cfg: cfg.withDefaults(), clock: clock, reg: reg}
	if reg != nil {
		// Materialize the campaign's series up front so /metrics shows
		// the full surface (zeros included) from the first scrape.
		reg.Gauge("relayd_supervisor_state", "campaign", s.cfg.Name).Set(float64(StateIdle))
		reg.Counter("relayd_campaign_attempts_total", "campaign", s.cfg.Name)
		reg.Counter("relayd_campaign_success_total", "campaign", s.cfg.Name)
		reg.Counter("relayd_campaign_failures_total", "campaign", s.cfg.Name)
		reg.Counter("relayd_breaker_open_total", "campaign", s.cfg.Name)
		reg.Counter("relayd_quarantine_total", "campaign", s.cfg.Name)
	}
	return s
}

// State reports the current lifecycle state.
func (s *Supervisor) State() State { return s.state }

// setState transitions and counts the edge.
func (s *Supervisor) setState(next State) {
	if next == s.state {
		return
	}
	if s.reg != nil {
		s.reg.Counter("relayd_supervisor_transitions_total",
			"campaign", s.cfg.Name, "to", next.String()).Add(1)
	}
	s.state = next
	if s.reg != nil {
		s.reg.Gauge("relayd_supervisor_state",
			"campaign", s.cfg.Name).Set(float64(next))
	}
}

// Tick runs one supervised campaign pass: up to Attempts tries of run,
// sleeping jittered backoff between failures, each attempt bounded by
// Budget. Returns nil on success. Context cancellation is not a
// campaign failure — a drained or killed service must not push its
// campaigns toward quarantine — so cancellation returns ctx.Err()
// without touching failure counters.
func (s *Supervisor) Tick(ctx context.Context, run func(context.Context) error) error {
	switch s.state {
	case StateQuarantined:
		return fmt.Errorf("%s: %w", s.cfg.Name, ErrQuarantined)
	case StateBreakerOpen:
		if s.clock.Now().Before(s.breakerUntil) {
			return fmt.Errorf("%s: %w", s.cfg.Name, ErrBreakerOpen)
		}
		// Cooldown elapsed: fall through and admit this Tick as the
		// half-open probe. Success closes the breaker, failure below
		// re-opens or quarantines.
	case StateIdle, StateRunning, StateBackoff:
	}

	var lastErr error
	backoff := retry.Backoff{Base: s.cfg.BackoffBase, Cap: s.cfg.BackoffCap}
	for attempt := 0; attempt < s.cfg.Attempts; attempt++ {
		if attempt > 0 {
			s.setState(StateBackoff)
			// The exponent is the retry's index within this Tick; the
			// jitter is keyed by (seed, lifetime attempt), so a supervisor
			// rebuilt after a crash at the same attempt count sleeps the
			// same schedule.
			d := backoff.Delay(attempt-1, iputil.Mix(s.cfg.Seed, s.attempt))
			if err := s.clock.Sleep(ctx, d); err != nil {
				s.setState(StateIdle)
				return err
			}
		}
		s.attempt++
		s.setState(StateRunning)
		if s.reg != nil {
			s.reg.Counter("relayd_campaign_attempts_total", "campaign", s.cfg.Name).Add(1)
		}
		err := s.runOnce(ctx, run)
		if err == nil {
			s.consecFails = 0
			s.setState(StateIdle)
			if s.reg != nil {
				s.reg.Counter("relayd_campaign_success_total", "campaign", s.cfg.Name).Add(1)
			}
			return nil
		}
		if ctx.Err() != nil {
			// The service is shutting down, not the campaign failing.
			s.setState(StateIdle)
			return ctx.Err()
		}
		lastErr = err
		if s.reg != nil {
			s.reg.Counter("relayd_campaign_failures_total", "campaign", s.cfg.Name).Add(1)
		}
	}

	s.consecFails++
	if s.consecFails >= s.cfg.BreakerThreshold {
		s.consecFails = 0
		s.breakerTrips++
		if s.reg != nil {
			s.reg.Counter("relayd_breaker_open_total", "campaign", s.cfg.Name).Add(1)
		}
		if s.breakerTrips >= s.cfg.QuarantineAfter {
			s.setState(StateQuarantined)
			if s.reg != nil {
				s.reg.Counter("relayd_quarantine_total", "campaign", s.cfg.Name).Add(1)
			}
			return fmt.Errorf("%s: %w after %d breaker trips: %v",
				s.cfg.Name, ErrQuarantined, s.breakerTrips, lastErr)
		}
		s.breakerUntil = s.clock.Now().Add(s.cfg.BreakerCooldown)
		s.setState(StateBreakerOpen)
		return fmt.Errorf("%s: %w: %v", s.cfg.Name, ErrBreakerOpen, lastErr)
	}
	s.setState(StateIdle)
	return fmt.Errorf("%s: attempts exhausted: %w", s.cfg.Name, lastErr)
}

// runOnce executes one attempt under the Budget deadline.
func (s *Supervisor) runOnce(ctx context.Context, run func(context.Context) error) error {
	if s.cfg.Budget > 0 {
		var cancel context.CancelFunc
		// The budget is virtual-clock-aware only insofar as campaigns
		// check their own deadlines; context.WithTimeout counts wall
		// time, which bounds runaway attempts on a live service while
		// costing nothing under a virtual clock in tests.
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Budget)
		defer cancel()
	}
	return run(ctx)
}

// Unquarantine resets a parked campaign to a clean slate: an operator
// decision (or a test) explicitly forgiving the history.
func (s *Supervisor) Unquarantine() {
	if s.state != StateQuarantined {
		return
	}
	s.consecFails = 0
	s.breakerTrips = 0
	s.setState(StateIdle)
}
