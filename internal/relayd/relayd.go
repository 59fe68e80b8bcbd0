// Package relayd is the continuous measurement service: it runs the
// paper's scan and Atlas campaigns on a schedule, supervised by
// per-campaign retry/breaker/quarantine state machines, persists every
// output through the atomic checkpoint machinery so a kill -9 at any
// instant resumes to bit-identical datasets, maintains incremental
// month-over-month diff generations, and serves reports plus
// health/readiness/metrics over HTTP with graceful drain.
package relayd

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/relay-networks/privaterelay/internal/vclock"
)

// ServiceConfig configures one relayd instance.
type ServiceConfig struct {
	// Pipeline is the measurement plan (see PipelineConfig).
	Pipeline PipelineConfig
	// Interval is the pause between cycles, slept on the pipeline clock
	// (default 1h; instantaneous on a virtual clock).
	Interval time.Duration
	// Supervisor is the failure-policy template every campaign
	// supervisor starts from (Name and Seed are filled per campaign).
	Supervisor SupervisorConfig
}

// Service is a running relayd: the pipeline, its supervisors and the
// cycle state the HTTP plane reports.
type Service struct {
	cfg   ServiceConfig
	pipe  *Pipeline
	reg   *Registry
	clock vclock.Clock

	supScan  *Supervisor
	supDiff  *Supervisor
	supAtlas *Supervisor

	cycles   atomic.Int64
	ready    atomic.Bool
	draining atomic.Bool
}

// New builds a service. A nil Pipeline.Registry gets a fresh one —
// read it back via Registry().
func New(cfg ServiceConfig) (*Service, error) {
	if cfg.Pipeline.Registry == nil {
		cfg.Pipeline.Registry = NewRegistry()
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Hour
	}
	pipe, err := NewPipeline(cfg.Pipeline)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:   cfg,
		pipe:  pipe,
		reg:   cfg.Pipeline.Registry,
		clock: pipe.cfg.Clock,
	}
	sup := func(name string, seedOffset uint64) *Supervisor {
		c := cfg.Supervisor
		c.Name = name
		c.Seed = cfg.Pipeline.Seed + seedOffset
		return NewSupervisor(c, s.clock, s.reg)
	}
	s.supScan = sup("scan", 1)
	s.supDiff = sup("diff", 2)
	s.supAtlas = sup("atlas", 3)
	return s, nil
}

// Registry returns the service's metrics registry.
func (s *Service) Registry() *Registry { return s.reg }

// Cycles reports how many Step calls have completed.
func (s *Service) Cycles() int64 { return s.cycles.Load() }

// Ready reports whether the service has finished at least one cycle
// and is not draining — the /readyz contract.
func (s *Service) Ready() bool { return s.ready.Load() && !s.draining.Load() }

// Draining reports whether BeginDrain was called.
func (s *Service) Draining() bool { return s.draining.Load() }

// CaughtUp reports whether every planned month has durable datasets.
func (s *Service) CaughtUp() bool {
	_, caughtUp := s.pipe.NextMonth()
	return caughtUp
}

// Step runs one service cycle: advance the scan plan by at most one
// month, bring the diff generations and the report up to date, run the
// Atlas campaign for the newest month. Campaign failures surface as the
// returned error after the supervisor has spent its attempts; the cycle
// still counts, so the HTTP plane stays live while a campaign is in
// backoff or quarantine.
func (s *Service) Step(ctx context.Context) error {
	var firstErr error
	idx, caughtUp := s.pipe.NextMonth()
	if !caughtUp {
		month := s.pipe.Months()[idx]
		err := s.supScan.Tick(ctx, func(ctx context.Context) error {
			return s.pipe.RunScanCampaign(ctx, month)
		})
		if err != nil {
			if ctx.Err() != nil {
				return err
			}
			firstErr = err
		}
	}

	// Diffs and the report follow whatever is durable now, whether this
	// cycle's scan finished, failed, or was never needed.
	done, _ := s.pipe.NextMonth()
	if done > 1 {
		if err := s.supDiff.Tick(ctx, func(context.Context) error {
			return s.pipe.EnsureDiffs(done - 1)
		}); err != nil {
			if ctx.Err() != nil {
				return err
			}
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if err := s.pipe.WriteReport(); err != nil {
		if firstErr == nil {
			firstErr = fmt.Errorf("relayd: report: %w", err)
		}
	}
	if done > 0 && s.cfg.Pipeline.AtlasProbes > 0 {
		month := s.pipe.Months()[done-1]
		if err := s.supAtlas.Tick(ctx, func(ctx context.Context) error {
			return s.pipe.RunAtlas(ctx, month)
		}); err != nil {
			if ctx.Err() != nil {
				return err
			}
			if firstErr == nil {
				firstErr = err
			}
		}
	}

	s.cycles.Add(1)
	if s.reg != nil {
		s.reg.Counter("relayd_cycles_total").Add(1)
	}
	s.ready.Store(true)
	return firstErr
}

// Run drives Step in a loop on the pipeline clock until ctx is
// cancelled or, when maxCycles > 0, that many cycles have run. The
// inter-cycle sleep is skipped while the scan plan is behind, so a
// fresh service catches up as fast as its campaigns allow.
func (s *Service) Run(ctx context.Context, maxCycles int) error {
	for n := 0; maxCycles <= 0 || n < maxCycles; n++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		stepErr := s.Step(ctx)
		if err := ctx.Err(); err != nil {
			return err
		}
		// Sleep between cycles once caught up — and also after a failed
		// cycle, so breaker-open campaigns do not busy-spin the loop.
		if s.CaughtUp() || stepErr != nil {
			if err := s.clock.Sleep(ctx, s.cfg.Interval); err != nil {
				return err
			}
		}
	}
	return nil
}

// BeginDrain flips readiness off; in-flight work keeps running so
// checkpoints land before exit.
func (s *Service) BeginDrain() {
	if s.draining.Swap(true) {
		return
	}
	if s.reg != nil {
		s.reg.Counter("relayd_drain_total").Add(1)
	}
}

// Close releases the service after campaigns stop. Every cycle leaves
// its state on disk and holds nothing open between cycles, so there is
// nothing to release; callers pair it with New regardless.
func (s *Service) Close() {}

// Collect refreshes every scrape-time series: the message pool and the
// cycle/readiness gauges.
func (s *Service) Collect() {
	s.reg.CollectPools()
	s.reg.Gauge("relayd_ready").Set(boolGauge(s.Ready()))
	s.reg.Gauge("relayd_caught_up").Set(boolGauge(s.CaughtUp()))
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
