package main

import (
	"context"
	"fmt"
	"os"

	"github.com/relay-networks/privaterelay/internal/netsim"
)

// batchSession runs one child process per op and holds every op to the
// digest the first one produced: a wrong answer is a failed op.
type batchSession struct {
	spec   childSpec
	state  string  // parent of the per-op state dirs; "" when the op keeps no state
	work   float64 // fixed per op when the parent can know it, else the child's
	want   string  // digest every untraced op must reproduce
	wantTr string  // the same for traced ops, which may hash a different artefact
}

func (b *batchSession) op(ctx context.Context, tr *tracer) (opResult, error) {
	spec := b.spec
	spec.Trace = tr != nil
	if b.state != "" {
		dir, err := os.MkdirTemp(b.state, spec.Kind+"-")
		if err != nil {
			return opResult{}, err
		}
		defer os.RemoveAll(dir)
		spec.StateDir = dir
	}
	res, ps, err := runChild(ctx, spec)
	if err != nil {
		return opResult{}, err
	}
	want := &b.want
	if spec.Trace {
		want = &b.wantTr
	}
	if *want == "" {
		*want = res.Digest
	} else if res.Digest != *want {
		return opResult{}, fmt.Errorf("%s: output digest %.12s differs from the first op's %.12s", spec.Kind, res.Digest, *want)
	}
	tr.adopt(res.Spans)
	work := b.work
	if work == 0 {
		work = res.Work
	}
	return opResult{
		dur: ps.wall, work: work,
		child: &usage{cpuS: ps.cpuS, rssMiB: ps.rssMiB, gcPauseMs: res.GCPauseMs, mallocs: res.Mallocs},
	}, nil
}

func (b *batchSession) close() error { return nil }

// openCycle sets a relayd catch-up workload up. The work unit is the
// routed /24s the catch-up covers: universe × months × both domains.
// The faulted workload's warm-up is a clean catch-up of the same months
// and seed; its digest is what every faulted op must reproduce, so
// "faults change the path, not the dataset" is checked on every op.
func openCycle(faulted bool) func(context.Context, *runConfig) (session, error) {
	return func(ctx context.Context, rc *runConfig) (session, error) {
		sz := rc.sizes
		months := sz.cleanMonths
		if faulted {
			months = sz.faultedMonths
		}
		b := cycleSession(rc, months)
		// The warm-up op is discarded, but it fixes the digest. It is
		// always clean: for the faulted workload it is the reference.
		if _, err := b.op(ctx, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if faulted {
			b.spec.FaultProfile = fmt.Sprintf("%s,seed=%d", sz.faultProfile, rc.seed)
		}
		return b, nil
	}
}

// cycleSession is a clean catch-up over months months, before any op.
func cycleSession(rc *runConfig, months int) *batchSession {
	sz := rc.sizes
	world := netsim.NewWorld(netsim.Params{Seed: sz.worldSeed, Scale: sz.cycleScale})
	return &batchSession{
		spec: childSpec{
			Kind: "cycle", Seed: sz.worldSeed, Scale: sz.cycleScale, Procs: rc.procs, ScanWorkers: sz.scanWorkers,
			Months: months, AtlasProbes: sz.cycleProbes,
		},
		state: rc.stateRoot,
		work:  float64(slash24s(world.RoutedV4Prefixes()) * int64(months) * 2),
	}
}

// reportSession is cmd/report's default run, before any op; the child
// reports the work, which it learns from the world it builds anyway.
func reportSession(rc *runConfig) *batchSession {
	sz := rc.sizes
	return &batchSession{spec: childSpec{
		Kind: "report", Seed: sz.worldSeed, RunSeed: rc.seed, Scale: sz.reportScale, Procs: rc.procs, ScanWorkers: sz.scanWorkers,
	}}
}

func openReport(ctx context.Context, rc *runConfig) (session, error) {
	b := reportSession(rc)
	if _, err := b.op(ctx, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}
