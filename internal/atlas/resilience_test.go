package atlas

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/faults"
	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/vclock"
)

var errBrokenPath = errors.New("synthetic transport fault")

// brokenPath is a hard-failure transport: exchanges whose query key
// hashes into the broken slice error out. The fate is a pure function of
// the query (ECS subnet, or name⊕ID without one), so it is identical at
// any worker count and on every retry — the deterministic analogue of a
// dead resolver site.
type brokenPath struct {
	inner dnsserver.Exchanger
	mod   uint64
	hits  atomic.Int64
}

func (b *brokenPath) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	var key uint64
	if q.Edns != nil && q.Edns.ClientSubnet != nil {
		key = iputil.HashPrefix(q.Edns.ClientSubnet.Prefix())
	} else if len(q.Questions) > 0 {
		key = iputil.HashString(q.Questions[0].Name) ^ uint64(q.Header.ID)
	}
	if key%b.mod == 0 {
		b.hits.Add(1)
		return nil, errBrokenPath
	}
	return b.inner.Exchange(ctx, q)
}

var (
	faultyWorld     *netsim.World
	faultyWorldOnce sync.Once
)

// faultyPopulation builds a small population whose probe-facing
// transports all run through wrap (sharing one world across tests).
func faultyPopulation(t testing.TB, wrap func(dnsserver.Exchanger) dnsserver.Exchanger) *Population {
	t.Helper()
	faultyWorldOnce.Do(func() {
		faultyWorld = netsim.NewWorld(netsim.Params{Seed: 11, Scale: 0.0008})
	})
	return NewPopulation(faultyWorld, netsim.MonthApr, Config{
		Seed: 11, N: 800, SubnetClusters: 300, WrapTransport: wrap,
	})
}

// TestCampaignToleratesInjectedFaults runs an A campaign through the
// fault-injection plane: the campaign must complete every probe, with
// injected timeouts surfacing as TimedOut results rather than aborting
// the pool, and the outcome buckets partitioning the population.
func TestCampaignToleratesInjectedFaults(t *testing.T) {
	profile := &faults.Profile{Seed: 7, Timeout: 0.15, ServFail: 0.10}
	var injectors []*faults.Injector
	pop := faultyPopulation(t, func(e dnsserver.Exchanger) dnsserver.Exchanger {
		inj := faults.NewInjector(e, profile, vclock.NewVirtualClock(), nil)
		injectors = append(injectors, inj)
		return inj
	})
	results, err := Campaign{Domain: dnsserver.MaskDomain, Type: dnswire.TypeA}.Run(context.Background(), pop)
	if err != nil {
		t.Fatal(err)
	}
	c := Summarize(results)
	if c.Probes != len(pop.Probes) || c.Answered+c.TimedOut+c.Errored != c.Probes {
		t.Fatalf("completeness buckets do not partition the population: %+v", c)
	}
	if c.Errored != 0 {
		t.Fatalf("injected DNS faults must classify as timeouts/RCodes, not hard errors: %+v", c)
	}
	var injected int64
	for _, inj := range injectors {
		injected += inj.Stats.Total()
	}
	if injected == 0 {
		t.Fatal("fault plane injected nothing; the test exercised a clean path")
	}
	// Injected timeouts ride on top of the population's own
	// timeout-prone share, so the bucket must exceed it.
	prone := 0
	for _, p := range pop.Probes {
		if p.TimeoutProne {
			prone++
		}
	}
	if c.TimedOut <= prone {
		t.Fatalf("TimedOut = %d not above the %d timeout-prone probes; injected timeouts vanished", c.TimedOut, prone)
	}
	servfails := 0
	for _, r := range results {
		if r.RCode == dnswire.RCodeServFail {
			servfails++
		}
	}
	if servfails == 0 {
		t.Fatal("no probe surfaced an injected SERVFAIL")
	}
}

// TestCampaignSurvivesHardTransportErrors: hard per-probe failures land
// in MeasurementResult.Err and the rest of the survey completes — and
// the outcome is bit-identical at any worker count.
func TestCampaignSurvivesHardTransportErrors(t *testing.T) {
	run := func(workers int) ([]MeasurementResult, int) {
		pop := faultyPopulation(t, func(e dnsserver.Exchanger) dnsserver.Exchanger {
			return &brokenPath{inner: e, mod: 4}
		})
		results, err := Campaign{Domain: dnsserver.MaskDomain, Type: dnswire.TypeA, Workers: workers}.Run(context.Background(), pop)
		if err != nil {
			t.Fatal(err)
		}
		return results, len(pop.Probes)
	}

	results, n := run(8)
	c := Summarize(results)
	if c.Probes != n || c.Answered+c.TimedOut+c.Errored != n {
		t.Fatalf("completeness buckets do not partition the population: %+v", c)
	}
	if c.Errored == 0 {
		t.Fatal("no probe errored; the broken path was never hit")
	}
	if c.Answered == 0 {
		t.Fatal("every probe errored; the pool fail-fasted instead of surviving")
	}
	if c.Complete() {
		t.Fatalf("Complete() = true with %d errored probes", c.Errored)
	}
	for _, r := range results {
		if r.Err != nil && (len(r.Addrs) > 0 || r.TimedOut) {
			t.Fatalf("probe %d carries both an error and an outcome: %+v", r.ProbeID, r)
		}
	}

	serial, _ := run(1)
	if !reflect.DeepEqual(results, serial) {
		t.Fatal("results differ between 8 workers and serial under hard faults")
	}
}

// TestBlockingStudyClassifiesHardErrors: broken transports are
// brokenness, not blocking — they must not inflate the blocked share.
func TestBlockingStudyClassifiesHardErrors(t *testing.T) {
	pop := faultyPopulation(t, func(e dnsserver.Exchanger) dnsserver.Exchanger {
		return &brokenPath{inner: e, mod: 5}
	})
	report, err := BlockingStudy(context.Background(), pop)
	if err != nil {
		t.Fatal(err)
	}
	if report.Errored == 0 {
		t.Fatal("blocking report saw no errored probes despite the broken path")
	}
	clean := faultyPopulation(t, nil)
	base, err := BlockingStudy(context.Background(), clean)
	if err != nil {
		t.Fatal(err)
	}
	if report.Blocked > base.Blocked {
		t.Fatalf("hard errors inflated blocking: %d blocked with faults vs %d without", report.Blocked, base.Blocked)
	}
}

// TestRunDirectSurvivesHardTransportErrors covers the resolver-less
// path: direct measurements wrap their per-probe transport too.
func TestRunDirectSurvivesHardTransportErrors(t *testing.T) {
	pop := faultyPopulation(t, func(e dnsserver.Exchanger) dnsserver.Exchanger {
		return &brokenPath{inner: e, mod: 6}
	})
	results, err := Campaign{Domain: dnsserver.MaskDomain, Type: dnswire.TypeAAAA}.RunDirect(context.Background(), pop)
	if err != nil {
		t.Fatal(err)
	}
	c := Summarize(results)
	if c.Errored == 0 || c.Answered == 0 {
		t.Fatalf("direct campaign should mix errors and answers, got %+v", c)
	}
	for _, r := range results {
		if r.Err != nil && !errors.Is(r.Err, errBrokenPath) {
			t.Fatalf("probe %d recorded an unexpected error: %v", r.ProbeID, r.Err)
		}
	}
}

// TestCampaignCancellationStopsPool: context cancellation is the one
// error that still stops a campaign, and it is reported as such rather
// than attributed to probes.
func TestCampaignCancellationStopsPool(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n atomic.Int64
	pop := faultyPopulation(t, func(e dnsserver.Exchanger) dnsserver.Exchanger {
		return exchangerFunc(func(c context.Context, q *dnswire.Message) (*dnswire.Message, error) {
			if n.Add(1) == 10 {
				cancel()
			}
			return e.Exchange(c, q)
		})
	})
	results, err := Campaign{Domain: dnsserver.MaskDomain, Type: dnswire.TypeA}.Run(ctx, pop)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			t.Fatalf("probe %d charged with the campaign's cancellation", r.ProbeID)
		}
	}
}

type exchangerFunc func(context.Context, *dnswire.Message) (*dnswire.Message, error)

func (f exchangerFunc) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	return f(ctx, q)
}
