package scan

import (
	"context"
	"errors"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"github.com/relay-networks/privaterelay/internal/relay"
	"github.com/relay-networks/privaterelay/internal/vclock"
)

// flakyConnector fails every failEvery-th Connect attempt, wrapping the
// real device otherwise.
type flakyConnector struct {
	inner     relay.Connector
	failEvery int64
	n         atomic.Int64
}

var errSynthetic = errors.New("synthetic connect failure")

func (f *flakyConnector) Connect(ctx context.Context) (*relay.Tunnel, error) {
	if f.n.Add(1)%f.failEvery == 0 {
		return nil, errSynthetic
	}
	return f.inner.Connect(ctx)
}

// deadConnector never connects.
type deadConnector struct{ n atomic.Int64 }

func (d *deadConnector) Connect(context.Context) (*relay.Tunnel, error) {
	d.n.Add(1)
	return nil, errSynthetic
}

// TestRunRetriesFlakyTunnelEstablishment: transient connect failures
// must be absorbed by the per-round retry, not surface as Failed rounds.
func TestRunRetriesFlakyTunnelEstablishment(t *testing.T) {
	_, dev, ws, es := testHarness(t)
	fc := &flakyConnector{inner: dev, failEvery: 2}
	obs, err := Run(context.Background(), Config{
		Device: dev, Web: ws, Echo: es, Rounds: 20, Interval: 30 * time.Second,
		Connector: fc,
		Connect:   relay.ConnectRetry{Attempts: 3, Clock: vclock.NewVirtualClock()},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs {
		if o.Failed {
			t.Fatalf("round %d failed (%v) despite retries absorbing a 1-in-2 failure rate",
				o.Round, o.ConnectErr)
		}
		if !o.SafariEgress.IsValid() || !o.CurlEgress.IsValid() {
			t.Fatalf("round %d incomplete: %+v", o.Round, o)
		}
	}
	if fc.n.Load() <= 20 {
		t.Fatalf("connector saw %d attempts for 20 rounds; retries evidently never fired", fc.n.Load())
	}
}

// TestRunDistinguishesFullFailure: a relay that is down for the whole
// scan yields ErrAllRoundsFailed with per-round ConnectErr, not a silent
// slice of zero observations.
func TestRunDistinguishesFullFailure(t *testing.T) {
	_, dev, ws, es := testHarness(t)
	dc := &deadConnector{}
	obs, err := Run(context.Background(), Config{
		Device: dev, Web: ws, Echo: es, Rounds: 5, Interval: 30 * time.Second,
		Connector: dc,
		Connect:   relay.ConnectRetry{Attempts: 2, Clock: vclock.NewVirtualClock()},
	})
	if !errors.Is(err, ErrAllRoundsFailed) {
		t.Fatalf("err = %v, want ErrAllRoundsFailed", err)
	}
	if len(obs) != 5 {
		t.Fatalf("got %d observations, want 5 (failed rounds are still rounds)", len(obs))
	}
	for _, o := range obs {
		if !o.Failed || !errors.Is(o.ConnectErr, errSynthetic) {
			t.Fatalf("round %d: Failed=%v ConnectErr=%v", o.Round, o.Failed, o.ConnectErr)
		}
	}
	if got := dc.n.Load(); got != 10 {
		t.Fatalf("dead connector dialed %d times, want 5 rounds x 2 attempts = 10", got)
	}
	st := Rotation(obs, nil)
	if st.FailedRounds != 5 {
		t.Fatalf("RotationStats.FailedRounds = %d, want 5", st.FailedRounds)
	}
}

// TestConnectWithRetryStopsOnBlocked: service blocking is a state, not a
// fault — no retries.
func TestConnectWithRetryStopsOnBlocked(t *testing.T) {
	blocked := connectorFunc(func(context.Context) (*relay.Tunnel, error) {
		return nil, relay.ErrServiceBlocked
	})
	calls := 0
	counting := connectorFunc(func(ctx context.Context) (*relay.Tunnel, error) {
		calls++
		return blocked(ctx)
	})
	_, err := relay.ConnectWithRetry(context.Background(), counting,
		relay.ConnectRetry{Attempts: 5, Clock: vclock.NewVirtualClock()})
	if !errors.Is(err, relay.ErrServiceBlocked) {
		t.Fatalf("err = %v, want ErrServiceBlocked", err)
	}
	if calls != 1 {
		t.Fatalf("blocked service dialed %d times, want 1", calls)
	}
}

type connectorFunc func(context.Context) (*relay.Tunnel, error)

func (f connectorFunc) Connect(ctx context.Context) (*relay.Tunnel, error) { return f(ctx) }

// TestDominantOperatorEmptySet pins the zero-value fix: no successful
// rounds must report ok=false instead of inventing ASN 0.
func TestDominantOperatorEmptySet(t *testing.T) {
	if as, obs, ok := DominantOperator(nil); ok || as != 0 || obs != nil {
		t.Fatalf("nil set: (%v, %v, %v), want (0, nil, false)", as, obs, ok)
	}
	failed := []Observation{{Round: 0, Failed: true}, {Round: 1, Failed: true}}
	if _, _, ok := DominantOperator(failed); ok {
		t.Fatal("all-failed set reported a dominant operator")
	}
	// Ties break toward the smaller ASN, independent of map order.
	tied := []Observation{
		{Round: 0, Operator: 65002}, {Round: 1, Operator: 65001},
		{Round: 2, Operator: 65002}, {Round: 3, Operator: 65001},
	}
	for i := 0; i < 32; i++ {
		as, filtered, ok := DominantOperator(tied)
		if !ok || as != 65001 || len(filtered) != 2 {
			t.Fatalf("tie broke to (%v, %d obs, %v), want (65001, 2, true)", as, len(filtered), ok)
		}
	}
}

// TestRotationCountsRequestFailures: per-request errors inside
// established rounds surface in the stats instead of vanishing into
// zero-valued addresses.
func TestRotationCountsRequestFailures(t *testing.T) {
	a := netip.MustParseAddr("203.0.113.9")
	obs := []Observation{
		{Round: 0, SafariEgress: a, CurlEgress: a},
		{Round: 1, SafariErr: errors.New("stream reset"), CurlEgress: a},
		{Round: 2, SafariEgress: a, CurlErr: errors.New("bad body")},
		{Round: 3, Failed: true},
	}
	if !obs[1].PartialFailure() || !obs[2].PartialFailure() {
		t.Fatal("rounds with one lost request must report PartialFailure")
	}
	if obs[0].PartialFailure() || obs[3].PartialFailure() {
		t.Fatal("clean and fully-failed rounds are not partial failures")
	}
	st := Rotation(obs, nil)
	if st.SafariFailures != 1 || st.CurlFailures != 1 || st.FailedRounds != 1 {
		t.Fatalf("failure counters (safari=%d curl=%d rounds=%d), want 1/1/1",
			st.SafariFailures, st.CurlFailures, st.FailedRounds)
	}
}
