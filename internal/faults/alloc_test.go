//go:build !race

// Allocation-regression pin for the fault plane. Excluded from race
// builds: the race runtime's allocation instrumentation makes
// testing.AllocsPerRun meaningless, so CI runs this in a separate
// non-race step (see the chaos job).

package faults

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/vclock"
)

// TestInjectorExchangeZeroAlloc pins exchanges through the injector in
// front of the authoritative server to zero allocations, whatever their
// fate: every fault kind, a delayed pass and a clean pass. Injected
// failures are pooled messages that hand their EDNS scratch on to the
// server's next answer, and once the burst window has closed the
// injector no longer reads the clock. A run is a batch of 64 exchanges,
// so a cost that only some fates pay (say, the server re-allocating the
// EDNS scratch a failure dropped) cannot round down to zero.
func TestInjectorExchangeZeroAlloc(t *testing.T) {
	w := netsim.NewWorld(netsim.Params{Seed: 6, Scale: 0.0008})
	inner := &dnsserver.MemTransport{
		Handler: dnsserver.NewAuthServer(w, netsim.MonthApr, nil),
		Source:  netip.MustParseAddr("198.51.100.53"),
	}
	profile := &Profile{
		Seed: 9, Timeout: 0.1, ServFail: 0.1, Refused: 0.1, Truncate: 0.1, Stale: 0.1,
		LatencyRate: 0.2, Latency: time.Millisecond,
		Bursts: []Burst{{Kind: KindServFail, Start: 0, Len: 100 * time.Millisecond}},
	}
	clock := vclock.NewVirtualClock()
	inj := NewInjector(inner, profile, clock, nil)

	var subnets []netip.Prefix
	for _, p := range w.RoutedV4Prefixes() {
		iputil.Subnets(p, 24, func(s netip.Prefix) bool {
			subnets = append(subnets, s)
			return len(subnets) < 512
		})
		if len(subnets) == 512 {
			break
		}
	}
	q := ecsQuery(0, subnets[0].String())
	ctx := context.Background()
	i := 0
	exchange := func() {
		q.Header.ID = uint16(i)
		q.SetECS(subnets[i%len(subnets)])
		i++
		resp, err := inj.Exchange(ctx, q)
		if err != nil && err != dnsserver.ErrTimeout {
			panic(err)
		}
		dnswire.ReleaseMessage(resp)
	}
	// Warm up inside the burst, then past it, priming the message pool.
	for range 64 {
		exchange()
	}
	if n := inj.Stats.ServFails.Load(); n != 64 {
		t.Fatalf("%d of 64 exchanges inside the burst met SERVFAIL", n)
	}
	if err := clock.Sleep(ctx, profile.Bursts[0].Len); err != nil {
		t.Fatal(err)
	}
	for range 1024 {
		exchange()
	}
	if !inj.windowsOver.Load() {
		t.Fatal("the injector still reads the clock after its last window closed")
	}

	before := snapshot(&inj.Stats)
	avg := testing.AllocsPerRun(100, func() {
		for range 64 {
			exchange()
		}
	})
	after := snapshot(&inj.Stats)
	for k, name := range []string{"timeout", "servfail", "refused", "truncate", "stale", "delayed"} {
		if after[k] == before[k] {
			t.Errorf("no %s exchange among the measured runs", name)
		}
	}
	if after[6]-before[6] == after[5]-before[5] {
		t.Error("no undelayed pass among the measured runs")
	}
	if avg != 0 {
		t.Fatalf("Injector.Exchange: %.2f allocs per 64 exchanges, want 0", avg)
	}
}

func snapshot(s *Stats) [7]int64 {
	return [...]int64{
		s.Timeouts.Load(), s.ServFails.Load(), s.Refused.Load(), s.Truncated.Load(),
		s.Stale.Load(), s.Delayed.Load(), s.Passed.Load(),
	}
}
