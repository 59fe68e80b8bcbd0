//go:build !race

// Allocation-regression tests for the exchange hot path. They are
// excluded from race builds: the race runtime instruments allocations
// and makes testing.AllocsPerRun report instrumentation noise, so CI
// runs these in a separate non-race step (see the chaos job).

package dnsserver

import (
	"context"
	"net/netip"
	"testing"

	"github.com/relay-networks/privaterelay/internal/dnswire"
)

// TestHandleSteadyStateZeroAlloc pins that once the message pool is
// primed, AuthServer.Handle performs zero heap allocations per ECS
// query. Any regression here (a memo map, a stray fmt call, slice
// growth) fails loudly rather than silently costing GC time at the
// 12M-subnet scale.
func TestHandleSteadyStateZeroAlloc(t *testing.T) {
	w, srv := testSetup(t)
	subnet := clientSubnetOf(w, 0)
	from := netip.MustParseAddr("198.51.100.1")
	q := ecsQuery(1, MaskDomain, subnet)
	// Prime the pool with released messages.
	for i := 0; i < 16; i++ {
		dnswire.ReleaseMessage(srv.Handle(q, from))
	}
	avg := testing.AllocsPerRun(500, func() {
		resp := srv.Handle(q, from)
		if resp == nil {
			panic("query dropped")
		}
		dnswire.ReleaseMessage(resp)
	})
	if avg != 0 {
		t.Fatalf("AuthServer.Handle steady state: %.2f allocs/op, want 0", avg)
	}
}

// TestHandleColdZeroAlloc pins the path the product runs: a scan asks
// about every /24 exactly once, so the pin cycles through client /24s
// the server has never been asked about — in all three serving groups —
// and each one must cost zero allocations, like a repeated one.
func TestHandleColdZeroAlloc(t *testing.T) {
	const cold = 4096
	w, srv := testSetup(t)
	from := netip.MustParseAddr("198.51.100.1")
	subnets := clientSlash24s(w)
	// AllocsPerRun makes one warm-up call before the counted runs, and
	// the pool is primed on one more /24 that is never measured.
	if len(subnets) < cold+2 {
		t.Fatalf("world has %d client /24s, need %d", len(subnets), cold+2)
	}
	q := ecsQuery(1, MaskDomain, subnets[cold+1])
	for i := 0; i < 16; i++ {
		dnswire.ReleaseMessage(srv.Handle(q, from))
	}
	i := 0
	avg := testing.AllocsPerRun(cold, func() {
		q.SetECS(subnets[i])
		i++
		resp := srv.Handle(q, from)
		if resp == nil || len(resp.Answers) == 0 {
			panic("client subnet got no answer")
		}
		dnswire.ReleaseMessage(resp)
	})
	if avg != 0 {
		t.Fatalf("Handle across %d never-queried /24s: %.2f allocs/op, want 0", cold, avg)
	}
}

// TestMemTransportExchangeAllocBudget pins the full in-memory exchange
// (transport bookkeeping + Handle) to a small constant. It is the
// scanner's view of one query; the budget leaves no room for a per-op
// message, answer slice or map allocation to sneak back in.
func TestMemTransportExchangeAllocBudget(t *testing.T) {
	const budget = 0 // transport adds nothing on top of Handle
	w, srv := testSetup(t)
	tr := &MemTransport{Handler: srv, Source: netip.MustParseAddr("198.51.100.53")}
	ctx := context.Background()
	q := ecsQuery(1, MaskDomain, clientSubnetOf(w, 0))
	for i := 0; i < 16; i++ {
		resp, err := tr.Exchange(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		dnswire.ReleaseMessage(resp)
	}
	avg := testing.AllocsPerRun(500, func() {
		resp, err := tr.Exchange(ctx, q)
		if err != nil {
			panic(err)
		}
		dnswire.ReleaseMessage(resp)
	})
	if avg > budget {
		t.Fatalf("MemTransport.Exchange: %.2f allocs/op, budget %d", avg, budget)
	}
}
