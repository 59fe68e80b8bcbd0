//go:build !race

// Allocation-regression pin for the scanner's per-subnet loop. Excluded
// from race builds: the race runtime's allocation instrumentation makes
// testing.AllocsPerRun meaningless, so CI runs this in a separate
// non-race step (see the chaos job).

package core

import (
	"context"
	"net/netip"
	"testing"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/faults"
	"github.com/relay-networks/privaterelay/internal/netsim"
)

// TestProcessSubnetAllocBudget pins the steady-state cost of one
// scanned /24 end to end: breaker admission, pacing, query re-stamping,
// the in-memory exchange, classification and shard accounting. The
// budget is zero — the whole loop runs on reused messages, answers
// synthesized into message-owned storage and preallocated shard maps,
// and this test is what keeps it that way.
func TestProcessSubnetAllocBudget(t *testing.T) {
	const budget = 0
	w := testWorld(t)
	cfg := scanConfig(w, netsim.MonthApr, dnsserver.MaskDomain)
	// Scope-respecting runs would publish the answer scope and then
	// short-circuit repeats of the same subnet before any query; the
	// ablation path exercises the full query loop every iteration.
	cfg.RespectScope = false
	cfg.Clock = faults.WallClock{}

	idx := cfg.Attribution.Index()
	st := &scanState{
		cfg:     &cfg,
		idx:     idx,
		clock:   cfg.Clock,
		limiter: newTokenBucket(cfg.QPS, cfg.PacerBatch, cfg.Clock),
		breaker: newCircuitBreaker(cfg.Breaker, cfg.Clock),
	}
	aux := &workerAux{
		origins4: make(map[uint32]bgp.ASN),
		origins:  make(map[netip.Addr]bgp.ASN),
		cursor:   idx.Cursor(),
	}
	worker := &scanWorker{st: st, sh: newScanShard(), aux: aux, budget: -1}
	ref := subnetRef{p: clientSubnetPrefix(w, 0)}
	ctx := context.Background()

	// Prime the message pool and the shard maps.
	for i := 0; i < 16; i++ {
		if !worker.processSubnet(ctx, worker.sh, ref) {
			t.Fatal("warm-up subnet did not complete")
		}
	}
	avg := testing.AllocsPerRun(500, func() {
		if !worker.processSubnet(ctx, worker.sh, ref) {
			panic("subnet did not complete")
		}
	})
	if avg > budget {
		t.Fatalf("processSubnet: %.2f allocs/op, budget %d", avg, budget)
	}
}

// clientSubnetPrefix returns the first /24 of client AS i, the same
// shape the universe iterator hands to workers.
func clientSubnetPrefix(w *netsim.World, i int) netip.Prefix {
	p := w.ClientASes[i].Prefixes[0]
	return netip.PrefixFrom(p.Addr(), 24)
}
