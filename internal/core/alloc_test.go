//go:build !race

// Allocation-regression pin for the scanner's per-subnet loop. Excluded
// from race builds: the race runtime's allocation instrumentation makes
// testing.AllocsPerRun meaningless, so CI runs this in a separate
// non-race step (see the chaos job).

package core

import (
	"context"
	"net/netip"
	"path/filepath"
	"testing"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/vclock"
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
	cfg.Clock = vclock.WallClock{}

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
		if !worker.processSubnet(ctx, ref) {
			t.Fatal("warm-up subnet did not complete")
		}
	}
	avg := testing.AllocsPerRun(500, func() {
		if !worker.processSubnet(ctx, ref) {
			panic("subnet did not complete")
		}
	})
	if avg > budget {
		t.Fatalf("processSubnet: %.2f allocs/op, budget %d", avg, budget)
	}
}

// TestScanLoopCheckpointedAllocBudget pins the loop relayd actually
// runs — every scan there is checkpointed — per *batch*: 64 subnets
// recorded into the worker's persistent shard, their delta sealed into
// a recycled frame buffer, the frame appended to the journal and group-
// committed (Every = 64, relayd's cadence, so each batch pays its write
// and fsync). Measured: 0 allocs/batch, and no per-batch maps — the
// parent commit allocated a fresh scanShard (three maps) and a done
// slice for every batch before it rewrote the whole snapshot.
func TestScanLoopCheckpointedAllocBudget(t *testing.T) {
	const budget = 0
	w := testWorld(t)
	cfg := scanConfig(w, netsim.MonthApr, dnsserver.MaskDomain)
	cfg.RespectScope = false // query every subnet on every run, as in TestProcessSubnetAllocBudget
	cfg.Clock = vclock.WallClock{}

	idx := cfg.Attribution.Index()
	j, _, err := openJournal(&CheckpointConfig{Path: filepath.Join(t.TempDir(), "scan.ckpt"), Every: workBatchSize},
		dnswire.CanonicalName(cfg.Domain), universeSize(cfg.Universe))
	if err != nil {
		t.Fatal(err)
	}
	defer j.f.Close()
	st := &scanState{
		cfg:     &cfg,
		idx:     idx,
		clock:   cfg.Clock,
		limiter: newTokenBucket(cfg.QPS, cfg.PacerBatch, cfg.Clock),
		breaker: newCircuitBreaker(cfg.Breaker, cfg.Clock),
		journal: j,
	}
	aux := &workerAux{
		origins4: make(map[uint32]bgp.ASN),
		origins:  make(map[netip.Addr]bgp.ASN),
		cursor:   idx.Cursor(),
		delta:    new(journalFrame),
	}
	worker := &scanWorker{st: st, sh: newScanShard(), aux: aux, budget: -1}
	var batch []subnetRef
	for _, route := range cfg.Universe {
		iputil.Subnets(route, 24, func(p netip.Prefix) bool {
			batch = append(batch, subnetRef{p: p, idx: int64(len(batch))})
			return len(batch) < workBatchSize
		})
		if len(batch) == workBatchSize {
			break
		}
	}
	ctx := context.Background()

	var buf []byte
	runBatch := func() {
		for _, ref := range batch {
			if !worker.processSubnet(ctx, ref) {
				panic("subnet did not complete")
			}
			aux.delta.markDone(ref.idx)
		}
		br := worker.sealBatch(buf)
		j.append(br.frame, br.done)
		buf = br.frame
	}
	for i := 0; i < 4; i++ { // prime pools, shard maps, frame and commit buffers
		runBatch()
	}
	syncs := j.syncs
	avg := testing.AllocsPerRun(100, runBatch)
	if j.err != nil {
		t.Fatal(j.err)
	}
	if j.syncs-syncs < 100 {
		t.Fatalf("%d group commits over 100 batches: the loop did not pay its fsyncs", j.syncs-syncs)
	}
	if avg > budget {
		t.Fatalf("checkpointed scan loop: %.2f allocs/batch, budget %d", avg, budget)
	}
}

// clientSubnetPrefix returns the first /24 of client AS i, the same
// shape the universe iterator hands to workers.
func clientSubnetPrefix(w *netsim.World, i int) netip.Prefix {
	p := w.ClientASes[i].Prefixes[0]
	return netip.PrefixFrom(p.Addr(), 24)
}
