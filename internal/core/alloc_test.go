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
	"runtime"
	"testing"

	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/faults"
	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/vclock"
)

// oneWorker readies cfg's scan at one worker and returns that worker,
// for driving the step and the driver by hand.
func oneWorker(t *testing.T, cfg ScanConfig) *scanWorker {
	t.Helper()
	cfg.Concurrency = 1
	st, err := newScan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st.workers[0]
}

// TestScanStepAllocBudget pins the steady-state cost of one scanned /24
// end to end: the driver's breaker admission and pacing, the step's
// query re-stamping, in-memory exchange, classification and recording
// into the batch frame, and the seal that folds the frame into the
// shard. The budget is zero — the whole loop runs on reused messages,
// answers synthesized into message-owned storage, a reused frame and
// preallocated shard maps, and this test is what keeps it that way.
func TestScanStepAllocBudget(t *testing.T) {
	const budget = 0
	w := testWorld(t)
	cfg := scanConfig(w, netsim.MonthApr, dnsserver.MaskDomain)
	// Scope-respecting runs would publish the answer scope and then
	// short-circuit repeats of the same subnet before any query; the
	// ablation path exercises the full query loop every iteration.
	cfg.RespectScope = false
	cfg.Clock = vclock.WallClock{}
	worker := oneWorker(t, cfg)
	ref := subnetRef{p: clientSubnetPrefix(w, 0)}
	ctx := context.Background()

	// Prime the message pool, the frame and the shard maps.
	for i := 0; i < 16; i++ {
		if !worker.drive(ctx, ref) {
			t.Fatal("warm-up subnet did not complete")
		}
		worker.seal()
	}
	avg := testing.AllocsPerRun(500, func() {
		if !worker.drive(ctx, ref) {
			panic("subnet did not complete")
		}
		worker.seal()
	})
	if avg > budget {
		t.Fatalf("scan step: %.2f allocs/op, budget %d", avg, budget)
	}
}

// TestScanStepFaultedAllocBudget pins the same loop under the harsh
// fault profile, on the path a faulted scan takes: fresh /24s, each run
// a sealed batch of 64, through the injector with the resilience stack
// (retries, backoff, breaker) on a virtual clock. Failure responses are
// pooled and ledger entries are carved from the shard's chunks, so a
// fault costs no allocation; a new chunk every 256 runs of faults
// stays, amortized, under one allocation per batch.
func TestScanStepFaultedAllocBudget(t *testing.T) {
	const budget = 0
	profile, err := faults.Parse("harsh,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	cfg, inj, _ := resilientConfig(testWorld(t), aprDefault, profile, 1)
	cfg.RespectScope = false // query every subnet, as in TestScanStepAllocBudget
	worker := oneWorker(t, cfg)
	const warm, runs = 16, 100
	var refs []subnetRef
	const need = (warm + runs + 1) * workBatchSize // AllocsPerRun adds one warm-up run
	for _, route := range cfg.Universe {
		iputil.Subnets(route, 24, func(p netip.Prefix) bool {
			refs = append(refs, subnetRef{p: p, idx: int64(len(refs))})
			return len(refs) < need
		})
		if len(refs) == need {
			break
		}
	}
	if len(refs) < need {
		t.Fatalf("universe has %d /24s, need %d", len(refs), need)
	}
	ctx := context.Background()
	runBatch := func() {
		for _, ref := range refs[:workBatchSize] {
			worker.drive(ctx, ref)
		}
		worker.seal()
		refs = refs[workBatchSize:]
		worker.deferred = worker.deferred[:0]
	}
	for range warm { // prime the message pool, the frame, the shard maps and the slab
		runBatch()
	}
	faulted := inj.Stats.Total()
	avg := testing.AllocsPerRun(runs, runBatch)
	if faulted = inj.Stats.Total() - faulted; faulted < runs*workBatchSize/10 {
		t.Fatalf("%d faults over %d subnets: the profile did not bite", faulted, runs*workBatchSize)
	}
	if avg > budget {
		t.Fatalf("faulted scan step: %.2f allocs per %d /24s (%d faults over the runs), budget %d",
			avg, workBatchSize, faulted, budget)
	}
}

// TestScanLoopCheckpointedAllocBudget pins the loop relayd actually
// runs — every scan there is checkpointed — per *batch*: 64 subnets
// recorded into the batch frame, the frame sealed into a recycled
// buffer and folded into the worker's shard, the buffer appended to the
// journal and group-committed (Every = 64, so each batch pays its write
// and fsync). Measured: 0 allocs/batch.
func TestScanLoopCheckpointedAllocBudget(t *testing.T) {
	const budget = 0
	w := testWorld(t)
	cfg := scanConfig(w, netsim.MonthApr, dnsserver.MaskDomain)
	cfg.RespectScope = false // query every subnet on every run, as in TestScanStepAllocBudget
	cfg.Clock = vclock.WallClock{}
	worker := oneWorker(t, cfg)

	j, _, err := openJournal(&CheckpointConfig{Path: filepath.Join(t.TempDir(), "scan.ckpt"), Every: workBatchSize},
		dnswire.CanonicalName(cfg.Domain), universeSize(cfg.Universe))
	if err != nil {
		t.Fatal(err)
	}
	defer j.f.Close()
	worker.st.journal = j
	results, frameFree := make(chan batchResult, 1), make(chan []byte, 1)
	worker.results, worker.frameFree = results, frameFree
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

	runBatch := func() {
		for _, ref := range batch {
			if !worker.drive(ctx, ref) {
				panic("subnet did not complete")
			}
			worker.fr.markDone(ref.idx)
		}
		worker.seal()
		br := <-results
		j.append(br.frame, br.done)
		frameFree <- br.frame
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

// TestScanAllocBytesLinearAllocBudget pins that a scan's heap traffic
// grows linearly with the universe: bytes allocated by a sequential Scan
// at two world scales about 4× apart may grow by at most twice the /24
// ratio. A scope index rebuilt per new scope grows with scopes², which
// is what this catches before a paper-scale scan pays for it.
func TestScanAllocBytesLinearAllocBudget(t *testing.T) {
	const slack = 2.0
	measure := func(scale float64) (bytes, subnets float64) {
		w := netsim.NewWorld(netsim.Params{Seed: 6, Scale: scale})
		cfg := scanConfig(w, netsim.MonthApr, dnsserver.MaskDomain)
		cfg.Concurrency = 1
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ds, err := Scan(context.Background(), cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return float64(after.TotalAlloc - before.TotalAlloc), float64(ds.Stats.SubnetsTotal)
	}
	smallBytes, smallSubnets := measure(0.01)
	largeBytes, largeSubnets := measure(0.04)
	bytesRatio, subnetRatio := largeBytes/smallBytes, largeSubnets/smallSubnets
	t.Logf("%.0f → %.0f /24s (%.2fx): %.2f → %.2f MB allocated (%.2fx)",
		smallSubnets, largeSubnets, subnetRatio, smallBytes/1e6, largeBytes/1e6, bytesRatio)
	if bytesRatio > slack*subnetRatio {
		t.Fatalf("allocated bytes grew %.2fx for %.2fx the /24s, budget %.0fx the /24 ratio",
			bytesRatio, subnetRatio, slack)
	}
}

// clientSubnetPrefix returns the first /24 of client AS i, the same
// shape the universe iterator hands to workers.
func clientSubnetPrefix(w *netsim.World, i int) netip.Prefix {
	p := w.ClientASes[i].Prefixes[0]
	return netip.PrefixFrom(p.Addr(), 24)
}
