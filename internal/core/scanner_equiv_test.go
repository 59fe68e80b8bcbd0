package core

import (
	"bytes"
	"context"
	"maps"
	"sync"
	"testing"
	"time"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/faults"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/vclock"
)

// TestScanEquivalentAcrossConcurrency pins the determinism contract of
// the sharded pipeline: on a fixed lossless world, the canonical dataset
// bytes (A and S rows), SubnetsTotal and SubnetsSkipped must be identical
// whether the scan runs sequentially or on 64 workers. Only QueriesSent
// may differ (a racing worker can query a subnet its covering scope was
// about to suppress).
func TestScanEquivalentAcrossConcurrency(t *testing.T) {
	w := testWorld(t)
	ctx := context.Background()

	for _, in := range []scanInput{aprDefault, marFallback} {
		run := func(conc int) *Dataset {
			cfg := scanConfig(w, in.month, in.domain)
			cfg.Concurrency = conc
			ds, err := Scan(ctx, cfg)
			if err != nil {
				t.Fatalf("%v conc=%d: %v", in.month, conc, err)
			}
			return ds
		}

		base := run(1)
		if base.Stats.SubnetsSkipped == 0 {
			t.Fatalf("%v: baseline skipped nothing; the equivalence test would be vacuous", in.month)
		}
		want := canonicalBytes(t, base)
		for _, conc := range []int{8, 64} {
			ds := run(conc)
			if !bytes.Equal(canonicalBytes(t, ds), want) {
				t.Errorf("%v conc=%d: canonical dataset differs from sequential baseline", in.month, conc)
			}
			if ds.Stats.SubnetsTotal != base.Stats.SubnetsTotal {
				t.Errorf("%v conc=%d: SubnetsTotal = %d, want %d", in.month, conc, ds.Stats.SubnetsTotal, base.Stats.SubnetsTotal)
			}
			if ds.Stats.SubnetsSkipped != base.Stats.SubnetsSkipped {
				t.Errorf("%v conc=%d: SubnetsSkipped = %d, want %d", in.month, conc, ds.Stats.SubnetsSkipped, base.Stats.SubnetsSkipped)
			}
		}
	}
}

// TestScanServingCoversUniverse is the regression test for the skipped-
// subnet accounting: when every client /24 is answered, each one must be
// accounted to its client AS exactly once — whether it was queried
// directly or suppressed by a covering scope. The scope-respecting scan
// must also produce the very same per-AS breakdown as the naive
// full-iteration ablation.
func TestScanServingCoversUniverse(t *testing.T) {
	w := testWorld(t)
	ctx := context.Background()
	want := int64(w.ClientSlash24Count())

	perAS := make(map[bool]map[bgp.ASN]int64)
	for _, respect := range []bool{true, false} {
		cfg := scanConfig(w, netsim.MonthApr, dnsserver.MaskDomain)
		cfg.RespectScope = respect
		ds, err := Scan(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		byAS := make(map[bgp.ASN]int64)
		for as, st := range ds.Serving {
			total += st.TotalSubnets()
			byAS[as] = st.TotalSubnets()
		}
		if total != want {
			t.Errorf("respectScope=%v: serving accounts %d /24s, universe has %d client /24s",
				respect, total, want)
		}
		perAS[respect] = byAS
	}
	if !maps.Equal(perAS[true], perAS[false]) {
		t.Error("scope skip changed the per-AS serving breakdown vs the naive scan")
	}
}

// TestScanEquivalentAcrossConcurrencyFaulted extends the determinism
// contract through the fault plane: with the full resilience stack and
// a fault-injecting transport on a virtual clock, the canonical dataset
// (Addresses + Serving) at every worker count must still be
// byte-identical to the sequential fault-free baseline once all subnets
// recover — faults and concurrency change the path, never the dataset.
func TestScanEquivalentAcrossConcurrencyFaulted(t *testing.T) {
	w := testWorld(t)
	ctx := context.Background()
	want := faultFreeBaseline(t, w, aprDefault)

	profile, err := faults.Parse("mild,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	for _, conc := range []int{1, 8, 64} {
		cfg, _, _ := resilientConfig(w, aprDefault, profile, conc)
		ds, err := Scan(ctx, cfg)
		if err != nil {
			t.Fatalf("conc=%d: %v", conc, err)
		}
		if ds.Stats.FailedSubnets != 0 {
			t.Fatalf("conc=%d: %d unrecovered subnets; equivalence needs full recovery", conc, ds.Stats.FailedSubnets)
		}
		if got := canonicalBytes(t, ds); !bytes.Equal(got, want) {
			t.Errorf("conc=%d: faulted canonical dataset differs from fault-free sequential baseline", conc)
		}
	}
}

// TestTokenBucketPacing checks the lock-free pacer: n permits at rate qps
// cannot complete faster than (n-1)/qps even when drawn concurrently, and
// a zero-rate bucket never blocks. Covered at tranche sizes 1 and 16:
// batching pre-books slots but still sleeps each one to its time, so the
// rate floor is identical.
func TestTokenBucketPacing(t *testing.T) {
	const qps, permits = 2000.0, 40
	ctx := context.Background()
	for _, batch := range []int{1, 16} {
		tb := newTokenBucket(qps, batch, vclock.WallClock{})
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var g pacerGrant
				for j := 0; j < permits/4; j++ {
					tb.wait(ctx, &g)
				}
				tb.release(&g)
			}()
		}
		wg.Wait()
		minElapsed := time.Duration(float64(permits-1) / qps * float64(time.Second))
		if elapsed := time.Since(start); elapsed < minElapsed {
			t.Fatalf("batch=%d: %d permits at %.0f qps finished in %v, want >= %v", batch, permits, qps, elapsed, minElapsed)
		}
	}

	unlimited := newTokenBucket(0, 1, vclock.WallClock{})
	var g pacerGrant
	done := time.Now()
	for i := 0; i < 1000; i++ {
		unlimited.wait(ctx, &g)
	}
	if time.Since(done) > 100*time.Millisecond {
		t.Fatal("unlimited bucket blocked")
	}
}

// frozenClock never advances and never sleeps. With time pinned at the
// epoch the pacer can never take the now-past-next catch-up branch, so
// its next timestamp advances by exactly one interval per consumed slot
// — which is what makes exact grant conservation checkable.
type frozenClock struct{}

func (frozenClock) Now() time.Time                                   { return time.Unix(0, 0) }
func (frozenClock) Sleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

// TestTokenBucketGrantConservation proves batched grants neither leak
// nor lose send slots: for every tranche size, after n waits spread over
// racing workers plus a release of each worker's leftover, the bucket's
// booked timeline equals exactly n intervals — total grants == total
// sends, under -race.
func TestTokenBucketGrantConservation(t *testing.T) {
	const qps = 1000.0
	const workers = 4
	// Deliberately not a multiple of the larger tranche sizes, so every
	// worker ends the run with leftover slots to hand back.
	const sendsPerWorker = 101
	ctx := context.Background()
	for _, batch := range []int{1, 16, 256} {
		tb := newTokenBucket(qps, batch, frozenClock{})
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var g pacerGrant
				for j := 0; j < sendsPerWorker; j++ {
					tb.wait(ctx, &g)
				}
				tb.release(&g)
			}()
		}
		wg.Wait()
		wantNext := int64(workers*sendsPerWorker) * tb.interval
		if got := tb.next.Load(); got != wantNext {
			t.Errorf("batch=%d: booked timeline = %d ns (%d slots), want %d ns (%d slots)",
				batch, got, got/tb.interval, wantNext, workers*sendsPerWorker)
		}
	}
}
