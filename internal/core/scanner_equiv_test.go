package core

import (
	"bytes"
	"cmp"
	"context"
	"maps"
	"net/netip"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/faults"
	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/vclock"
)

// TestScanEquivalentAcrossConcurrency pins the determinism contract of
// the sharded pipeline: on a fixed lossless world, the canonical dataset
// bytes (A and S rows), SubnetsTotal, SubnetsSkipped and QueriesSent of
// the worker pool at 1, 4 and 64 workers must be identical to the
// in-order reference driver's, and the bytes must equal the
// RespectScope=false ablation's. Besides the test world's scans,
// scripted inputs pin the work-unit semantics.
func TestScanEquivalentAcrossConcurrency(t *testing.T) {
	w := testWorld(t)
	ctx := context.Background()

	worldScan := func(in scanInput) func() ScanConfig {
		return func() ScanConfig { return scanConfig(w, in.month, in.domain) }
	}
	cases := []struct {
		name  string
		cfg   func() ScanConfig
		check func(t *testing.T, cfg ScanConfig, ds *Dataset) // on the reference run
	}{
		{name: "apr-default", cfg: worldScan(aprDefault)},
		{name: "mar-fallback", cfg: worldScan(marFallback)},
		{
			// A /16 scope spanning two universe prefixes: each prefix is
			// its own work unit with its own scope memo, so each queries
			// its first /24 and skips the rest, whichever worker runs it.
			name: "scope-spans-two-units",
			cfg: func() ScanConfig {
				return scriptedConfig([]string{"10.0.0.0/17", "10.0.128.0/17"},
					map[string]string{"10.0.0.0/16": "192.0.2.1"}, nil)
			},
			check: func(t *testing.T, _ ScanConfig, ds *Dataset) {
				if ds.Stats.QueriesSent != 2 || ds.Stats.SubnetsSkipped != 254 {
					t.Errorf("queries=%d skipped=%d, want 2 and 254 (one query per unit)",
						ds.Stats.QueriesSent, ds.Stats.SubnetsSkipped)
				}
			},
		},
		{
			// The first /24 of a scope times out with no in-pass retry and
			// the next /24 answers with the scope: setting the memo
			// settles the deferred /24, so no second pass re-queries it.
			name: "deferred-then-covered",
			cfg: func() ScanConfig {
				cfg := scriptedConfig([]string{"10.1.0.0/22"},
					map[string]string{"10.1.0.0/22": "192.0.2.2"}, []string{"10.1.0.0/24"})
				cfg.Retries = 0
				cfg.MaxPasses = 3
				return cfg
			},
			check: func(t *testing.T, cfg ScanConfig, ds *Dataset) {
				first := netip.MustParsePrefix("10.1.0.0/24")
				if n := cfg.Exchanger.(*scriptedExchanger).queries[first]; n != 1 {
					t.Errorf("%v queried %d times, want 1", first, n)
				}
				if e := ds.Stats.Ledger[first]; e == nil || !e.Recovered {
					t.Errorf("%v ledger entry = %+v, want a recovered timeout", first, e)
				}
				if ds.Stats.FailedSubnets != 0 || ds.Stats.Passes != 1 {
					t.Errorf("failed=%d passes=%d, want 0 and 1", ds.Stats.FailedSubnets, ds.Stats.Passes)
				}
			},
		},
	}
	for _, c := range cases {
		run := func(conc int, respectScope bool) *Dataset {
			cfg := c.cfg()
			cfg.Concurrency = conc
			cfg.RespectScope = respectScope
			ds, err := Scan(ctx, cfg)
			if err != nil {
				t.Fatalf("%s conc=%d: %v", c.name, conc, err)
			}
			return ds
		}

		cfg := c.cfg()
		base := inOrderScan(t, cfg)
		if base.Stats.SubnetsSkipped == 0 {
			t.Fatalf("%s: reference skipped nothing; the equivalence test would be vacuous", c.name)
		}
		if c.check != nil {
			c.check(t, cfg, base)
		}
		want := canonicalBytes(t, base)
		if ablation := run(8, false); !bytes.Equal(canonicalBytes(t, ablation), want) {
			t.Errorf("%s: canonical dataset differs from the RespectScope=false ablation", c.name)
		}
		for _, conc := range []int{1, 4, 64} {
			ds := run(conc, true)
			if !bytes.Equal(canonicalBytes(t, ds), want) {
				t.Errorf("%s conc=%d: canonical dataset differs from the in-order reference", c.name, conc)
			}
			if ds.Stats.SubnetsTotal != base.Stats.SubnetsTotal {
				t.Errorf("%s conc=%d: SubnetsTotal = %d, want %d", c.name, conc, ds.Stats.SubnetsTotal, base.Stats.SubnetsTotal)
			}
			if ds.Stats.SubnetsSkipped != base.Stats.SubnetsSkipped {
				t.Errorf("%s conc=%d: SubnetsSkipped = %d, want %d", c.name, conc, ds.Stats.SubnetsSkipped, base.Stats.SubnetsSkipped)
			}
			if ds.Stats.QueriesSent != base.Stats.QueriesSent {
				t.Errorf("%s conc=%d: QueriesSent = %d, want %d", c.name, conc, ds.Stats.QueriesSent, base.Stats.QueriesSent)
			}
		}
	}
}

// inOrderScan is the reference driver: it runs cfg's scan through the
// step alone, every /24 in universe order on the calling goroutine — no
// channel, no goroutine, no journal, and no breaker, pacer or backoff
// (the equivalence cases configure none). It keeps the worker pool's
// unit and pass structure, which decide what a scope memo covers: one
// unit per universe prefix, then passes over the deferred /24s in units
// of workBatchSize.
func inOrderScan(t *testing.T, cfg ScanConfig) *Dataset {
	t.Helper()
	cfg.Concurrency = 1
	st, err := newScan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, ctx := st.workers[0], context.Background()
	drive := func(ref subnetRef) {
		if w.covered(ref.p) {
			return
		}
		for inPass := 0; ; inPass++ {
			out := w.step(ctx, ref.p, ref.attempts)
			ref.attempts++
			switch {
			case out == outcomeOK:
				w.publishScopeZero()
				return
			case out == outcomeError:
				w.fr.counters[cTermErrors]++
				return
			case inPass >= st.cfg.Retries:
				w.defer_(ref)
				return
			}
		}
	}

	var idx int64
	for _, p := range cfg.Universe {
		if p.Addr().Is4() {
			w.startUnit()
			iputil.Subnets(p, 24, func(s netip.Prefix) bool {
				drive(subnetRef{p: s, idx: idx})
				idx++
				return true
			})
		}
	}
	passes := int64(1)
	for ; len(w.deferred) > 0 && passes < int64(st.cfg.MaxPasses); passes++ {
		pending := w.deferred
		w.deferred = nil
		for len(pending) > 0 {
			n := min(len(pending), workBatchSize)
			w.startUnit()
			for _, ref := range pending[:n] {
				drive(ref)
			}
			pending = pending[n:]
		}
	}
	w.seal()
	ds, err := st.dataset(w.deferred)
	if err != nil {
		t.Fatal(err)
	}
	ds.Stats.Passes = passes
	return ds
}

// scriptedExchanger is an authoritative stand-in with one fixed answer
// per scope: a query whose ECS subnet falls in a scope gets that scope's
// address, advertised at the scope's length. A subnet listed in timeouts
// times out on its first query. It counts the queries per subnet.
type scriptedExchanger struct {
	scopes   map[netip.Prefix]netip.Addr
	timeouts map[netip.Prefix]bool

	mu      sync.Mutex
	queries map[netip.Prefix]int
}

func (x *scriptedExchanger) Exchange(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	subnet := q.Edns.ClientSubnet.Prefix()
	x.mu.Lock()
	x.queries[subnet]++
	n := x.queries[subnet]
	x.mu.Unlock()
	if n == 1 && x.timeouts[subnet] {
		return nil, dnsserver.ErrTimeout
	}
	resp := &dnswire.Message{
		Header:    dnswire.Header{ID: q.Header.ID, Response: true, Authoritative: true},
		Questions: q.Questions,
	}
	for scope, addr := range x.scopes {
		if scope.Contains(subnet.Addr()) {
			resp.Answers = []dnswire.Record{{Name: q.Questions[0].Name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60, Addr: addr}}
			resp.Edns = &dnswire.EDNS{UDPSize: 1232, ClientSubnet: &dnswire.ClientSubnet{
				SourcePrefixLen: 24, ScopePrefixLen: uint8(scope.Bits()), Addr: subnet.Addr(),
			}}
		}
	}
	return resp, nil
}

// scriptedConfig scans universe against a scriptedExchanger answering
// scopes (scope → answer address), with the first query of each subnet
// in timeouts lost. Universe prefix i is announced by AS 64500+i and
// every answer address by AS 714.
func scriptedConfig(universe []string, scopes map[string]string, timeouts []string) ScanConfig {
	x := &scriptedExchanger{
		scopes:   make(map[netip.Prefix]netip.Addr),
		timeouts: make(map[netip.Prefix]bool),
		queries:  make(map[netip.Prefix]int),
	}
	table := bgp.NewTable()
	for scope, addr := range scopes {
		a := netip.MustParseAddr(addr)
		x.scopes[netip.MustParsePrefix(scope)] = a
		table.Announce(netip.PrefixFrom(a, 24).Masked(), 714)
	}
	for _, p := range timeouts {
		x.timeouts[netip.MustParsePrefix(p)] = true
	}
	var prefixes []netip.Prefix
	for i, p := range universe {
		pfx := netip.MustParsePrefix(p)
		prefixes = append(prefixes, pfx)
		table.Announce(pfx, bgp.ASN(64500+i))
	}
	return ScanConfig{
		Exchanger:    x,
		Domain:       dnsserver.MaskDomain,
		Universe:     prefixes,
		Attribution:  table,
		RespectScope: true,
		Retries:      1,
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
		for i, as := range ds.SrvClient {
			total += ds.SrvCount[i]
			byAS[as] += ds.SrvCount[i]
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
// (address and serving columns) at every worker count must still be
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

// operatorExchanger answers every /24 on its own (scope /24) with one
// address of ops[i], i picked by hashing the subnet, so neighbouring
// /24s of one client route flip between operators.
type operatorExchanger struct{ ops []netip.Addr }

func (x operatorExchanger) pick(subnet netip.Prefix) netip.Addr {
	return x.ops[iputil.Mix(iputil.HashPrefix(subnet), 0x5E27)%uint64(len(x.ops))]
}

func (x operatorExchanger) Exchange(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	subnet := q.Edns.ClientSubnet.Prefix()
	return &dnswire.Message{
		Header:    dnswire.Header{ID: q.Header.ID, Response: true, Authoritative: true},
		Questions: q.Questions,
		Answers:   []dnswire.Record{{Name: q.Questions[0].Name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60, Addr: x.pick(subnet)}},
		Edns: &dnswire.EDNS{UDPSize: 1232, ClientSubnet: &dnswire.ClientSubnet{
			SourcePrefixLen: 24, ScopePrefixLen: 24, Addr: subnet.Addr(),
		}},
	}, nil
}

// TestServingCountersEveryOperator pins the per-client serving counters
// at their widest: one client AS served by every operator the world
// answers with — the ingress operators, the egress-only ASes, and 0 for
// an answer no route covers — must come out, folded across worker
// shards, through the journal's batch deltas and through a resume's
// replay, as exactly the rows a map counted per /24 gives.
func TestServingCountersEveryOperator(t *testing.T) {
	const client bgp.ASN = 64600
	table := bgp.NewTable()
	route := netip.MustParsePrefix("10.0.0.0/16")
	table.Announce(route, client)
	x := operatorExchanger{}
	for i, op := range []bgp.ASN{netsim.ASApple, netsim.ASAkamaiPR, netsim.ASAkamaiEdge, netsim.ASCloudflare, netsim.ASFastly, 0} {
		addr := netip.AddrFrom4([4]byte{byte(100 + i), 1, 2, 3})
		if op != 0 {
			table.Announce(netip.PrefixFrom(addr, 16).Masked(), op)
		}
		x.ops = append(x.ops, addr)
	}
	var universe []netip.Prefix
	iputil.Subnets(route, 20, func(p netip.Prefix) bool {
		universe = append(universe, p)
		return true
	})

	// The map-based count the dense counters must reproduce.
	want := map[bgp.ASN]map[bgp.ASN]int64{client: {}}
	iputil.Subnets(route, 24, func(s netip.Prefix) bool {
		op, _ := table.Index().Origin(x.pick(s))
		want[client][op]++
		return true
	})
	if len(want[client]) != len(x.ops) {
		t.Fatalf("the scripted answers reach %d operators, want all %d", len(want[client]), len(x.ops))
	}
	type row struct {
		client, op bgp.ASN
		n          int64
	}
	var wantRows []row
	for op, n := range want[client] {
		wantRows = append(wantRows, row{client, op, n})
	}
	slices.SortFunc(wantRows, func(a, b row) int { return cmp.Compare(a.op, b.op) })
	rowsOf := func(ds *Dataset) []row {
		var rows []row
		for i := range ds.SrvClient {
			rows = append(rows, row{ds.SrvClient[i], ds.SrvOp[i], ds.SrvCount[i]})
		}
		return rows
	}

	for _, workers := range []int{1, 4, 16} {
		path := filepath.Join(t.TempDir(), "scan.ckpt")
		cfg := ScanConfig{
			Exchanger:    x,
			Domain:       dnsserver.MaskDomain,
			Universe:     universe,
			Attribution:  table,
			RespectScope: true,
			Concurrency:  workers,
			Checkpoint:   &CheckpointConfig{Path: path, Every: 16},
		}
		ds, err := Scan(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := rowsOf(ds); !slices.Equal(got, wantRows) {
			t.Fatalf("workers=%d: serving rows %v, want %v", workers, got, wantRows)
		}
		ck, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.EqualFunc(ck.Serving, want, maps.Equal) {
			t.Fatalf("workers=%d: journalled serving %v, want %v", workers, ck.Serving, want)
		}
		cfg.Checkpoint.Resume = true
		resumed, err := Scan(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if resumed.Stats.ResumedSubnets != 256 || !slices.Equal(rowsOf(resumed), wantRows) {
			t.Fatalf("workers=%d: resume replayed %d /24s, serving rows %v, want 256 and %v",
				workers, resumed.Stats.ResumedSubnets, rowsOf(resumed), wantRows)
		}
	}
}
