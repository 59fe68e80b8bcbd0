package core

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/faults"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/vclock"
)

// The chaos suite: the full ECS scan pushed through the fault-injection
// plane must converge to the byte-identical canonical dataset a
// fault-free scan produces — faults change the path, never the result —
// and a scan killed mid-flight must resume from its checkpoint to the
// same bytes.

// chaosProfiles is the sweep matrix: at least two distinct profiles,
// distinct seeds, exercised at worker counts 1 and 8.
func chaosProfiles(t *testing.T) map[string]*faults.Profile {
	t.Helper()
	specs := map[string]string{
		"mild-seed3":  "mild,seed=3",
		"harsh-seed1": "harsh",
		"harsh-seed7": "harsh,seed=7",
	}
	out := make(map[string]*faults.Profile, len(specs))
	for name, spec := range specs {
		p, err := faults.Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		out[name] = p
	}
	return out
}

// scanInput names one scan the equivalence and resume suites run.
type scanInput struct {
	month  bgp.Month
	domain string
}

var (
	aprDefault = scanInput{netsim.MonthApr, dnsserver.MaskDomain}
	// marFallback is the scan whose operator is decided by the March
	// fallback ramp: the one month and plane where two /24s of a
	// single-operator AS can be served by different operators, so the
	// S rows only come out the same at every worker count and across a
	// resume if the operator is constant inside each advertised scope.
	marFallback = scanInput{netsim.MonthMar, dnsserver.MaskH2Domain}
)

// resilientConfig wires a scan config through a fresh injector on a
// virtual clock, with the full resilience stack enabled.
func resilientConfig(w *netsim.World, in scanInput, profile *faults.Profile, workers int) (ScanConfig, *faults.Injector, *vclock.VirtualClock) {
	clock := vclock.NewVirtualClock()
	cfg := scanConfig(w, in.month, in.domain)
	cfg.Concurrency = workers
	cfg.Retries = 4
	cfg.MaxPasses = 10
	cfg.Backoff = BackoffConfig{Base: 50 * time.Millisecond}
	cfg.Breaker = BreakerConfig{Threshold: 16, Cooldown: 2 * time.Second}
	cfg.Clock = clock
	attr := w.Table.Snapshot()
	origin := func(a netip.Addr) (bgp.ASN, bool) { return attr.Origin(a) }
	inj := faults.NewInjector(cfg.Exchanger, profile, clock, origin)
	cfg.Exchanger = inj
	return cfg, inj, clock
}

func canonicalBytes(t *testing.T, ds *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteCanonical(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func faultFreeBaseline(t *testing.T, w *netsim.World, in scanInput) []byte {
	t.Helper()
	ds, err := Scan(context.Background(), scanConfig(w, in.month, in.domain))
	if err != nil {
		t.Fatal(err)
	}
	return canonicalBytes(t, ds)
}

func TestScanChaosConvergesToFaultFreeDataset(t *testing.T) {
	w := testWorld(t)
	want := faultFreeBaseline(t, w, aprDefault)

	for name, profile := range chaosProfiles(t) {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				cfg, inj, _ := resilientConfig(w, aprDefault, profile, workers)
				ds, err := Scan(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}

				// 100 % coverage: every /24 in the universe recovered.
				if ds.Stats.FailedSubnets != 0 {
					t.Fatalf("%d subnets unrecovered after %d passes (deferrals=%d trips=%d)",
						ds.Stats.FailedSubnets, ds.Stats.Passes,
						ds.Stats.Deferrals, ds.Stats.BreakerTrips)
				}
				// Convergence: the dataset is byte-identical to fault-free.
				if got := canonicalBytes(t, ds); !bytes.Equal(got, want) {
					t.Fatalf("canonical dataset differs from fault-free baseline (%d vs %d bytes)",
						len(got), len(want))
				}
				// The profile must have actually hurt.
				if inj.Stats.Total() == 0 {
					t.Fatal("profile injected nothing; the run proves nothing")
				}

				// Accounting identity: every injected fault was observed,
				// classified and survived exactly once.
				checks := []struct {
					kind     string
					injected int64
					observed int64
				}{
					{"timeout", inj.Stats.Timeouts.Load(), ds.Stats.TimeoutAttempts},
					{"servfail", inj.Stats.ServFails.Load(), ds.Stats.ServFailAttempts},
					{"refused", inj.Stats.Refused.Load(), ds.Stats.RefusedAttempts},
					{"truncate", inj.Stats.Truncated.Load(), ds.Stats.TruncatedAttempts},
					{"stale", inj.Stats.Stale.Load(), ds.Stats.StaleAttempts},
				}
				for _, c := range checks {
					if c.injected != c.observed {
						t.Errorf("%s: injected %d, scanner observed %d", c.kind, c.injected, c.observed)
					}
				}
				if inj.Stats.Total() != ds.Stats.FaultAttempts() {
					t.Errorf("injected %d faults total, scanner observed %d",
						inj.Stats.Total(), ds.Stats.FaultAttempts())
				}

				// The ledger is the same story per subnet: its per-kind sums
				// must re-add to the attempt counters, and every entry
				// recovered.
				var lt, lsf, lr, ltr, lst int64
				for _, e := range ds.Stats.Ledger {
					lt += int64(e.Timeouts)
					lsf += int64(e.ServFails)
					lr += int64(e.Refused)
					ltr += int64(e.Truncated)
					lst += int64(e.Stale)
					if !e.Recovered {
						t.Errorf("ledger entry %v unrecovered in a fully converged scan", e.Subnet)
					}
				}
				if lt != ds.Stats.TimeoutAttempts || lsf != ds.Stats.ServFailAttempts ||
					lr != ds.Stats.RefusedAttempts || ltr != ds.Stats.TruncatedAttempts ||
					lst != ds.Stats.StaleAttempts {
					t.Errorf("ledger sums (%d,%d,%d,%d,%d) disagree with attempt counters (%d,%d,%d,%d,%d)",
						lt, lsf, lr, ltr, lst,
						ds.Stats.TimeoutAttempts, ds.Stats.ServFailAttempts, ds.Stats.RefusedAttempts,
						ds.Stats.TruncatedAttempts, ds.Stats.StaleAttempts)
				}
			})
		}
	}
}

// killSwitch cancels the scan's context after a fixed number of
// exchanges — a deterministic stand-in for kill -9 at an arbitrary
// point mid-scan.
type killSwitch struct {
	inner  dnsserver.Exchanger
	after  int64
	n      atomic.Int64
	cancel context.CancelFunc
}

func (k *killSwitch) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	if k.n.Add(1) == k.after {
		k.cancel()
	}
	return k.inner.Exchange(ctx, q)
}

func TestScanCheckpointResumeBitIdentical(t *testing.T) {
	w := testWorld(t)
	for _, in := range []scanInput{aprDefault, marFallback} {
		want := faultFreeBaseline(t, w, in)
		for name, profile := range chaosProfiles(t) {
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("%v/%s/workers=%d", in.month, name, workers), func(t *testing.T) {
					path := filepath.Join(t.TempDir(), "scan.ckpt")

					// Phase 1: run under faults, kill mid-scan.
					cfg, _, _ := resilientConfig(w, in, profile, workers)
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					cfg.Exchanger = &killSwitch{inner: cfg.Exchanger, after: 2000, cancel: cancel}
					cfg.Checkpoint = &CheckpointConfig{Path: path, Every: 256}
					if _, err := Scan(ctx, cfg); err == nil {
						t.Fatal("killed scan returned no error")
					}

					ck, err := LoadCheckpoint(path)
					if err != nil {
						t.Fatal(err)
					}
					var done int64
					for _, r := range ck.DoneRanges {
						done += r[1] - r[0] + 1
					}
					if done == 0 || done >= ck.UniverseTotal {
						t.Fatalf("kill left %d/%d subnets done; want a genuine partial", done, ck.UniverseTotal)
					}

					// Phase 2: resume with a fresh injector under the same
					// profile; the result must be byte-identical to an
					// uninterrupted fault-free scan.
					cfg2, _, _ := resilientConfig(w, in, profile, workers)
					cfg2.Checkpoint = &CheckpointConfig{Path: path, Every: 256, Resume: true}
					ds, err := Scan(context.Background(), cfg2)
					if err != nil {
						t.Fatal(err)
					}
					if ds.Stats.ResumedSubnets == 0 {
						t.Fatal("resume skipped nothing despite a partial checkpoint")
					}
					if ds.Stats.FailedSubnets != 0 {
						t.Fatalf("%d subnets unrecovered after resume", ds.Stats.FailedSubnets)
					}
					if got := canonicalBytes(t, ds); !bytes.Equal(got, want) {
						t.Fatalf("resumed dataset differs from uninterrupted baseline (%d vs %d bytes)",
							len(got), len(want))
					}

					// Phase 3: resuming a *finished* checkpoint is a no-op read.
					cfg3, inj3, _ := resilientConfig(w, in, profile, workers)
					cfg3.Checkpoint = &CheckpointConfig{Path: path, Resume: true}
					ds3, err := Scan(context.Background(), cfg3)
					if err != nil {
						t.Fatal(err)
					}
					if ds3.Stats.ResumedSubnets != ds3.Stats.SubnetsTotal {
						t.Fatalf("finished checkpoint resumed %d of %d subnets",
							ds3.Stats.ResumedSubnets, ds3.Stats.SubnetsTotal)
					}
					if inj3.Stats.Passed.Load()+inj3.Stats.Total() != 0 {
						t.Fatal("resuming a finished scan still sent queries")
					}
					if got := canonicalBytes(t, ds3); !bytes.Equal(got, want) {
						t.Fatal("no-op resume changed the dataset")
					}
				})
			}
		}
	}
}

// TestScanCheckpointCollectorMatchesFastPath pins the two accumulation
// paths to each other: a fault-free checkpointed scan (per-batch minis
// through the collector) must produce the same canonical bytes as the
// contention-free fast path.
func TestScanCheckpointCollectorMatchesFastPath(t *testing.T) {
	w := testWorld(t)
	want := faultFreeBaseline(t, w, aprDefault)

	cfg := scanConfig(w, netsim.MonthApr, dnsserver.MaskDomain)
	cfg.Checkpoint = &CheckpointConfig{Path: filepath.Join(t.TempDir(), "scan.ckpt"), Every: 512}
	ds, err := Scan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalBytes(t, ds); !bytes.Equal(got, want) {
		t.Fatal("collector path dataset differs from fast path")
	}
}

// TestScanCheckpointRejectsMismatch: resuming against the wrong domain
// must fail loudly instead of silently merging two scans.
func TestScanCheckpointRejectsMismatch(t *testing.T) {
	w := testWorld(t)
	path := filepath.Join(t.TempDir(), "scan.ckpt")

	cfg := scanConfig(w, netsim.MonthApr, dnsserver.MaskDomain)
	cfg.Checkpoint = &CheckpointConfig{Path: path}
	if _, err := Scan(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}

	cfg2 := scanConfig(w, netsim.MonthApr, dnsserver.MaskH2Domain)
	cfg2.Checkpoint = &CheckpointConfig{Path: path, Resume: true}
	if _, err := Scan(context.Background(), cfg2); err == nil {
		t.Fatal("resume across domains was accepted")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	ck := &Checkpoint{
		Domain:        "mask.icloud.com.",
		UniverseTotal: 4096,
		Addresses: map[netip.Addr]bgp.ASN{
			netip.MustParseAddr("192.0.2.1"):  65001,
			netip.MustParseAddr("192.0.2.40"): 65002,
		},
		Serving: map[bgp.ASN]map[bgp.ASN]int64{
			65010: {65001: 12, 65002: 3},
		},
		Ledger: map[netip.Prefix]*SubnetFault{
			netip.MustParsePrefix("10.1.2.0/24"): {
				Subnet: netip.MustParsePrefix("10.1.2.0/24"),
				Timeouts: 2, ServFails: 1, Attempts: 3,
				LastKind: faults.KindServFail, Recovered: true,
			},
		},
		Counters:   map[string]int64{"queries": 777, "retries": 5},
		DoneRanges: [][2]int64{{0, 99}, {200, 4095}},
	}
	got, err := loadImage(t, journalImage(t, ck))
	if err != nil {
		t.Fatal(err)
	}
	if got.Domain != ck.Domain || got.UniverseTotal != ck.UniverseTotal {
		t.Fatalf("metadata: %+v", got)
	}
	if len(got.Addresses) != 2 || got.Addresses[netip.MustParseAddr("192.0.2.40")] != 65002 {
		t.Fatalf("addresses: %v", got.Addresses)
	}
	if got.Serving[65010][65001] != 12 || got.Serving[65010][65002] != 3 {
		t.Fatalf("serving: %v", got.Serving)
	}
	e := got.Ledger[netip.MustParsePrefix("10.1.2.0/24")]
	if e == nil || e.Timeouts != 2 || e.ServFails != 1 || e.Attempts != 3 ||
		e.LastKind != faults.KindServFail || !e.Recovered {
		t.Fatalf("ledger: %+v", e)
	}
	if got.Counters["queries"] != 777 || got.Counters["retries"] != 5 {
		t.Fatalf("counters: %v", got.Counters)
	}
	if len(got.DoneRanges) != 2 || got.DoneRanges[1] != [2]int64{200, 4095} {
		t.Fatalf("done ranges: %v", got.DoneRanges)
	}

	if _, err := loadImage(t, []byte("A 192.0.2.1,1\n")); err == nil {
		t.Fatal("headerless checkpoint accepted")
	}
}

// TestBackoffDelayShape pins the backoff math: deterministic, within
// [base/2, cap), monotone-capped growth.
func TestBackoffDelayShape(t *testing.T) {
	b := BackoffConfig{Base: 100 * time.Millisecond, Cap: time.Second}
	for attempt := 0; attempt < 12; attempt++ {
		d1 := b.delay(12345, attempt)
		d2 := b.delay(12345, attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: nondeterministic delay %v vs %v", attempt, d1, d2)
		}
		if d1 < 50*time.Millisecond || d1 >= time.Second {
			t.Fatalf("attempt %d: delay %v outside [base/2, cap)", attempt, d1)
		}
	}
	if (BackoffConfig{}).delay(1, 3) != 0 {
		t.Fatal("zero config must not sleep")
	}
	// Decorrelated: different subnets draw different jitter.
	seen := map[time.Duration]bool{}
	for key := uint64(0); key < 16; key++ {
		seen[b.delay(key, 2)] = true
	}
	if len(seen) < 8 {
		t.Fatalf("jitter barely varies across keys: %d distinct of 16", len(seen))
	}
}

// TestCircuitBreakerLifecycle drives closed → open → half-open → closed
// on a virtual clock.
func TestCircuitBreakerLifecycle(t *testing.T) {
	clock := vclock.NewVirtualClock()
	cb := newCircuitBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Second}, clock)
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if ok, probe := cb.acquire(ctx); !ok || probe {
			t.Fatalf("closed breaker denied attempt %d", i)
		}
		cb.serverFailure(false)
	}
	if cb.state.Load() != breakerOpen {
		t.Fatalf("state after %d failures = %d, want open", 3, cb.state.Load())
	}
	if cb.tripCount() != 1 {
		t.Fatalf("trips = %d, want 1", cb.tripCount())
	}

	// The next acquire waits out the cooldown (virtually) and becomes the
	// half-open probe.
	ok, probe := cb.acquire(ctx)
	if !ok || !probe {
		t.Fatalf("post-cooldown acquire = (%v, %v), want probe", ok, probe)
	}
	// Failed probe re-opens.
	cb.serverFailure(true)
	if cb.state.Load() != breakerOpen || cb.tripCount() != 2 {
		t.Fatalf("failed probe left state=%d trips=%d", cb.state.Load(), cb.tripCount())
	}
	// Successful probe closes.
	ok, probe = cb.acquire(ctx)
	if !ok || !probe {
		t.Fatal("second probe not admitted")
	}
	cb.success(true)
	if cb.state.Load() != breakerClosed {
		t.Fatalf("state after successful probe = %d, want closed", cb.state.Load())
	}
	if ok, probe := cb.acquire(ctx); !ok || probe {
		t.Fatal("closed breaker after recovery should admit normally")
	}
}
