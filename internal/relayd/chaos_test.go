package relayd

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/relay-networks/privaterelay/internal/core"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/vclock"
)

// The relayd chaos test: kill the service at seeded-random points mid
// campaign — a deterministic stand-in for kill -9 — restart it over the
// same state directory, and require the final durable state (datasets,
// diffs, reports) to be byte-identical to an uninterrupted run's. It
// runs under -race in the chaos CI job.

// chaosKiller cancels the service's context after a fixed number of
// DNS exchanges. Installed through PipelineConfig.WrapExchanger it
// sits outermost — above the fault injector — so the kill lands at an
// arbitrary point of the real exchange stream. With domain set, only
// queries for that name count, so the kill lands inside that domain's
// scan however the concurrent domain scans interleave.
type chaosKiller struct {
	inner  dnsserver.Exchanger
	after  int64
	domain string
	n      atomic.Int64
	cancel context.CancelFunc
	fired  *atomic.Bool
}

func (k *chaosKiller) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	if k.domain != "" && (len(q.Questions) == 0 || q.Questions[0].Name != k.domain) {
		return k.inner.Exchange(ctx, q)
	}
	if k.n.Add(1) == k.after {
		k.fired.Store(true)
		k.cancel()
	}
	return k.inner.Exchange(ctx, q)
}

// splitmix64 is the test's private PRNG: seeded, portable, and not
// math/rand, so kill points are reproducible everywhere.
type splitmix64 struct{ x uint64 }

func (s *splitmix64) next() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

const chaosFaultProfile = "mild,seed=3"

func chaosServiceConfig(dir string) ServiceConfig {
	cfg := testServiceConfig(dir)
	cfg.Pipeline.FaultProfile = chaosFaultProfile
	return cfg
}

// The uninterrupted baseline run is the single most expensive fixture
// in this package, and three tests compare against it — so it runs
// once. Faulted and fault-free runs persist identical canonical bytes
// (the core chaos suite pins that equivalence), which is what makes
// one baseline valid for all of them.
var (
	baselineOnce sync.Once
	baselineDir  string
	baselineErr  error
)

func sharedBaseline(t *testing.T) string {
	t.Helper()
	baselineOnce.Do(func() {
		dir, err := os.MkdirTemp("", "relayd-baseline-*")
		if err != nil {
			baselineErr = err
			return
		}
		baselineDir = dir
		svc, err := New(chaosServiceConfig(dir))
		if err != nil {
			baselineErr = err
			return
		}
		defer svc.Close()
		for i := 0; i < 32 && !svc.CaughtUp(); i++ {
			if err := svc.Step(context.Background()); err != nil {
				baselineErr = err
				return
			}
		}
		if !svc.CaughtUp() {
			baselineErr = errBaselineStuck
		}
	})
	if baselineErr != nil {
		t.Fatal(baselineErr)
	}
	return baselineDir
}

var errBaselineStuck = errors.New("baseline service never caught up")

func TestMain(m *testing.M) {
	code := m.Run()
	if baselineDir != "" {
		os.RemoveAll(baselineDir)
	}
	os.Exit(code)
}

// durableTree reads every file under the durable output roots into a
// map keyed by slash-separated relative path. Checkpoints are scratch
// by contract and excluded.
func durableTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	tree := map[string][]byte{}
	for _, root := range []string{"datasets", "diffs", "reports"} {
		base := filepath.Join(dir, root)
		err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(dir, path)
			if err != nil {
				return err
			}
			tree[filepath.ToSlash(rel)] = b
			return nil
		})
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
	return tree
}

// TestRelaydChaosKillResumeBitIdentical: an uninterrupted baseline run
// versus a run killed at seeded-random exchange counts and restarted
// until it converges. Every durable byte must match.
func TestRelaydChaosKillResumeBitIdentical(t *testing.T) {
	want := durableTree(t, sharedBaseline(t))
	if len(want) == 0 {
		t.Fatal("baseline produced no durable files")
	}

	// Chaos: restart loop over one state dir, each incarnation armed
	// with a fresh seeded kill point.
	chaosDir := t.TempDir()
	prng := &splitmix64{x: 0xc0ffee}
	kills, killedMidScan := 0, 0
	var resumedSubnets, corruptKillPoints int64
	const maxRounds = 60
	round := 0
	for ; round < maxRounds; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var fired atomic.Bool
		// A full catch-up is ~200k exchanges; kill points average ~15k
		// so the run dies and resumes many times, with the occasional
		// very early kill landing inside the first scan.
		after := int64(1500 + prng.next()%28000)
		cfg := chaosServiceConfig(chaosDir)
		cfg.Pipeline.WrapExchanger = func(ex dnsserver.Exchanger) dnsserver.Exchanger {
			return &chaosKiller{inner: ex, after: after, cancel: cancel, fired: &fired}
		}
		svc, err := New(cfg)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		for !svc.CaughtUp() && ctx.Err() == nil {
			if err := svc.Step(ctx); err != nil && ctx.Err() == nil {
				cancel()
				t.Fatalf("round %d: unexpected campaign failure: %v", round, err)
			}
		}
		for _, d := range []string{dnsserver.MaskDomain, dnsserver.MaskH2Domain} {
			resumedSubnets += svc.Registry().Counter("relayd_scan_resumed_subnets_total", "domain", d).Value()
			corruptKillPoints += svc.Registry().Counter("relayd_checkpoint_corrupt_total", "domain", d).Value()
		}
		caughtUp := svc.CaughtUp()
		svc.Close()
		cancel()
		if fired.Load() {
			kills++
			if !caughtUp {
				killedMidScan++
			}
		}
		if caughtUp {
			break
		}
	}
	if round == maxRounds {
		t.Fatalf("service did not converge within %d restarts", maxRounds)
	}
	if kills == 0 || killedMidScan == 0 {
		t.Fatalf("chaos run was never genuinely killed mid-campaign (kills=%d midScan=%d) — raise kill budget", kills, killedMidScan)
	}
	if resumedSubnets == 0 {
		t.Fatal("no scan ever resumed from a checkpoint — the kills landed nowhere interesting")
	}
	if corruptKillPoints != 0 {
		t.Fatalf("atomic checkpoint writes produced %d corrupt files under kills", corruptKillPoints)
	}

	got := durableTree(t, chaosDir)
	if len(got) != len(want) {
		t.Fatalf("durable file sets differ: %d vs %d files", len(got), len(want))
	}
	for rel, b := range want {
		g, ok := got[rel]
		if !ok {
			t.Fatalf("chaos run missing %s", rel)
		}
		if !bytes.Equal(g, b) {
			t.Fatalf("%s differs between baseline and kill/resume run", rel)
		}
	}
	t.Logf("chaos: %d restarts, %d kills (%d mid-scan), %d subnets resumed, %d durable files identical",
		round+1, kills, killedMidScan, resumedSubnets, len(want))
}

// TestRelaydChaosDrainMidCampaign: BeginDrain plus cancellation during
// an in-flight campaign behaves exactly like a kill — the next
// incarnation resumes and converges on the baseline bytes.
func TestRelaydChaosDrainMidCampaign(t *testing.T) {
	baseDir := sharedBaseline(t)

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	var fired atomic.Bool
	cfg := chaosServiceConfig(dir)
	cfg.Pipeline.WrapExchanger = func(ex dnsserver.Exchanger) dnsserver.Exchanger {
		return &chaosKiller{inner: ex, after: 300, domain: dnsserver.MaskDomain, cancel: cancel, fired: &fired}
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.BeginDrain() // drain first: readiness off, campaigns still run
	if svc.Ready() {
		t.Fatal("draining service reports ready")
	}
	err = svc.Step(ctx)
	if !fired.Load() {
		t.Fatal("kill point never fired — raise the exchange budget")
	}
	if err == nil {
		t.Fatal("cancelled campaign returned no error")
	}
	svc.Close()
	cancel()

	svc2, err := New(chaosServiceConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	stepUntilCaughtUp(t, svc2, context.Background())
	if resumed := svc2.Registry().Counter("relayd_scan_resumed_subnets_total", "domain", dnsserver.MaskDomain).Value(); resumed == 0 {
		t.Fatal("restart after drain resumed nothing")
	}

	want, got := durableTree(t, baseDir), durableTree(t, dir)
	if len(want) != len(got) {
		t.Fatalf("file sets differ: %d vs %d", len(want), len(got))
	}
	for rel, b := range want {
		if !bytes.Equal(got[rel], b) {
			t.Fatalf("%s differs after drain/resume", rel)
		}
	}
}

// TestDiffFormatRoundTrip pins the diff wire format: write → read →
// write is byte-stable, and truncation, a missing month header and a
// misplaced diff header are rejected.
func TestDiffFormatRoundTrip(t *testing.T) {
	dir := sharedBaseline(t)
	pipe, err := NewPipeline(chaosServiceConfig(dir).Pipeline)
	if err != nil {
		t.Fatal(err)
	}

	for g := 1; g < len(pipe.Months()); g++ {
		d, err := LoadDiffFile(dir, dnsserver.MaskDomain, g)
		if err != nil {
			t.Fatalf("gen %d: %v", g, err)
		}
		if d.Gen != g {
			t.Fatalf("gen header = %d, want %d", d.Gen, g)
		}
		var buf bytes.Buffer
		if err := d.Write(&buf); err != nil {
			t.Fatal(err)
		}
		onDisk, err := os.ReadFile(diffPath(dir, dnsserver.MaskDomain, g))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), onDisk) {
			t.Fatalf("gen %d: re-rendered diff differs from on-disk bytes", g)
		}
		if _, err := ReadDiff(bytes.NewReader(onDisk[:len(onDisk)-2])); err == nil {
			t.Fatalf("gen %d: truncated diff accepted", g)
		}
		// A diff must describe change: identical datasets would not
		// exercise the format. The sim worlds grow month over month.
		if g >= 1 && len(d.Appeared)+len(d.Vanished)+len(d.MovedAS) == 0 {
			t.Logf("gen %d: empty diff (world did not change)", g)
		}
	}

	// The persisted generation is the map-based oracle's diff of the
	// loaded datasets.
	months := pipe.Months()
	a, err := pipe.LoadColumns(dnsserver.MaskDomain, months[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := pipe.LoadColumns(dnsserver.MaskDomain, months[1])
	if err != nil {
		t.Fatal(err)
	}
	var rendered bytes.Buffer
	if err := mapDiff(1, months[0], months[1], a, b).Write(&rendered); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(diffPath(dir, dnsserver.MaskDomain, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rendered.Bytes(), onDisk) {
		t.Fatal("recomputed gen 1 differs from persisted bytes")
	}

	// A diff missing a month header (its zero month would not re-read)
	// or whose first line is not the diff header is rejected as corrupt.
	for name, bad := range map[string][]byte{
		"missing from header": bytes.Replace(onDisk, []byte("# from "+months[0].String()+"\n"), nil, 1),
		"missing to header":   bytes.Replace(onDisk, []byte("# to "+months[1].String()+"\n"), nil, 1),
		"leading blank line":  append([]byte("\n"), bytes.Replace(onDisk, []byte("# diff v1\n"), nil, 1)...),
	} {
		t.Run(name, func(t *testing.T) {
			if len(bad) == len(onDisk) {
				t.Fatal("the case did not alter gen 1")
			}
			if d, err := ReadDiff(bytes.NewReader(bad)); !errors.Is(err, core.ErrCheckpointCorrupt) || d != nil {
				t.Fatalf("ReadDiff = %+v, %v; want a corrupt rejection", d, err)
			}
		})
	}
}

// TestVirtualClockNoWallTime guards the chaos suite's economics: a
// full catch-up on the virtual clock must not sleep wall time away
// (the test itself timing out would be the symptom; this assertion
// documents the contract).
func TestVirtualClockNoWallTime(t *testing.T) {
	clock := vclock.NewVirtualClock()
	dir := t.TempDir()
	cfg := testServiceConfig(dir)
	cfg.Pipeline.Clock = clock
	cfg.Pipeline.FaultProfile = chaosFaultProfile
	// One month suffices: any faulted scan sleeps backoff on the clock.
	cfg.Pipeline.Months = netsim.ScanMonths[:1]
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	stepUntilCaughtUp(t, svc, context.Background())
	if clock.Elapsed() == 0 {
		t.Fatal("faulted scans slept no virtual time — the clock is not wired through")
	}
}
