package relayd

import (
	"bytes"
	"context"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/core"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/experiments"
	"github.com/relay-networks/privaterelay/internal/faults"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/vclock"
)

// testServiceConfig builds a small-world, virtual-clock service over
// dir. The scale matches the core test world, so scans finish in
// milliseconds of wall time.
func testServiceConfig(dir string) ServiceConfig {
	return ServiceConfig{
		Pipeline: PipelineConfig{
			Seed:        6,
			Scale:       0.0008,
			StateDir:    dir,
			Clock:       vclock.NewVirtualClock(),
			Concurrency: 4,
		},
	}
}

// stepUntilCaughtUp drives the service to a fully-durable plan.
func stepUntilCaughtUp(t *testing.T, svc *Service, ctx context.Context) {
	t.Helper()
	for i := 0; i < 32 && !svc.CaughtUp(); i++ {
		if err := svc.Step(ctx); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if !svc.CaughtUp() {
		t.Fatal("service never caught up")
	}
}

func TestServiceLifecycle(t *testing.T) {
	dir := t.TempDir()
	cfg := testServiceConfig(dir)
	cfg.Pipeline.AtlasProbes = 120
	cfg.Pipeline.AtlasClusters = 40
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Before the first cycle: alive but not ready.
	if code := getCode(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	if code := getCode(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before first cycle = %d, want 503", code)
	}

	stepUntilCaughtUp(t, svc, context.Background())

	// Durable outputs: every month×domain dataset, every diff
	// generation, and the rendered report.
	months := svc.pipe.Months()
	for _, m := range months {
		for _, d := range []string{dnsserver.MaskDomain, dnsserver.MaskH2Domain} {
			if !svc.pipe.HasDataset(d, m) {
				t.Fatalf("missing dataset %s %s", d, m)
			}
		}
	}
	for g := 1; g < len(months); g++ {
		for _, d := range []string{dnsserver.MaskDomain, dnsserver.MaskH2Domain} {
			if _, err := LoadDiffFile(dir, d, g); err != nil {
				t.Fatalf("diff gen %d (%s): %v", g, d, err)
			}
		}
	}
	report, err := os.ReadFile(filepath.Join(dir, "reports", "table1.txt"))
	if err != nil {
		t.Fatal(err)
	}

	if code := getCode(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after catch-up = %d", code)
	}
	if got := getBody(t, ts.URL+"/reports/table1.txt"); !bytes.Equal([]byte(got), report) {
		t.Fatal("/reports/table1.txt differs from the on-disk report")
	}
	if body := getBody(t, ts.URL+"/reports/"); !strings.Contains(body, "table1.txt") {
		t.Fatalf("report listing missing table1.txt:\n%s", body)
	}
	// Traversal is stopped either by the mux's path cleaning (404 after
	// redirect) or by the handler's own check (400) — never served.
	if code := getCode(t, ts.URL+"/reports/../datasets/x"); code == http.StatusOK {
		t.Fatalf("path escape served = %d", code)
	}

	// The acceptance surface: exchange rate, fault mix, breaker state,
	// pool hit rates and the scan journal's counters, all on one scrape.
	metrics := getBody(t, ts.URL+"/metrics")
	for _, series := range []string{
		`relayd_scan_exchange_rate{domain="` + dnsserver.MaskDomain + `"}`,
		`relayd_scan_faults_total{domain="` + dnsserver.MaskDomain + `",kind="timeout"}`,
		`relayd_breaker_open_total{campaign="scan"}`,
		`relayd_quarantine_total{campaign="scan"}`,
		`relayd_supervisor_state{campaign="scan"}`,
		`pool_hit_rate{pool="dnswire_message"}`,
		`relayd_checkpoint_frames_total{domain="` + dnsserver.MaskDomain + `"}`,
		`relayd_atlas_probes_total{outcome="answered"}`,
		`relayd_cycles_total`,
		`relayd_ready 1`,
		`relayd_caught_up 1`,
	} {
		if !strings.Contains(metrics, series) {
			t.Fatalf("metrics missing %s in:\n%s", series, metrics)
		}
	}

	// Graceful drain: readiness flips while liveness holds.
	svc.BeginDrain()
	if code := getCode(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain = %d, want 503", code)
	}
	if code := getCode(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz during drain = %d, want 200", code)
	}
}

// TestCorruptCheckpointRecovery is the durability satellite: a
// truncated checkpoint on disk is detected, quarantined with a
// .corrupt rename, counted in the metrics, and the campaign restarts
// from scratch — converging on a dataset byte-identical to a clean
// run's.
func TestCorruptCheckpointRecovery(t *testing.T) {
	clean := t.TempDir()
	cfgA := testServiceConfig(clean)
	cfgA.Pipeline.Months = netsim.ScanMonths[:1]
	svcA, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer svcA.Close()
	stepUntilCaughtUp(t, svcA, context.Background())
	janPath := svcA.pipe.DatasetPath(dnsserver.MaskDomain, svcA.pipe.Months()[0])
	want, err := os.ReadFile(janPath)
	if err != nil {
		t.Fatal(err)
	}

	// Plant a footer-less (truncated-write) checkpoint where the first
	// scan will try to resume.
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "checkpoints", "mask_icloud_com", "2022-01.ckpt")
	if err := os.MkdirAll(filepath.Dir(ckpt), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, []byte("# checkpoint v1\nA 192.0.2.1,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	cfgB := testServiceConfig(dir)
	cfgB.Pipeline.Months = netsim.ScanMonths[:1]
	svcB, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer svcB.Close()
	stepUntilCaughtUp(t, svcB, context.Background())

	if _, err := os.Stat(ckpt + ".corrupt"); err != nil {
		t.Fatalf("corrupt checkpoint not quarantined: %v", err)
	}
	got := svcB.Registry().Counter("relayd_checkpoint_corrupt_total", "domain", dnsserver.MaskDomain).Value()
	if got != 1 {
		t.Fatalf("relayd_checkpoint_corrupt_total = %d, want 1", got)
	}
	rebuilt, err := os.ReadFile(svcB.pipe.DatasetPath(dnsserver.MaskDomain, svcB.pipe.Months()[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rebuilt, want) {
		t.Fatal("dataset rebuilt after corruption differs from a clean run")
	}
}

// TestCorruptDiffRecovery: the same quarantine-and-recompute contract
// for diff generations.
func TestCorruptDiffRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := testServiceConfig(dir)
	cfg.Pipeline.Months = netsim.ScanMonths[:2]
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	stepUntilCaughtUp(t, svc, context.Background())

	path := diffPath(dir, dnsserver.MaskDomain, 1)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the generation file mid-row.
	if err := os.WriteFile(path, want[:len(want)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := svc.pipe.EnsureDiffs(len(svc.pipe.Months()) - 1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt diff not quarantined: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recomputed diff differs from the original bytes")
	}
}

// TestScanCampaignFailureSparesSibling: a domain whose scan fails does
// not stop its sibling. A regular file where mask.icloud.com's
// checkpoint directory belongs fails only that domain's scan; the call
// returns its error, mask-h2.icloud.com's dataset is durable anyway,
// and once the obstacle is gone the next call scans only the domain
// that is still missing.
func TestScanCampaignFailureSparesSibling(t *testing.T) {
	dir := t.TempDir()
	cfg := testServiceConfig(dir).Pipeline
	cfg.Months = netsim.ScanMonths[:1]
	cfg.Registry = NewRegistry()
	pipe, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	month := pipe.Months()[0]
	blocker := filepath.Join(dir, "checkpoints", "mask_icloud_com")
	if err := os.MkdirAll(filepath.Dir(blocker), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	err = pipe.RunScanCampaign(context.Background(), month)
	var pathErr *fs.PathError
	if !errors.As(err, &pathErr) || pathErr.Path != blocker {
		t.Fatalf("RunScanCampaign = %v, want the mkdir error on %s", err, blocker)
	}
	if pipe.HasDataset(dnsserver.MaskDomain, month) {
		t.Fatal("the failing domain has a dataset")
	}
	if !pipe.HasDataset(dnsserver.MaskH2Domain, month) {
		t.Fatal("the failing domain stopped its sibling: no mask-h2 dataset")
	}
	h2Queries := cfg.Registry.Counter("relayd_scan_queries_total", "domain", dnsserver.MaskH2Domain)
	before := h2Queries.Value()
	if before == 0 {
		t.Fatal("mask-h2 scan counted no queries")
	}

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := pipe.RunScanCampaign(context.Background(), month); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if !pipe.HasDataset(dnsserver.MaskDomain, month) {
		t.Fatal("retry left mask.icloud.com without a dataset")
	}
	if after := h2Queries.Value(); after != before {
		t.Fatalf("retry rescanned mask-h2: queries %d -> %d", before, after)
	}
}

func getCode(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMonthScanFaultedSameBytesAcrossDrivers: relayd's scan and the
// report's are one configuration (core.MonthScan), so for one world
// relayd's April mask.icloud.com. dataset file and the canonical text of
// the report's April scan are the same bytes — clean, and under a harsh
// fault profile whose every subnet the shared policy recovers.
func TestMonthScanFaultedSameBytesAcrossDrivers(t *testing.T) {
	base := testServiceConfig("").Pipeline
	for _, spec := range []string{"", "harsh,seed=5"} {
		cfg := base
		cfg.StateDir = t.TempDir()
		cfg.Clock = vclock.NewVirtualClock()
		cfg.FaultProfile = spec
		cfg.Months = []bgp.Month{netsim.MonthApr}
		cfg.Domains = []string{dnsserver.MaskDomain}
		pipe, err := NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := pipe.RunScanCampaign(context.Background(), netsim.MonthApr); err != nil {
			t.Fatalf("%q: relayd scan: %v", spec, err)
		}
		fromRelayd, err := os.ReadFile(pipe.DatasetPath(dnsserver.MaskDomain, netsim.MonthApr))
		if err != nil {
			t.Fatal(err)
		}

		env := experiments.NewEnv(cfg.Seed, cfg.Scale)
		if env.FaultProfile, err = faults.Parse(spec); err != nil {
			t.Fatal(err)
		}
		ds, err := env.ScanMonth(context.Background(), netsim.MonthApr, dnsserver.MaskDomain)
		if err != nil {
			t.Fatalf("%q: report scan: %v", spec, err)
		}
		var fromReport bytes.Buffer
		if err := core.WriteCanonical(&fromReport, &ds.Dataset); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fromRelayd, fromReport.Bytes()) {
			t.Errorf("%q: relayd's April dataset (%d bytes) differs from the report's scan (%d bytes)",
				spec, len(fromRelayd), fromReport.Len())
		}
		if faulted := ds.Stats.FaultAttempts() > 0; faulted != (spec != "") || ds.Stats.FailedSubnets != 0 {
			t.Errorf("%q: the report's scan met %d faults and lost %d subnets",
				spec, ds.Stats.FaultAttempts(), ds.Stats.FailedSubnets)
		}
	}
}
