package experiments

import (
	"context"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/relay-networks/privaterelay/internal/analysis"
	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/colstore"
	"github.com/relay-networks/privaterelay/internal/core"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/netsim"
)

var (
	envOnce sync.Once
	envVal  *Env
)

func testEnv(t testing.TB) *Env {
	t.Helper()
	envOnce.Do(func() { envVal = NewEnv(42, 0.0008) })
	return envVal
}

// coldEnv returns an Env over the shared test world, egress list and
// deployment with nothing memoized, so its scans run cold without
// rebuilding the 240 k-row list.
func coldEnv(t testing.TB) *Env {
	e := testEnv(t)
	return &Env{
		Seed: e.Seed, Scale: e.Scale,
		ScanConcurrency: e.ScanConcurrency, PipelineWorkers: e.PipelineWorkers,
		World: e.World, List: e.List, Attributed: e.Attributed, Dep: e.Dep,
		scans: make(map[string]*core.Dataset),
	}
}

// memoized returns how many scans e has memoized.
func (e *Env) memoized() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.scans)
}

// waitGoroutines polls until runtime.NumGoroutine() is back to baseline,
// failing if it is not within 5 s.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for runtime.NumGoroutine() > baseline {
		select {
		case <-ctx.Done():
			t.Fatalf("%d goroutines still running, baseline %d", runtime.NumGoroutine(), baseline)
		case <-tick.C:
		}
	}
}

// relayScanRunning reports whether any goroutine is inside RelayScan.
func relayScanRunning() bool {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Contains(string(buf[:n]), "experiments.(*Env).RelayScan(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

func TestTable1EndToEnd(t *testing.T) {
	e := testEnv(t)
	rows, err := e.Table1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	apr := rows[3]
	if apr.DefaultApple+apr.DefaultAkamai != 1586 {
		t.Fatalf("April default total = %d, want 1586", apr.DefaultApple+apr.DefaultAkamai)
	}
	if rows[0].FallbackPresent {
		t.Fatal("January fallback should be absent")
	}
}

func TestScanMonthMemoization(t *testing.T) {
	e := testEnv(t)
	ctx := context.Background()
	a, err := e.ScanMonth(ctx, netsim.MonthApr, "mask.icloud.com.")
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.ScanMonth(ctx, netsim.MonthApr, "mask.icloud.com.")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("scan not memoized")
	}
}

// TestTable1ConcurrentMatchesMemo: Table 1's fan-out scans each of its
// seven (month, domain) keys once into the memo, later ScanMonth calls
// return those datasets, and the rows are the ones rendering the memoized
// datasets gives.
func TestTable1ConcurrentMatchesMemo(t *testing.T) {
	e := coldEnv(t)
	ctx := context.Background()
	rows, err := e.Table1(ctx)
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	stored := maps.Clone(e.scans)
	e.mu.Unlock()
	if len(stored) != 7 {
		t.Fatalf("memoized scans = %d, want 7", len(stored))
	}
	def := map[bgp.Month]*colstore.Dataset{}
	fb := map[bgp.Month]*colstore.Dataset{}
	for _, m := range netsim.ScanMonths {
		domains := []string{dnsserver.MaskDomain, dnsserver.MaskH2Domain}
		if m == netsim.MonthJan {
			domains = domains[:1]
		}
		for _, domain := range domains {
			ds, err := e.ScanMonth(ctx, m, domain)
			if err != nil {
				t.Fatal(err)
			}
			if used := stored[m.String()+"|"+domain]; ds != used {
				t.Fatalf("%v %s: ScanMonth returned %p, Table 1 used %p", m, domain, ds, used)
			}
			if domain == dnsserver.MaskDomain {
				def[m] = &ds.Dataset
			} else {
				fb[m] = &ds.Dataset
			}
		}
	}
	if n := e.memoized(); n != 7 {
		t.Fatalf("memoized scans after ScanMonth = %d, want 7", n)
	}
	if want := analysis.Table1(netsim.ScanMonths, def, fb); !reflect.DeepEqual(rows, want) {
		t.Fatalf("Table1 rows = %+v, memoized datasets give %+v", rows, want)
	}
	if apr := rows[3]; apr.DefaultApple+apr.DefaultAkamai != 1586 {
		t.Fatalf("April default total = %d, want 1586", apr.DefaultApple+apr.DefaultAkamai)
	}
}

// TestFullReportJoinsRelayScan: however FullReport ends early, it
// cancels and joins the relay scan it started before Table 1.
func TestFullReportJoinsRelayScan(t *testing.T) {
	t.Run("cancelled before start", func(t *testing.T) {
		e := coldEnv(t)
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := e.FullReport(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("FullReport error = %v, want context.Canceled", err)
		}
		if relayScanRunning() {
			t.Fatal("FullReport returned with its relay scan still running")
		}
		waitGoroutines(t, baseline)
	})
	t.Run("cancelled during Table 1", func(t *testing.T) {
		e := coldEnv(t)
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		errc := make(chan error, 1)
		go func() {
			_, err := e.FullReport(ctx)
			errc <- err
		}()
		// Cancel once the first of Table 1's seven scans has landed in
		// the memo: the rest are then running or not yet started.
		wait, stop := context.WithTimeout(context.Background(), 5*time.Second)
		defer stop()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for e.memoized() == 0 {
			select {
			case <-wait.Done():
				t.Fatal("no Table 1 scan finished within 5 s")
			case <-tick.C:
			}
		}
		cancel()
		cancelled := time.Now()
		select {
		case err := <-errc:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("FullReport error = %v, want context.Canceled", err)
			}
		case <-wait.Done():
			t.Fatal("FullReport did not return within 5 s of its context being cancelled")
		}
		if relayScanRunning() {
			t.Fatal("FullReport returned with its relay scan still running")
		}
		if n := e.memoized(); n >= 7 {
			t.Fatalf("Table 1 ran all %d scans after the cancel", n)
		}
		t.Logf("returned %v after the cancel", time.Since(cancelled))
		waitGoroutines(t, baseline)
	})
}

func TestTable2Table3Table4(t *testing.T) {
	e := testEnv(t)
	rows2, share, err := e.Table2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != 3 || share < 70 || share > 82 {
		t.Fatalf("table2: %v share=%.1f", rows2, share)
	}
	if len(e.Table3()) != 4 || len(e.Table4()) != 4 {
		t.Fatal("table3/4 row counts")
	}
}

func TestFigures(t *testing.T) {
	e := testEnv(t)
	f2 := e.Figure2()
	if len(f2) != 3 {
		t.Fatalf("figure2 panels = %d", len(f2))
	}
	if f2["Akamai"].Points != 9890+1602 {
		t.Fatalf("Akamai v4 panel points = %d", f2["Akamai"].Points)
	}
	f5 := e.Figure5()
	if len(f5) != 6 {
		t.Fatalf("figure5 panels = %d", len(f5))
	}
	f4 := e.Figure4(analysis.ByCity, netsim.FamilyV6)
	if len(f4) != 4 {
		t.Fatalf("figure4 curves = %d", len(f4))
	}
}

func TestRelayScanExperiment(t *testing.T) {
	e := testEnv(t)
	rs, err := e.RelayScan(context.Background(), 64, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Open) != 64 || len(rs.Fixed) != 64 {
		t.Fatalf("scan lengths: %d/%d", len(rs.Open), len(rs.Fixed))
	}
	if rs.Rotation.ChangeRate <= 0.5 {
		t.Fatalf("rotation change rate %.2f", rs.Rotation.ChangeRate)
	}
	if rs.Rotation.DistinctAddrs == 0 || rs.Rotation.DistinctSubnets == 0 {
		t.Fatal("rotation saw nothing")
	}
}

func TestQUICProbesExperiment(t *testing.T) {
	e := testEnv(t)
	qp, err := e.QUICProbes()
	if err != nil {
		t.Fatal(err)
	}
	if !qp.VersionNegotiation.Responded || len(qp.VersionNegotiation.Versions) != 4 {
		t.Fatalf("VN: %+v", qp.VersionNegotiation)
	}
	if qp.StandardHandshake.Responded {
		t.Fatal("standard handshake should time out")
	}
	if !qp.RelayHandshake.HandshakeOK {
		t.Fatal("relay handshake should succeed")
	}
}

func TestAtlasExperiment(t *testing.T) {
	e := testEnv(t)
	at, err := e.Atlas(context.Background(), 3000, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if at.V4Found == 0 || at.V4Found >= 1586 {
		t.Fatalf("v4 found = %d", at.V4Found)
	}
	if at.V4ExtraVsECS == 0 || at.V4ExtraVsECS > 6 {
		t.Fatalf("extra vs ECS = %d, want ≈1", at.V4ExtraVsECS)
	}
	if at.V6Found < 1450 {
		t.Fatalf("v6 found = %d", at.V6Found)
	}
	if at.Blocking.BlockedShare() < 3 || at.Blocking.BlockedShare() > 8 {
		t.Fatalf("blocked share = %.1f", at.Blocking.BlockedShare())
	}
}

func TestCorrelationExperiment(t *testing.T) {
	e := testEnv(t)
	corr, err := e.Correlation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(corr.SharedOperators) != 1 || corr.SharedOperators[0] != netsim.ASAkamaiPR {
		t.Fatalf("shared = %v", corr.SharedOperators)
	}
	if len(corr.LastHopPairs) == 0 {
		t.Fatal("no last-hop pairs")
	}
	if corr.Utilization.UsedShare() < 88 || corr.Utilization.UsedShare() > 95 {
		t.Fatalf("utilization = %.1f%%", corr.Utilization.UsedShare())
	}
	if corr.FirstSeen != (bgp.Month{Year: 2021, M: 6}) {
		t.Fatalf("first seen = %v", corr.FirstSeen)
	}
}

func TestODoHCheck(t *testing.T) {
	e := testEnv(t)
	name, ecs := e.ODoHCheck()
	if name != "Cloudflare1111" || ecs.Bits() != 24 {
		t.Fatalf("ODoH: %s %v", name, ecs)
	}
}

func TestFullReportRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is slow")
	}
	e := testEnv(t)
	report, err := e.FullReport(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4",
		"Figure 2", "Figure 3", "Figure 4",
		"QUIC probing", "RIPE Atlas", "correlation", "ODoH",
		"1237", "142826", "2021-06",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestQoEExtension(t *testing.T) {
	e := testEnv(t)
	res := e.QoE(200)
	if res.Samples < 100 {
		t.Fatalf("samples = %d", res.Samples)
	}
	if res.MedianOverhead <= 0 {
		t.Fatalf("median overhead = %v", res.MedianOverhead)
	}
	if res.MedianOverhead > 6 {
		t.Fatalf("median overhead ×%.1f — relay detour should stay bounded", res.MedianOverhead)
	}
	if res.P90Overhead < res.MedianOverhead {
		t.Fatal("p90 below median")
	}
}

func TestGeoDBAdoption(t *testing.T) {
	e := testEnv(t)
	// The geo DB is derived from the egress list, reproducing the paper's
	// finding that commercial databases adopted Apple's mapping.
	if got := e.GeoDBAdoption(5000); got < 0.999 {
		t.Fatalf("adoption = %.3f, want ≈1.0", got)
	}
}

// TestEnvBuildsOneGeoDB: an Env builds its geolocation database and its
// attribution join once, in the deployment. GeoDBAdoption and RelayScan
// read that database rather than deriving a fresh one from the list, so
// an adoption pass allocates nothing like a 240k-entry build.
func TestEnvBuildsOneGeoDB(t *testing.T) {
	e := testEnv(t)
	if len(e.Attributed) == 0 || &e.Attributed[0] != &e.Dep.Attributed()[0] {
		t.Fatal("Env.Attributed is not the deployment's join")
	}
	db := e.Dep.GeoDB()
	e.GeoDBAdoption(100)
	if allocs := testing.AllocsPerRun(3, func() { e.GeoDBAdoption(5000) }); allocs > 100 {
		t.Fatalf("GeoDBAdoption allocs = %v: it is building its own database", allocs)
	}
	if e.Dep.GeoDB() != db {
		t.Fatal("deployment geo database replaced")
	}
}

func TestExportFigures(t *testing.T) {
	e := testEnv(t)
	dir := t.TempDir()
	files, err := e.ExportFigures(context.Background(), dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	// 6 geo panels + 16 CDFs (4 AS × 2 kinds × 2 fams) + 2 timelines.
	if len(files) != 6+16+2 {
		t.Fatalf("exported %d files", len(files))
	}
	// Spot-check one scatter and one CDF.
	checkLines := func(name string, header string, minRows int) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if lines[0] != header {
			t.Fatalf("%s header = %q", name, lines[0])
		}
		if len(lines)-1 < minRows {
			t.Fatalf("%s has %d rows, want ≥%d", name, len(lines)-1, minRows)
		}
	}
	checkLines("fig2-cloudflare.csv", "lat,lon,cc", 18218)
	checkLines("fig4-AkamaiPR-cities-ipv6.csv", "rank,cum_share", 14000)
	checkLines("fig3-open.csv", "round,seconds,operator", 10)
}
