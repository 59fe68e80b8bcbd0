package experiments

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/relay-networks/privaterelay/internal/analysis"
	"github.com/relay-networks/privaterelay/internal/bgp"
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
