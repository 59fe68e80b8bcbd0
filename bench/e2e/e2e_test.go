package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The test binary doubles as the op child, as the benchmark binary does.
func TestMain(m *testing.M) {
	if raw := os.Getenv(childEnv); raw != "" {
		if err := childMain(raw, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "e2e child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testSizes shrink every workload so the whole suite smokes in seconds.
var testSizes = sizes{
	worldSeed:      6,
	scanWorkers:    1,
	cycleScale:     0.00001,
	cycleProbes:    40,
	cleanMonths:    2,
	faultedMonths:  1,
	faultProfile:   "mild",
	reportScale:    0.00001,
	tunnelSessions: 4,
	tunnelWarmups:  2,
	smallBurst:     8,
	bulkBytes:      1 << 20,
	bulkWarmups:    1,
	ledgerScale:    0.00001,
	ledgerIters:    200,
}

func testConfig(t *testing.T, trace bool) *runConfig {
	t.Helper()
	dir := t.TempDir()
	return &runConfig{
		seed: 6, window: 200 * time.Millisecond, minOps: 1, trace: trace,
		procs: 2, stateRoot: dir, outDir: dir, sizes: testSizes,
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); !approx(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); !approx(got, 2.5) {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestSegmentMedianIgnoresOneBurst(t *testing.T) {
	secs := make([]float64, 50)
	work := make([]float64, 50)
	for i := range secs {
		secs[i], work[i] = 0.001, 1
	}
	for i := 20; i < 30; i++ { // one noisy-neighbour burst, inside one segment
		secs[i] = 0.010
	}
	rates := segmentRates(secs, work, 5)
	if len(rates) != 5 {
		t.Fatalf("got %d segments, want 5", len(rates))
	}
	if got := median(rates); !approx(got, 1000) {
		t.Errorf("median segment = %v, want 1000: the burst moved it", got)
	}
	if total := sum(work) / sum(secs); total > 400 {
		t.Errorf("whole-run rate %v should show the burst this test plants", total)
	}
	// Fewer ops than segments: one segment per op, none empty.
	if got := segmentRates([]float64{1, 2}, []float64{4, 4}, 5); len(got) != 2 || got[0] != 4 || got[1] != 2 {
		t.Errorf("two ops gave %v", got)
	}
	// Uneven split: seven ops land in five segments, each op in one.
	seven := []float64{1, 1, 1, 1, 1, 1, 1}
	if got := segmentRates(seven, seven, 5); len(got) != 5 || sum(got) != 5 {
		t.Errorf("seven unit ops gave %v", got)
	}
}

func TestRelDiffDirection(t *testing.T) {
	if got := relDiff(100, 110, "lower"); !approx(got, 0.10) {
		t.Errorf("lower-is-better, b slower: %v", got)
	}
	if got := relDiff(100, 90, "higher"); !approx(got, 0.10) {
		t.Errorf("higher-is-better, b lower: %v", got)
	}
	if got := relDiff(100, 90, "lower"); got >= 0 {
		t.Errorf("an improvement must be negative, got %v", got)
	}
}

func TestSelfTimeNestedAndSiblings(t *testing.T) {
	ms := func(n int64) int64 { return n * 1e6 }
	spans := []span{
		{Name: "op", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(40), Parent: 0},       // sibling
		{Name: "b", Start: ms(50), End: ms(90), Parent: 0},       // sibling
		{Name: "b.inner", Start: ms(60), End: ms(70), Parent: 2}, // nested: only b loses it
		{Name: "c", Start: ms(30), End: ms(55), Parent: 0},       // overlaps a and b: counted once
	}
	want := []float64{0.020, 0.030, 0.030, 0.010, 0.025}
	for i, got := range selfTimes(spans) {
		if !approx(got, want[i]) {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got, want[i])
		}
	}
}

func TestTracerParentsOpsAndAdopt(t *testing.T) {
	tr := newTracer()
	tr.nextOp()
	_ = tr.do("op", func() error {
		_ = tr.do("stage", func() error { return tr.do("leaf", func() error { return nil }) })
		return tr.do("stage", func() error { return nil })
	})
	if got := []int{tr.spans[0].Parent, tr.spans[1].Parent, tr.spans[2].Parent, tr.spans[3].Parent}; fmt.Sprint(got) != "[-1 0 1 0]" {
		t.Errorf("parents = %v", got)
	}
	tr.nextOp()
	tr.adopt([]span{{Name: "child.op", End: 5, Parent: -1}, {Name: "stage", End: 2e9, Parent: 0}})
	if s := tr.spans[5]; s.Parent != 4 || s.Op != 2 {
		t.Errorf("adopted span = %+v, want parent 4 in op 2", s)
	}
	per := tr.perOp("stage")
	if len(per) != 2 || !approx(per[1], 2) {
		t.Errorf("perOp(stage) = %v, want two ops, the second 2 s", per)
	}

	var none *tracer // the untraced run
	ran := false
	if err := none.do("x", func() error { ran = true; return nil }); err != nil || !ran {
		t.Error("nil tracer must still run the op")
	}
	none.nextOp()
	none.adopt(nil)
}

func TestStageSumTolerance(t *testing.T) {
	for _, c := range []struct {
		ratio float64
		ok    bool
	}{{1, true}, {0.951, true}, {1.049, true}, {0.94, false}, {1.06, false}} {
		if err := checkStageSum("x", c.ratio); (err == nil) != c.ok {
			t.Errorf("ratio %v: err = %v, want ok = %v", c.ratio, err, c.ok)
		}
	}
	sec := func(s float64) int64 { return int64(s * 1e9) }
	tr := &tracer{spans: []span{
		{Name: "cycle.op", End: sec(10), Parent: -1, Op: 1},
		{Name: "s1", End: sec(6), Parent: 0, Op: 1},
		{Name: "s2", Start: sec(6), End: sec(9.8), Parent: 0, Op: 1},
	}}
	out := ledger{}
	if err := stageLedger(tr, "cycle.op", []string{"s1", "s2"}, "ratio", out); err != nil {
		t.Fatal(err)
	}
	if !approx(out["ratio"].Value, 0.98) || !approx(out["s2_s"].Value, 3.8) {
		t.Errorf("ledger = %+v", out)
	}
	tr.spans[2].End = sec(7) // a 3 s hole the stages do not explain
	if err := stageLedger(tr, "cycle.op", []string{"s1", "s2"}, "ratio", ledger{}); err == nil {
		t.Error("a stage sum of 0.70 was accepted")
	}
	if err := stageLedger(tr, "cycle.op", []string{"s1", "missing"}, "ratio", ledger{}); err == nil {
		t.Error("a stage that never ran was accepted")
	}
}

func TestTreeDigestDeterminism(t *testing.T) {
	files := map[string]string{
		"datasets/mask/2022-01.ds":     "A 1.2.3.4,714\n",
		"datasets/mask/2022-01.ds.col": "\x00\x01binary",
		"diffs/mask/gen-0001.diff":     "+ 1.2.3.5\n",
		"checkpoints/mask/x.ckpt":      "scratch: not part of the digest",
	}
	build := func(order []string, mutate func(name string) string) string {
		root := t.TempDir()
		for _, name := range order {
			path := filepath.Join(root, filepath.FromSlash(name))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(mutate(name)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		d, err := treeDigest(root, "datasets", "diffs")
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	same := func(name string) string { return files[name] }
	fwd := []string{"datasets/mask/2022-01.ds", "datasets/mask/2022-01.ds.col", "diffs/mask/gen-0001.diff", "checkpoints/mask/x.ckpt"}
	rev := []string{fwd[3], fwd[2], fwd[1], fwd[0]}
	base := build(fwd, same)
	if got := build(rev, same); got != base {
		t.Error("creation order changed the digest")
	}
	if got := build(fwd, func(n string) string {
		if strings.HasPrefix(n, "checkpoints/") {
			return "different scratch"
		}
		return files[n]
	}); got != base {
		t.Error("scratch outside datasets/ and diffs/ changed the digest")
	}
	if got := build(fwd, func(n string) string {
		if strings.HasSuffix(n, ".diff") {
			return "+ 1.2.3.6\n"
		}
		return files[n]
	}); got == base {
		t.Error("a changed diff byte did not change the digest")
	}
	if got := build(fwd[:2], same); got == base { // diffs/ absent: legal, but a different tree
		t.Error("a missing subtree did not change the digest")
	}
	if _, err := treeDigest(t.TempDir(), "datasets", "diffs"); err == nil {
		t.Error("an empty state dir must not digest to a value")
	}
	if textDigest("b\na\n") != textDigest("a\nb\n") || textDigest("a\nb\n") == textDigest("a\nc\n") {
		t.Error("textDigest must ignore line order and nothing else")
	}
}

func TestChildRoundTrip(t *testing.T) {
	t.Parallel()
	rc := testConfig(t, false)
	spec := childSpec{
		Kind: "cycle", Seed: 6, Scale: testSizes.cycleScale, Procs: 2, ScanWorkers: 1, Months: 2,
		AtlasProbes: testSizes.cycleProbes, StateDir: filepath.Join(rc.stateRoot, "plain"),
	}
	plain, ps, err := runChild(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Digest) != 64 || plain.Spans != nil || plain.Mallocs == 0 {
		t.Errorf("untraced result = %+v", plain)
	}
	if ps.wall <= 0 || ps.cpuS <= 0 || ps.rssMiB <= 0 {
		t.Errorf("kernel stats = %+v", ps)
	}
	spec.Trace, spec.StateDir = true, filepath.Join(rc.stateRoot, "traced")
	traced, _, err := runChild(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Digest != plain.Digest {
		t.Error("the staged (traced) catch-up wrote different bytes than Service.Step")
	}
	if len(traced.Spans) == 0 || traced.Spans[0].Name != "cycle.op" || traced.Spans[1].Parent != 0 {
		t.Errorf("traced spans = %+v", traced.Spans)
	}
	// What the child prints is exactly what the parent decodes.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(traced); err != nil {
		t.Fatal(err)
	}
	var back childResult
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil || len(back.Spans) != len(traced.Spans) || back.Spans[1] != traced.Spans[1] {
		t.Errorf("round trip lost spans: %v", err)
	}

	spec.Kind = "nonsense"
	if _, _, err := runChild(context.Background(), spec); err == nil || !strings.Contains(err.Error(), "nonsense") {
		t.Errorf("a failing child must surface its stderr, got %v", err)
	}
}

func TestWorkloadSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // correctness only: nothing here reads a timing
			w.setupRepeats = 1
			rec, err := runWorkload(context.Background(), w, testConfig(t, false), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Ops < 1 || rec.OpsFailed != 0 || !rec.Correct {
				t.Fatalf("ops=%d failed=%d correct=%v", rec.Ops, rec.OpsFailed, rec.Correct)
			}
			for _, def := range endToEnd {
				m, ok := rec.metric(def.Name)
				if !ok || !(m.Value > 0) || m.Samples < 1 || m.Bound != def.Bound {
					t.Errorf("%s = %+v", def.Name, m)
				}
			}
			var out bytes.Buffer
			if err := printRecord(&out, rec, false); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not the result object: %v", err)
			}
			if !last.Correct || last.Attempted != rec.Ops || len(last.Metrics) != len(endToEnd) {
				t.Errorf("result line = %+v", last)
			}
		})
	}
}

// A wrong answer must be a failed op, not a fast one.
func TestWrongDigestFailsTheOp(t *testing.T) {
	t.Parallel()
	rc := testConfig(t, false)
	s := cycleSession(rc, 1)
	s.want = strings.Repeat("0", 64)
	if _, err := s.op(context.Background(), nil); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Errorf("op with a wrong reference digest: err = %v", err)
	}
}

func TestTracedRunPrintsWholeLedger(t *testing.T) {
	t.Parallel()
	w, _ := findWorkload("tunnel_small")
	w.setupRepeats = 1
	rc := testConfig(t, true)
	rec, err := runWorkload(context.Background(), w, rc, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Layers) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(rec.Layers), len(perLayer))
	}
	for _, m := range rec.Layers {
		if strings.HasSuffix(m.Name, "stage_sum_ratio") && math.Abs(m.Value-1) > stageSumTolerance {
			t.Errorf("%s = %v", m.Name, m.Value)
		}
	}
	trace, err := os.ReadFile(filepath.Join(rc.outDir, "trace-tunnel_small.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tunnel.op", "cycle.op", "relayd.scan_campaign", "report.op", "experiments.table1", "probe.scan", "masque.dial"} {
		if !bytes.Contains(trace, []byte(`"name":"`+name+`"`)) {
			t.Errorf("trace file has no %s span", name)
		}
	}
	var out bytes.Buffer
	if err := printRecord(&out, rec, true); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct{ Metrics map[string]json.RawMessage }
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if _, ok := last.Metrics["op_p50_ms"]; ok || len(last.Metrics) != len(perLayer) {
		t.Errorf("a traced result line must carry the per-layer metrics only, got %d", len(last.Metrics))
	}
}

func TestCompareRefusesDifferentShapes(t *testing.T) {
	base := shape{NProc: 2, GoMaxProcs: 2, GoVersion: "go1.24.0", Commit: "aaa", Seed: 6, WindowS: 20, StateFS: "tmpfs", StateDir: "/dev/shm/x"}
	rec := func(sh shape, p50 float64) []*record {
		return []*record{{Workload: "cycle_clean", Shape: sh, Metrics: []metric{{metricDef: endToEnd[1], Value: p50, Samples: 9}}}}
	}
	other := base
	other.Commit, other.StateDir = "bbb", "/dev/shm/y" // may differ
	if why := base.comparable(other); why != "" {
		t.Errorf("commit and state path must not block a comparison: %s", why)
	}
	for name, change := range map[string]func(*shape){
		"nproc":      func(s *shape) { s.NProc = 8 },
		"gomaxprocs": func(s *shape) { s.GoMaxProcs = 4 },
		"go":         func(s *shape) { s.GoVersion = "go1.25.0" },
		"seed":       func(s *shape) { s.Seed = 7 },
		"window":     func(s *shape) { s.WindowS = 10 },
		"trace":      func(s *shape) { s.Trace = true },
		"fs":         func(s *shape) { s.StateFS = "other" },
	} {
		sh := base
		change(&sh)
		if _, err := compareRecords(io.Discard, rec(base, 100), rec(sh, 100), false); err == nil {
			t.Errorf("%s: records of different shape were compared", name)
		}
	}
	for _, c := range []struct {
		b      float64
		breach bool
	}{{100, false}, {119, false}, {121, true}, {50, false}} {
		breached, err := compareRecords(io.Discard, rec(base, 100), rec(other, c.b), false)
		if err != nil || breached != c.breach {
			t.Errorf("b=%v: breached=%v err=%v, want %v", c.b, breached, err, c.breach)
		}
	}
	// A repeat has no baseline: the first run being the slower one counts.
	if breached, _ := compareRecords(io.Discard, rec(base, 100), rec(other, 50), true); !breached {
		t.Error("-agree accepted runs that differ by half")
	}
	if _, err := compareRecords(io.Discard, rec(base, 1), []*record{{Workload: "report_full", Shape: base}}, false); err == nil {
		t.Error("a workload missing from one file was accepted")
	}
}

// BENCHMARK.json is the contract other changes are judged by; it must
// say what this program measures.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs %s", i, spec.Workloads[i], w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	if fmt.Sprint(spec.EndToEnd) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end = %v, program has %v", spec.EndToEnd, endToEnd)
	}
	if fmt.Sprint(spec.PerLayer) != fmt.Sprint(perLayer) {
		t.Errorf("per_layer differs from the program's catalogue")
	}
}
