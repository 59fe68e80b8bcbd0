// Command benchdiff gates the benchmark trajectory: it compares a fresh
// benchjson run against a committed baseline (BENCH_exchange.json,
// BENCH_pipeline.json, BENCH_persist.json) and exits non-zero when any
// shared benchmark regressed beyond its threshold — throughput
// (items/sec) down, or ns/op up, by more than the allowed percent. CI
// runs it in the bench-gate job; locally it hides behind
// `make check BENCH_GATE=1`.
//
// Usage:
//
//	benchdiff [-threshold 10] [-threshold-for regex=pct]... baseline.json fresh.json [fresh2.json ...]
//
// Noisy benchmarks get two relief valves:
//
//   - -threshold-for widens (or tightens) the gate per benchmark:
//     repeatable, first matching regex wins, e.g.
//     -threshold-for 'BenchmarkScanThroughput.*=35' for the
//     single-iteration scan bench whose run-to-run spread is ±15%.
//   - Passing several fresh files gates on the per-metric median of
//     the runs (median-of-3 kills one-off scheduler hiccups without
//     hiding a real trend).
//
// Benchmarks present in only one file are listed but never fail the
// gate: adding or renaming a benchmark should not require a baseline
// update in the same commit to keep CI green.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result mirrors cmd/benchjson's output entry. Only the fields the
// gate compares are decoded; unknown keys are ignored so the formats
// can grow independently.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	ItemsPerSec float64 `json:"items_per_sec"`
	ItemsUnit   string  `json:"items_unit"`
}

// thresholdRule is one -threshold-for override.
type thresholdRule struct {
	re  *regexp.Regexp
	pct float64
}

// thresholds resolves a benchmark name to its gate percentage: the
// first matching -threshold-for rule, else the global default.
type thresholds struct {
	rules      []thresholdRule
	defaultPct float64
}

func (t *thresholds) forName(name string) float64 {
	for _, r := range t.rules {
		if r.re.MatchString(name) {
			return r.pct
		}
	}
	return t.defaultPct
}

// ruleFlag parses repeated `-threshold-for regex=pct` flags.
type ruleFlag struct{ rules *[]thresholdRule }

func (f ruleFlag) String() string { return "" }

func (f ruleFlag) Set(v string) error {
	eq := strings.LastIndexByte(v, '=')
	if eq < 0 {
		return fmt.Errorf("want regex=pct, got %q", v)
	}
	re, err := regexp.Compile(v[:eq])
	if err != nil {
		return err
	}
	pct, err := strconv.ParseFloat(v[eq+1:], 64)
	if err != nil {
		return fmt.Errorf("bad percentage in %q: %w", v, err)
	}
	*f.rules = append(*f.rules, thresholdRule{re: re, pct: pct})
	return nil
}

// verdict classifies one benchmark's old→new movement.
type verdict int

const (
	verdictOK verdict = iota
	verdictImproved
	verdictRegressed
	verdictOnlyBaseline
	verdictOnlyFresh
)

func (v verdict) String() string {
	switch v {
	case verdictImproved:
		return "improved"
	case verdictRegressed:
		return "REGRESSED"
	case verdictOnlyBaseline:
		return "only in baseline"
	case verdictOnlyFresh:
		return "only in fresh run"
	default:
		return "ok"
	}
}

// row is one line of the comparison table.
type row struct {
	Name    string
	Metric  string  // "subnets/sec", "ns/op", ...
	Old     float64
	New     float64
	Delta   float64 // percent, sign follows the raw metric direction
	Verdict verdict
}

// diff compares fresh against baseline benchmark by benchmark.
// Throughput metrics gate on relative loss, ns/op on relative growth;
// a benchmark reporting items/sec is judged on that alone (its ns/op
// moves inversely and would double-count the same change). The bool
// reports whether any row regressed beyond its threshold.
func diff(baseline, fresh map[string]Result, thr *thresholds) ([]row, bool) {
	names := map[string]bool{}
	for n := range baseline {
		names[n] = true
	}
	for n := range fresh {
		names[n] = true
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)

	var rows []row
	regressed := false
	for _, name := range ordered {
		old, inOld := baseline[name]
		cur, inNew := fresh[name]
		switch {
		case !inNew:
			rows = append(rows, row{Name: name, Verdict: verdictOnlyBaseline})
			continue
		case !inOld:
			rows = append(rows, row{Name: name, Verdict: verdictOnlyFresh})
			continue
		}
		thresholdPct := thr.forName(name)
		r := row{Name: name}
		if old.ItemsPerSec > 0 && cur.ItemsPerSec > 0 {
			unit := old.ItemsUnit
			if unit == "" {
				unit = "items"
			}
			r.Metric = unit + "/sec"
			r.Old, r.New = old.ItemsPerSec, cur.ItemsPerSec
			r.Delta = (cur.ItemsPerSec - old.ItemsPerSec) / old.ItemsPerSec * 100
			if r.Delta < -thresholdPct {
				r.Verdict = verdictRegressed
			} else if r.Delta > thresholdPct {
				r.Verdict = verdictImproved
			}
		} else if old.NsPerOp > 0 && cur.NsPerOp > 0 {
			r.Metric = "ns/op"
			r.Old, r.New = old.NsPerOp, cur.NsPerOp
			r.Delta = (cur.NsPerOp - old.NsPerOp) / old.NsPerOp * 100
			if r.Delta > thresholdPct {
				r.Verdict = verdictRegressed
			} else if r.Delta < -thresholdPct {
				r.Verdict = verdictImproved
			}
		}
		if r.Verdict == verdictRegressed {
			regressed = true
		}
		rows = append(rows, r)
	}
	return rows, regressed
}

// medianResults folds several fresh runs into one result set: each
// metric is the per-benchmark median over the runs reporting it. A
// benchmark missing from some runs is judged on the runs that have it.
func medianResults(runs []map[string]Result) map[string]Result {
	if len(runs) == 1 {
		return runs[0]
	}
	names := map[string]bool{}
	for _, run := range runs {
		for n := range run {
			names[n] = true
		}
	}
	out := make(map[string]Result, len(names))
	for n := range names {
		var ns, items []float64
		unit := ""
		for _, run := range runs {
			r, ok := run[n]
			if !ok {
				continue
			}
			if r.NsPerOp > 0 {
				ns = append(ns, r.NsPerOp)
			}
			if r.ItemsPerSec > 0 {
				items = append(items, r.ItemsPerSec)
			}
			if unit == "" {
				unit = r.ItemsUnit
			}
		}
		out[n] = Result{NsPerOp: median(ns), ItemsPerSec: median(items), ItemsUnit: unit}
	}
	return out
}

// median returns the middle value (lower-middle for even counts; the
// conservative pick for a gate) or 0 for an empty set.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return vals[(len(vals)-1)/2]
}

// formatTable renders rows with aligned columns for terminal reading.
func formatTable(rows []row) string {
	var sb strings.Builder
	nameW := len("benchmark")
	for _, r := range rows {
		if len(r.Name) > nameW {
			nameW = len(r.Name)
		}
	}
	fmt.Fprintf(&sb, "%-*s  %14s  %14s  %8s  %-12s  %s\n",
		nameW, "benchmark", "baseline", "fresh", "delta", "metric", "verdict")
	for _, r := range rows {
		if r.Metric == "" {
			fmt.Fprintf(&sb, "%-*s  %14s  %14s  %8s  %-12s  %s\n",
				nameW, r.Name, "-", "-", "-", "-", r.Verdict)
			continue
		}
		fmt.Fprintf(&sb, "%-*s  %14s  %14s  %+7.1f%%  %-12s  %s\n",
			nameW, r.Name, formatNum(r.Old), formatNum(r.New), r.Delta, r.Metric, r.Verdict)
	}
	return sb.String()
}

// formatNum prints a measurement compactly without scientific notation.
func formatNum(v float64) string {
	if v >= 100 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

// readResults decodes one benchjson file.
func readResults(path string) (map[string]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]Result{}
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

func main() {
	thr := &thresholds{}
	flag.Float64Var(&thr.defaultPct, "threshold", 10, "default regression threshold in percent")
	flag.Var(ruleFlag{&thr.rules}, "threshold-for",
		"per-benchmark threshold override as regex=pct (repeatable, first match wins)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold pct] [-threshold-for regex=pct]... baseline.json fresh.json [fresh2.json ...]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 2 {
		flag.Usage()
		os.Exit(2)
	}
	baseline, err := readResults(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	var runs []map[string]Result
	for _, path := range flag.Args()[1:] {
		run, err := readResults(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		runs = append(runs, run)
	}
	rows, regressed := diff(baseline, medianResults(runs), thr)
	os.Stdout.WriteString(formatTable(rows))
	if regressed {
		fmt.Fprintf(os.Stderr, "benchdiff: regression beyond threshold against %s\n", flag.Arg(0))
		os.Exit(1)
	}
}
