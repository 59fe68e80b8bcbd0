package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"
)

// perLayer is the catalogue of per-layer metrics a traced run reports.
// They have no bound: they say where an end-to-end number went, and
// bench/README.md records which end-to-end metric each should move.
var perLayer = []metricDef{
	// relayd stages, from the traced catch-up op (Service.Step's order).
	{Name: "relayd.new_pipeline_s", Unit: "s", Better: "lower"},
	{Name: "relayd.scan_campaign_s", Unit: "s", Better: "lower"},
	{Name: "relayd.ensure_diffs_s", Unit: "s", Better: "lower"},
	{Name: "relayd.write_report_s", Unit: "s", Better: "lower"},
	{Name: "relayd.run_atlas_s", Unit: "s", Better: "lower"},
	{Name: "relayd.stage_sum_ratio", Unit: "ratio", Better: "higher"},
	// One scan, decomposed.
	{Name: "core.scan_cold_s", Unit: "s", Better: "lower"},
	{Name: "core.scan_warm_s", Unit: "s", Better: "lower"},
	{Name: "core.scan_ckpt_s", Unit: "s", Better: "lower"},
	{Name: "core.checkpoint_write_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.save_canonical_ms", Unit: "ms", Better: "lower"},
	{Name: "core.load_columns_ms", Unit: "ms", Better: "lower"},
	{Name: "core.scan_queries", Unit: "count", Better: "lower"},
	{Name: "core.scan_retries", Unit: "count", Better: "lower"},
	{Name: "core.scan_passes", Unit: "count", Better: "lower"},
	{Name: "core.breaker_trips", Unit: "count", Better: "lower"},
	{Name: "core.useful_ratio", Unit: "ratio", Better: "higher"},
	// Under the scan.
	{Name: "netsim.world_build_s", Unit: "s", Better: "lower"},
	{Name: "netsim.routed_prefixes_s", Unit: "s", Better: "lower"},
	{Name: "dnsserver.handle_cold_ns", Unit: "ns", Better: "lower"},
	{Name: "dnsserver.handle_warm_ns", Unit: "ns", Better: "lower"},
	{Name: "dnsserver.mem_exchange_ns", Unit: "ns", Better: "lower"},
	{Name: "dnswire.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "dnswire.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "dnswire.allocs_per_exchange", Unit: "count", Better: "lower"},
	{Name: "dnsserver.udp_exchange_p50_us", Unit: "us", Better: "lower"},
	{Name: "dnsserver.udp_exchange_allocs", Unit: "count", Better: "lower"},
	{Name: "faults.injected_share", Unit: "ratio", Better: "lower"},
	{Name: "faults.injector_ns_per_exchange", Unit: "ns", Better: "lower"},
	// Durable formats.
	{Name: "atomicio.write_state_p50_us", Unit: "us", Better: "lower"},
	{Name: "atomicio.write_tmp_p50_us", Unit: "us", Better: "lower"},
	{Name: "colstore.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "colstore.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "colstore.diff_ms", Unit: "ms", Better: "lower"},
	// The report's stages, from the traced report op, and what they call.
	{Name: "experiments.newenv_s", Unit: "s", Better: "lower"},
	{Name: "experiments.table1_s", Unit: "s", Better: "lower"},
	{Name: "experiments.analysis_s", Unit: "s", Better: "lower"},
	{Name: "experiments.relayscan_s", Unit: "s", Better: "lower"},
	{Name: "experiments.quic_s", Unit: "s", Better: "lower"},
	{Name: "experiments.atlas_s", Unit: "s", Better: "lower"},
	{Name: "experiments.correlation_s", Unit: "s", Better: "lower"},
	{Name: "experiments.qoe_s", Unit: "s", Better: "lower"},
	{Name: "experiments.stage_sum_ratio", Unit: "ratio", Better: "higher"},
	{Name: "egress.generate_s", Unit: "s", Better: "lower"},
	{Name: "egress.attribute_s", Unit: "s", Better: "lower"},
	{Name: "egress.entries", Unit: "count", Better: "higher"},
	{Name: "bgp.index_build_s", Unit: "s", Better: "lower"},
	{Name: "bgp.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "analysis.table3_s", Unit: "s", Better: "lower"},
	{Name: "analysis.table4_s", Unit: "s", Better: "lower"},
	{Name: "atlas.population_build_s", Unit: "s", Better: "lower"},
	{Name: "atlas.campaign_s", Unit: "s", Better: "lower"},
	{Name: "atlas.probes_per_s", Unit: "1/s", Better: "higher"},
	// The wire tunnel.
	{Name: "masque.dial_ms", Unit: "ms", Better: "lower"},
	{Name: "masque.open_stream_ms", Unit: "ms", Better: "lower"},
	{Name: "masque.rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "masque.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "masque.frame_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "masque.plane_relay_ns", Unit: "ns", Better: "lower"},
	{Name: "masque.admit_ns", Unit: "ns", Better: "lower"},
	{Name: "masque.loopback_raw_rtt_us", Unit: "us", Better: "lower"},
	{Name: "masque.loopback_raw_mib_s", Unit: "MiB/s", Better: "higher"},
	{Name: "masque.relay_over_raw_ratio", Unit: "ratio", Better: "lower"},
	{Name: "masque.udp_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "masque.rejects", Unit: "count", Better: "lower"},
	// The processes that ran the window's ops.
	{Name: "proc.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "proc.cpu_s_per_op", Unit: "s", Better: "lower"},
	{Name: "proc.cpu_util", Unit: "ratio", Better: "higher"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// ledger collects per-layer values with the number of samples behind
// each (spans, or loop iterations of a micro probe).
type ledger map[string]metric

func (l ledger) set(name string, value float64, samples int) {
	l[name] = metric{Value: value, Samples: samples}
}

// stageSumTolerance is how far a traced op's stage spans may fall short
// of (or exceed) the op's own span before the decomposition is refused:
// a ledger whose layers do not add up explains nothing.
const stageSumTolerance = 0.05

var cycleStages = []string{
	"relayd.new_pipeline", "relayd.scan_campaign", "relayd.ensure_diffs", "relayd.write_report", "relayd.run_atlas",
}

var reportStages = []string{
	"experiments.newenv", "experiments.table1", "experiments.analysis", "experiments.relayscan",
	"experiments.quic", "experiments.atlas", "experiments.correlation", "experiments.qoe",
}

// stageLedger turns one traced op kind into its stage metrics: the
// median over ops of each stage's time, and the stage sum ÷ op total.
func stageLedger(tr *tracer, opSpan string, stages []string, ratioName string, out ledger) error {
	totals := tr.perOp(opSpan)
	if len(totals) == 0 {
		return fmt.Errorf("no traced %s", opSpan)
	}
	sums := make([]float64, len(totals))
	for _, st := range stages {
		per := tr.perOp(st)
		if len(per) != len(totals) {
			return fmt.Errorf("stage %s ran in %d of %d traced ops", st, len(per), len(totals))
		}
		out.set(st+"_s", median(per), len(per))
		for i, v := range per {
			sums[i] += v
		}
	}
	ratios := make([]float64, len(totals))
	for i := range totals {
		ratios[i] = sums[i] / totals[i]
	}
	out.set(ratioName, median(ratios), len(ratios))
	return checkStageSum(ratioName, median(ratios))
}

func checkStageSum(name string, ratio float64) error {
	if ratio < 1-stageSumTolerance || ratio > 1+stageSumTolerance {
		return fmt.Errorf("%s = %.3f: stages do not add up to the op within %.2f", name, ratio, stageSumTolerance)
	}
	return nil
}

// runLedger fills out with every per-layer metric. The relayd and
// experiments stages come from the window's own traced ops when the
// workload is that product path; otherwise one traced op of each is run
// here, so every traced run prints the whole ledger.
func runLedger(ctx context.Context, rc *runConfig, tr *tracer, out ledger) error {
	for _, path := range []struct {
		opSpan, ratio string
		stages        []string
		probe         *batchSession
	}{
		{"cycle.op", "relayd.stage_sum_ratio", cycleStages, cycleSession(rc, rc.sizes.cleanMonths)},
		{"report.op", "experiments.stage_sum_ratio", reportStages, reportSession(rc)},
	} {
		if len(tr.each(path.opSpan)) == 0 {
			tr.nextOp()
			if _, err := path.probe.op(ctx, tr); err != nil {
				return fmt.Errorf("%s probe: %w", path.opSpan, err)
			}
		}
		if err := stageLedger(tr, path.opSpan, path.stages, path.ratio, out); err != nil {
			return err
		}
	}
	tr.nextOp()
	dir, err := os.MkdirTemp(rc.stateRoot, "probes-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	p := &probes{rc: rc, tr: tr, out: out, dir: dir}
	for _, probe := range []struct {
		name string
		run  func(context.Context) error
	}{
		{"scan", p.scan}, // first: storage needs its datasets
		{"dns", p.dns},
		{"storage", p.storage},
		{"pipeline", p.pipeline},
		{"tunnel", p.tunnel},
	} {
		if err := tr.do("probe."+probe.name, func() error { return probe.run(ctx) }); err != nil {
			return fmt.Errorf("%s probe: %w", probe.name, err)
		}
	}
	return nil
}

// perIter runs f n times and returns mean wall nanoseconds and mean
// heap allocations per call. The allocation count is process-wide, so
// it is exact only while nothing else allocates — true for the probes,
// which run alone after the window.
func perIter(n int, f func(i int) error) (ns, allocs float64, err error) {
	before := mallocs()
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	return float64(elapsed.Nanoseconds()) / float64(n), (mallocs() - before) / float64(n), nil
}

// mallocs is the process's heap allocation count so far.
func mallocs() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs)
}

// eachIter runs f n times and returns every call's wall seconds.
func eachIter(n int, f func(i int) error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := f(i); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}
