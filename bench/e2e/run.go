package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"text/tabwriter"
	"time"
)

// sizes are the input sizes of the five workloads. The production
// values are fixed so a number means the same thing on every commit;
// only the tests shrink them.
type sizes struct {
	// worldSeed seeds every simulated world. It is not the run seed:
	// across world seeds the routed universe varies by 7 % (25 340 to
	// 27 164 /24s at scale 0.0008) and checkpoint cost grows faster than
	// the universe, so a per-run world would put input size, not the
	// program, into every comparison. The run seed drives what varies
	// without changing the amount of work: the fault schedule, the
	// report's Atlas population and relay-scan draws, tunnel payloads.
	worldSeed uint64
	// scanWorkers is core.Scan's Concurrency in the batch workloads. At
	// 2 workers one catch-up in three differs from the next in a serving
	// row (whichever worker first queries a /24 of a multi-operator AS
	// publishes the scope that accounts the rest), so byte-identical
	// outputs can only be demanded of a single worker. It costs nothing
	// here: a catch-up's user time equals its wall time at any setting.
	scanWorkers    int
	cycleScale     float64
	cycleProbes    int
	cleanMonths    int
	faultedMonths  int
	faultProfile   string // faults preset of cycle_faulted; the run seed is appended
	reportScale    float64
	tunnelSessions int // sequential Dial+Open+Close set-ups before the timed stream
	tunnelWarmups  int // discarded ops on the timed stream
	smallBurst     int // round trips per tunnel_small op
	bulkBytes      int
	bulkWarmups    int
	ledgerScale    float64 // world scale of the in-process layer probes
	ledgerIters    int     // iterations of each micro probe
}

var productionSizes = sizes{
	worldSeed:      6, // cmd/relayd's default
	scanWorkers:    1,
	cycleScale:     0.0008,
	cycleProbes:    500,
	cleanMonths:    4,
	faultedMonths:  2,
	faultProfile:   "harsh",
	reportScale:    0.002,
	tunnelSessions: 256,
	tunnelWarmups:  32,
	smallBurst:     64,
	bulkBytes:      1 << 20,
	bulkWarmups:    16,
	ledgerScale:    0.0008,
	ledgerIters:    20000,
}

// runConfig is one run's parameters.
type runConfig struct {
	seed      uint64
	window    time.Duration
	minOps    int
	trace     bool
	procs     int
	stateRoot string // fresh per-run directory for relayd state
	outDir    string // where traces and records go (inside the checkout)
	sizes     sizes
}

// usage is what a process has cost so far.
type usage struct {
	cpuS, rssMiB, gcPauseMs, mallocs float64
}

// opResult is one finished op. A child-process op carries what the
// kernel and the child reported about that process; in-process ops
// leave it nil and the runner reads its own process instead.
type opResult struct {
	dur   time.Duration
	work  float64
	child *usage
}

// session is a workload after set-up: ops run on it until the window
// closes. An op that returns an error — including a failed output
// check — is a failed op and is left out of every timing.
type session interface {
	op(ctx context.Context, tr *tracer) (opResult, error)
	close() error
}

type workload struct {
	name string
	why  string
	unit string // the work unit of work_per_s on this workload
	// setupRepeats is how many times set-up runs; setup_s is the median.
	// The batch workloads' set-up is a multi-second op already, so one
	// sample is steady; the tunnels' is sub-second and is repeated.
	setupRepeats int
	open         func(ctx context.Context, rc *runConfig) (session, error)
}

var workloads = []workload{
	{
		name: "cycle_clean", unit: "/24s", setupRepeats: 1, open: openCycle(false),
		why: "a relayd catch-up (4 months x 2 domains): the only path through checkpoint, atomicio, sidecar, diff, report and Atlas together",
	},
	{
		name: "cycle_faulted", unit: "/24s", setupRepeats: 1, open: openCycle(true),
		why: "the same layers under the harsh fault profile: retries, deferral passes, breaker and injector, so a fix that helps clean but hurts faulted shows",
	},
	{
		name: "report_full", unit: "/24s", setupRepeats: 1, open: openReport,
		why: "cmd/report's default run: no checkpoints or fsync, so cold scans, netsim, egress, bgp, analysis and atlas dominate; they are invisible in cycle_*",
	},
	{
		name: "tunnel_small", unit: "frames", setupRepeats: 7, open: openTunnel(false),
		why: "64-byte ping-pong through client, ingress, egress and target on loopback TCP: per-frame cost (codec, pools, wake-ups, admission) is everything",
	},
	{
		name: "tunnel_bulk", unit: "MiB", setupRepeats: 7, open: openTunnel(true),
		why: "1 MiB writes through the same chain: the copy path and per-chunk charging dominate and per-frame cost is diluted; loopback, not a link",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef is a metric's fixed description; BENCHMARK.json repeats it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.20},
	{"work_per_s", "1/s", "higher", 0.20},
}

// metric is a measured value next to its description and sample count.
type metric struct {
	metricDef
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

// record is one run of one workload, with the runner shape beside it.
type record struct {
	Workload  string `json:"workload"`
	WorkUnit  string `json:"work_unit"`
	Shape     shape  `json:"shape"`
	Ops       int    `json:"ops"`
	OpsFailed int    `json:"ops_failed"`
	Correct   bool   `json:"correct"`
	// OpMs is min, p25, p75 and max of the timed ops: how wide the run
	// was, beside the median that is its metric.
	OpMs     [4]float64 `json:"op_ms"`
	Segments []float64  `json:"segment_rates"`    // work_per_s of each segment, in run order
	Metrics  []metric   `json:"metrics"`          // end to end; from untraced ops only
	Layers   []metric   `json:"layers,omitempty"` // per layer; traced runs only
}

func (r *record) metric(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// selfUsage is this process's own cost so far (children excluded).
func selfUsage() usage {
	var u usage
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpuS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		u.rssMiB = float64(ru.Maxrss) / 1024
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.gcPauseMs = float64(ms.PauseTotalNs) / 1e6
	u.mallocs = float64(ms.Mallocs)
	return u
}

// runWorkload sets the workload up, runs ops until the window closes
// and returns the record. With rc.trace the ops alternate untraced and
// traced, and the layer ledger runs after the window.
func runWorkload(ctx context.Context, w workload, rc *runConfig, logw io.Writer) (*record, error) {
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}

	var setups []float64
	var s session
	for i := 0; i < w.setupRepeats; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("%s: closing set-up %d: %w", w.name, i, err)
			}
		}
		start := time.Now()
		var err error
		if s, err = w.open(ctx, rc); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var secs, work, tracedSecs []float64
	var childRSS []float64
	var children usage // summed over the window's child processes
	attempted, failed := 0, 0
	before := selfUsage()
	start := time.Now()
	for time.Since(start) < rc.window || attempted < rc.minOps {
		traced := rc.trace && attempted%2 == 1
		attempted++
		var optr *tracer
		if traced {
			tr.nextOp()
			optr = tr
		}
		res, err := s.op(ctx, optr)
		if ctx.Err() != nil {
			_ = s.close() // interrupted: the verdict is the interruption
			return nil, ctx.Err()
		}
		if err != nil {
			failed++
			if failed <= 3 {
				fmt.Fprintf(logw, "%s: op %d failed: %v\n", w.name, attempted, err)
			}
			if failed >= 3 && failed == attempted {
				break // nothing works; do not spin for the whole window
			}
			continue
		}
		if c := res.child; c != nil {
			childRSS = append(childRSS, c.rssMiB)
			children.cpuS += c.cpuS
			children.gcPauseMs += c.gcPauseMs
			children.mallocs += c.mallocs
		}
		if traced {
			tracedSecs = append(tracedSecs, res.dur.Seconds())
			continue
		}
		secs = append(secs, res.dur.Seconds())
		work = append(work, res.work)
	}
	after := selfUsage()
	closeErr := s.close()

	rec := &record{
		Workload:  w.name,
		WorkUnit:  w.unit,
		Shape:     newShape(rc),
		Ops:       attempted,
		OpsFailed: failed,
		Correct:   failed == 0 && closeErr == nil,
	}
	if closeErr != nil {
		fmt.Fprintf(logw, "%s: close: %v\n", w.name, closeErr)
	}
	if len(secs) == 0 {
		return rec, fmt.Errorf("%s: no op succeeded (%d attempted)", w.name, attempted)
	}
	rec.OpMs = [4]float64{percentile(secs, 0) * 1e3, percentile(secs, 25) * 1e3, percentile(secs, 75) * 1e3, percentile(secs, 100) * 1e3}
	rates := segmentRates(secs, work, 5)
	rec.Segments = rates
	values := map[string]metric{
		"setup_s":    {Value: median(setups), Samples: len(setups)},
		"op_p50_ms":  {Value: median(secs) * 1e3, Samples: len(secs)},
		"work_per_s": {Value: median(rates), Samples: len(rates)},
	}
	for _, def := range endToEnd {
		m := values[def.Name]
		m.metricDef = def
		rec.Metrics = append(rec.Metrics, m)
	}

	// Process cost of the window, whoever paid it: this process for the
	// tunnels, the children for the batch ops.
	good := float64(len(secs) + len(tracedSecs))
	busy := sum(secs) + sum(tracedSecs)
	cpu := after.cpuS - before.cpuS + children.cpuS
	layer := ledger{}
	layer.set("proc.peak_rss_mb", after.rssMiB, 1)
	if len(childRSS) > 0 {
		layer.set("proc.peak_rss_mb", median(childRSS), len(childRSS))
	}
	layer.set("proc.cpu_s_per_op", cpu/good, int(good))
	layer.set("proc.cpu_util", cpu/(busy*float64(rc.procs)), int(good))
	layer.set("proc.gc_pause_ms", (after.gcPauseMs-before.gcPauseMs+children.gcPauseMs)/good, int(good))
	layer.set("proc.allocs_per_op", (after.mallocs-before.mallocs+children.mallocs)/good, int(good))

	if rc.trace {
		if len(tracedSecs) > 0 {
			layer.set("trace.overhead_ratio", median(tracedSecs)/median(secs), len(tracedSecs))
		}
		if err := runLedger(ctx, rc, tr, layer); err != nil {
			return rec, fmt.Errorf("%s: ledger: %w", w.name, err)
		}
		for _, def := range perLayer {
			m, ok := layer[def.Name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				return rec, fmt.Errorf("%s: per-layer metric %s was not measured", w.name, def.Name)
			}
			m.metricDef = def
			rec.Layers = append(rec.Layers, m)
		}
		if err := tr.writeJSONL(filepath.Join(rc.outDir, "trace-"+w.name+".jsonl")); err != nil {
			return rec, err
		}
		if tr.dropped > 0 {
			fmt.Fprintf(logw, "%s: trace full, %d spans dropped (aggregates use the first %d)\n", w.name, tr.dropped, maxSpans)
		}
	}
	return rec, nil
}

// printRecord prints every metric by name with unit, bound and sample
// count, then the one-line result the driver reads.
func printRecord(w io.Writer, rec *record, trace bool) error {
	sh := rec.Shape
	fmt.Fprintf(w, "# workload=%s seed=%d window=%gs trace=%v nproc=%d gomaxprocs=%d go=%s commit=%s state=%s (%s)\n",
		rec.Workload, sh.Seed, sh.WindowS, trace, sh.NProc, sh.GoMaxProcs, sh.GoVersion, sh.Commit, sh.StateDir, sh.StateFS)
	if rec.WorkUnit == "frames" || rec.WorkUnit == "MiB" {
		fmt.Fprintln(w, "# traffic crossed the host loopback interface, not a link")
	}
	if trace {
		fmt.Fprintln(w, "# the end-to-end rows below come from the untraced half of a traced run; compare untraced runs only")
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tbetter\tbound\tsamples")
	for _, m := range rec.Metrics {
		unit := m.Unit
		if m.Name == "work_per_s" {
			unit = rec.WorkUnit + "/s"
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%.2f\t%d\n", m.Name, m.Value, unit, m.Better, m.Bound, m.Samples)
	}
	for _, m := range rec.Layers {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t-\t%d\n", m.Name, m.Value, m.Unit, m.Better, m.Samples)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "ops=%d ops_failed=%d op_ms min/p25/p75/max=%.6g/%.6g/%.6g/%.6g segment rates=%.6g\n",
		rec.Ops, rec.OpsFailed, rec.OpMs[0], rec.OpMs[1], rec.OpMs[2], rec.OpMs[3], rec.Segments)

	// The driver's line: --trace 0 carries the end-to-end metrics,
	// --trace 1 the per-layer ones.
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Ops, rec.OpsFailed, map[string]value{}}
	reported := rec.Metrics
	if trace {
		reported = rec.Layers
	}
	for _, m := range reported {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	return json.NewEncoder(w).Encode(out)
}

// appendRecord adds rec to the JSON array in path (created if absent).
func appendRecord(path string, rec *record) error {
	var recs []*record
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &recs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	data, err := json.MarshalIndent(append(recs, rec), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
