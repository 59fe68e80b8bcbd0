package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/relay-networks/privaterelay/internal/analysis"
	"github.com/relay-networks/privaterelay/internal/experiments"
	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/relayd"
	"github.com/relay-networks/privaterelay/internal/vclock"
)

// Batch ops run one per fresh child process: repeating FullReport in one
// process drifted 4.3 s → 8.4 s over seven ops (dnsserver's world cache
// pins every world ever built), while fresh processes stayed within
// 4.2–4.7 s. The child is this same binary, selected by childEnv.
const childEnv = "BENCH_E2E_CHILD"

// childSpec is the whole input of one child op.
type childSpec struct {
	Kind         string  `json:"kind"`     // "cycle" or "report"
	Seed         uint64  `json:"seed"`     // world seed: fixes the size of the inputs
	RunSeed      uint64  `json:"run_seed"` // report: the Atlas population and relay-scan draws
	Scale        float64 `json:"scale"`
	Procs        int     `json:"procs"`
	ScanWorkers  int     `json:"scan_workers"`
	Trace        bool    `json:"trace"`
	StateDir     string  `json:"state_dir,omitempty"`
	FaultProfile string  `json:"fault_profile,omitempty"`
	Months       int     `json:"months,omitempty"`
	AtlasProbes  int     `json:"atlas_probes,omitempty"`
}

// childResult is what a child prints on stdout, as one JSON line.
type childResult struct {
	Digest    string  `json:"digest"`
	Work      float64 `json:"work"`
	Spans     []span  `json:"spans,omitempty"`
	GCPauseMs float64 `json:"gc_pause_ms"`
	Mallocs   float64 `json:"mallocs"`
}

// procStats is what the parent learns about a finished child from the
// kernel, not from the child.
type procStats struct {
	wall   time.Duration
	cpuS   float64
	rssMiB float64
}

// runChild runs one op in a fresh process and waits for it.
func runChild(ctx context.Context, spec childSpec) (childResult, procStats, error) {
	var res childResult
	exe, err := os.Executable()
	if err != nil {
		return res, procStats{}, err
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return res, procStats{}, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err = cmd.Run()
	ps := procStats{wall: time.Since(start)}
	if err != nil {
		return res, ps, fmt.Errorf("child %s: %w: %s", spec.Kind, err, strings.TrimSpace(stderr.String()))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		ps.cpuS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		ps.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return res, ps, fmt.Errorf("child %s: decoding result: %w", spec.Kind, err)
	}
	return res, ps, nil
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// childMain is the child's whole life: run the op, print the result.
func childMain(raw string, stdout io.Writer) error {
	var spec childSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		return fmt.Errorf("decoding %s: %w", childEnv, err)
	}
	runtime.GOMAXPROCS(spec.Procs)
	var tr *tracer
	if spec.Trace {
		tr = newTracer()
	}
	var res childResult
	var err error
	switch spec.Kind {
	case "cycle":
		res.Digest, err = cycleOp(context.Background(), spec, tr)
	case "report":
		res.Digest, res.Work, err = reportOp(context.Background(), spec, tr)
	default:
		err = fmt.Errorf("unknown child kind %q", spec.Kind)
	}
	if err != nil {
		return err
	}
	if tr != nil {
		res.Spans = tr.spans
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.GCPauseMs = float64(ms.PauseTotalNs) / 1e6
	res.Mallocs = float64(ms.Mallocs)
	return json.NewEncoder(stdout).Encode(res)
}

// cycleOp is one relayd catch-up over a fresh state dir: the untraced
// op drives the service exactly as cmd/relayd does; the traced op calls
// the pipeline's stages in Service.Step's order so each gets a span.
func cycleOp(ctx context.Context, spec childSpec, tr *tracer) (string, error) {
	months := netsim.ScanMonths[:spec.Months]
	cfg := relayd.PipelineConfig{
		Seed:         spec.Seed,
		Scale:        spec.Scale,
		StateDir:     spec.StateDir,
		Clock:        vclock.NewVirtualClock(),
		Registry:     relayd.NewRegistry(),
		Concurrency:  spec.ScanWorkers,
		FaultProfile: spec.FaultProfile,
		Months:       months,
		AtlasProbes:  spec.AtlasProbes,
	}
	run := func() error { return cycleViaService(ctx, cfg) }
	if tr != nil {
		run = func() error { return cycleViaStages(ctx, cfg, tr) }
	}
	if err := tr.do("cycle.op", run); err != nil {
		return "", err
	}
	return treeDigest(spec.StateDir, "datasets", "diffs")
}

func cycleViaService(ctx context.Context, cfg relayd.PipelineConfig) error {
	svc, err := relayd.New(relayd.ServiceConfig{Pipeline: cfg})
	if err != nil {
		return err
	}
	defer svc.Close()
	for range cfg.Months {
		if err := svc.Step(ctx); err != nil {
			return err
		}
	}
	if !svc.CaughtUp() {
		return errors.New("relayd: not caught up after one step per month")
	}
	return nil
}

func cycleViaStages(ctx context.Context, cfg relayd.PipelineConfig, tr *tracer) error {
	var pipe *relayd.Pipeline
	if err := tr.do("relayd.new_pipeline", func() (err error) {
		pipe, err = relayd.NewPipeline(cfg)
		return err
	}); err != nil {
		return err
	}
	months := pipe.Months()
	for range months {
		if idx, caughtUp := pipe.NextMonth(); !caughtUp {
			if err := tr.do("relayd.scan_campaign", func() error { return pipe.RunScanCampaign(ctx, months[idx]) }); err != nil {
				return err
			}
		}
		done, _ := pipe.NextMonth()
		if done > 1 {
			if err := tr.do("relayd.ensure_diffs", func() error { return pipe.EnsureDiffs(done - 1) }); err != nil {
				return err
			}
		}
		if err := tr.do("relayd.write_report", pipe.WriteReport); err != nil {
			return err
		}
		if done > 0 && cfg.AtlasProbes > 0 {
			if err := tr.do("relayd.run_atlas", func() error { return pipe.RunAtlas(ctx, months[done-1]) }); err != nil {
				return err
			}
		}
	}
	if _, caughtUp := pipe.NextMonth(); !caughtUp {
		return errors.New("relayd: not caught up after one step per month")
	}
	return nil
}

// reportOp is cmd/report's default run. The traced op calls the same
// experiments FullReport does, in its order, one span each; its digest
// covers Table 1 only, so traced ops compare with traced ops.
func reportOp(ctx context.Context, spec childSpec, tr *tracer) (digest string, work float64, err error) {
	var env *experiments.Env
	var text string
	run := func() error {
		_ = tr.do("experiments.newenv", func() error {
			env = experiments.NewEnv(spec.Seed, spec.Scale)
			return nil
		})
		env.Seed = spec.RunSeed
		env.ScanConcurrency, env.PipelineWorkers = spec.ScanWorkers, spec.Procs
		if tr == nil {
			text, err = env.FullReport(ctx)
			return err
		}
		text, err = reportViaStages(ctx, env, tr)
		return err
	}
	if err = tr.do("report.op", run); err != nil {
		return "", 0, err
	}
	// Table 1 is eight cold scans: four months, both service domains.
	work = float64(8 * slash24s(env.World.RoutedV4Prefixes()))
	return textDigest(text), work, nil
}

func reportViaStages(ctx context.Context, env *experiments.Env, tr *tracer) (string, error) {
	var table1 string
	stages := []struct {
		name string
		run  func() error
	}{
		{"experiments.table1", func() error {
			rows, err := env.Table1(ctx)
			table1 = analysis.RenderTable1(rows)
			return err
		}},
		{"experiments.analysis", func() error {
			if _, _, err := env.Table2(ctx); err != nil {
				return err
			}
			env.Table3()
			env.Table4()
			env.Figure2()
			env.Figure4(analysis.ByCity, netsim.FamilyV4)
			env.Figure4(analysis.ByCity, netsim.FamilyV6)
			analysis.CountrySharesN(env.Attributed, 50, env.PipelineWorkers)
			return nil
		}},
		{"experiments.relayscan", func() error { _, err := env.RelayScan(ctx, 96, 200); return err }},
		{"experiments.quic", func() error { _, err := env.QUICProbes(); return err }},
		{"experiments.atlas", func() error { _, err := env.Atlas(ctx, 4000, 1500); return err }},
		{"experiments.correlation", func() error { _, err := env.Correlation(ctx); return err }},
		{"experiments.qoe", func() error {
			env.ODoHCheck()
			env.QoE(400)
			env.GeoDBAdoption(5000)
			return nil
		}},
	}
	for _, st := range stages {
		if err := tr.do(st.name, st.run); err != nil {
			return "", err
		}
	}
	return table1, nil
}

// slash24s counts the /24s a scan universe covers, as core.Scan does.
func slash24s(universe []netip.Prefix) int64 {
	var n int64
	for _, p := range universe {
		if p.Addr().Is4() {
			n += int64(iputil.SubnetCount(p, 24))
		}
	}
	return n
}

// textDigest hashes a report's lines in sorted order: FullReport ranges
// over maps when it renders the figure panels, so the line order — not
// the content — differs between processes.
func textDigest(text string) string {
	lines := strings.Split(text, "\n")
	sort.Strings(lines)
	h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(h[:])
}

// treeDigest is SHA-256 over the named subtrees of root: every regular
// file in sorted path order, as path, size and content.
func treeDigest(root string, subdirs ...string) (string, error) {
	var files []string
	for _, sub := range subdirs {
		err := filepath.WalkDir(filepath.Join(root, sub), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				if errors.Is(err, fs.ErrNotExist) && path == filepath.Join(root, sub) {
					return fs.SkipAll
				}
				return err
			}
			if d.Type().IsRegular() {
				rel, err := filepath.Rel(root, path)
				if err != nil {
					return err
				}
				files = append(files, filepath.ToSlash(rel))
			}
			return nil
		})
		if err != nil {
			return "", err
		}
	}
	sort.Strings(files)
	h := sha256.New()
	for _, rel := range files {
		data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(rel)))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	if len(files) == 0 {
		return "", fmt.Errorf("tree digest: no files under %s in %v", root, subdirs)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
