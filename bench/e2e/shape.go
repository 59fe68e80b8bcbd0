package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"text/tabwriter"
)

// shape is the runner a number was taken on. It is written beside
// every number, and two records compare only if their shapes agree:
// a 2-CPU figure says nothing about an 8-CPU one.
type shape struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	WindowS    float64 `json:"window_s"`
	Trace      bool    `json:"trace"`
	StateDir   string  `json:"state_dir"`
	StateFS    string  `json:"state_fs"` // "tmpfs" or "other"
}

func newShape(rc *runConfig) shape {
	commit := os.Getenv("BENCH_COMMIT") // run.sh sets it; a bare checkout has no git
	if commit == "" {
		commit = "unknown"
	}
	return shape{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: rc.procs,
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Seed:       rc.seed,
		WindowS:    rc.window.Seconds(),
		Trace:      rc.trace,
		StateDir:   rc.stateRoot,
		StateFS:    fsKind(rc.stateRoot),
	}
}

// comparable reports why two shapes must not be compared, or "".
// Commit and the state path may differ; everything that changes what a
// second of wall time buys may not.
func (a shape) comparable(b shape) string {
	switch {
	case a.NProc != b.NProc:
		return fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc)
	case a.GoMaxProcs != b.GoMaxProcs:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.GoMaxProcs, b.GoMaxProcs)
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("go version %s vs %s", a.GoVersion, b.GoVersion)
	case a.Seed != b.Seed:
		return fmt.Sprintf("seed %d vs %d", a.Seed, b.Seed)
	case a.WindowS != b.WindowS:
		return fmt.Sprintf("window %gs vs %gs", a.WindowS, b.WindowS)
	case a.Trace != b.Trace:
		return "a traced run against an untraced one"
	case a.StateFS != b.StateFS:
		return fmt.Sprintf("state filesystem %s vs %s", a.StateFS, b.StateFS)
	}
	return ""
}

const tmpfsMagic = 0x01021994

func fsKind(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err == nil && int64(st.Type) == tmpfsMagic {
		return "tmpfs"
	}
	return "other"
}

func readRecords(path string) ([]*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []*record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// compareRecords prints, for every workload × end-to-end metric in
// both files, how much worse b is than a against the metric's bound.
// With either set, a being worse than b is a breach too: that is the
// repeatability check, where neither run is the baseline. It returns
// an error for records of different shape and reports whether any
// bound was breached.
func compareRecords(w io.Writer, as, bs []*record, either bool) (breached bool, err error) {
	byName := map[string]*record{}
	for _, b := range bs {
		byName[b.Workload] = b
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tworse by\tbound\tverdict")
	for _, a := range as {
		b, ok := byName[a.Workload]
		if !ok {
			return false, fmt.Errorf("workload %s is in only one file", a.Workload)
		}
		if why := a.Shape.comparable(b.Shape); why != "" {
			return false, fmt.Errorf("workload %s: records of different shape: %s", a.Workload, why)
		}
		for _, ma := range a.Metrics {
			mb, ok := b.metric(ma.Name)
			if !ok {
				return false, fmt.Errorf("workload %s: metric %s is in only one file", a.Workload, ma.Name)
			}
			worse := relDiff(ma.Value, mb.Value, ma.Better)
			verdict := "ok"
			if worse > ma.Bound || either && relDiff(mb.Value, ma.Value, ma.Better) > ma.Bound {
				verdict = "BREACH"
				breached = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n",
				a.Workload, ma.Name, ma.Value, mb.Value, worse*100, ma.Bound*100, verdict)
		}
	}
	return breached, tw.Flush()
}
