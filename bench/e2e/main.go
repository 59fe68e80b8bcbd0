// Command e2e is the repository's end-to-end benchmark: five closed-loop
// workloads over the three product paths — a relayd catch-up cycle, the
// full paper report, and bytes through a real ingress→egress tunnel —
// each reporting setup_s, op_p50_ms and work_per_s, with a traced
// per-layer ledger on request. See bench/README.md.
//
//	e2e -workload cycle_clean -seed 6 -seconds 20 -trace 0
//	e2e -compare parent.json change.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	if raw := os.Getenv(childEnv); raw != "" {
		if err := childMain(raw, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "e2e child:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name     = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Uint64("seed", 6, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 20, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 alternates traced and untraced ops and prints the per-layer ledger")
		jsonOut  = flag.String("json", "", "also append each run's record, with its runner shape, to this file")
		outDir   = flag.String("out", "out", "directory for traces and scratch files")
		stateDir = flag.String("state-dir", "", "parent of the relayd state directories (default: /dev/shm when writable, else -out)")
		compare  = flag.Bool("compare", false, "check the second -json file against the first (the baseline) and exit")
		agree    = flag.Bool("agree", false, "check that two -json files of the same code agree, in either direction, and exit")
	)
	flag.Parse()
	if *compare || *agree {
		os.Exit(compareMain(flag.Args(), *agree))
	}
	if err := benchMain(*name, *seed, *seconds, *trace == 1, *jsonOut, *outDir, *stateDir); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

// compareMain exits 0 when b is within every bound of a, 1 on a breach
// and 2 when the files cannot be compared at all.
func compareMain(args []string, either bool) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "e2e: -compare and -agree take two record files")
		return 2
	}
	var recs [2][]*record
	for i, path := range args {
		var err error
		if recs[i], err = readRecords(path); err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			return 2
		}
	}
	breached, err := compareRecords(os.Stdout, recs[0], recs[1], either)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 2
	}
	if breached {
		return 1
	}
	return 0
}

func benchMain(name string, seed uint64, seconds float64, trace bool, jsonOut, outDir, stateDir string) error {
	run := workloads
	if name != "all" {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		run = []workload{w}
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	outDir, err := filepath.Abs(outDir)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	stateRoot, err := newStateRoot(stateDir, outDir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(stateRoot)
	// An interrupted run still stops its child and removes its state.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The runner shape is part of the benchmark: four processors at most,
	// so the workloads mean the same on a laptop and on a large runner.
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	rc := &runConfig{
		seed:      seed,
		window:    time.Duration(seconds * float64(time.Second)),
		minOps:    5,
		trace:     trace,
		procs:     procs,
		stateRoot: stateRoot,
		outDir:    outDir,
		sizes:     productionSizes,
	}
	failed := false
	for _, w := range run {
		rec, err := runWorkload(ctx, w, rc, os.Stderr)
		if err != nil {
			return err
		}
		if err := printRecord(os.Stdout, rec, trace); err != nil {
			return err
		}
		if jsonOut != "" {
			if err := appendRecord(jsonOut, rec); err != nil {
				return err
			}
		}
		failed = failed || !rec.Correct
	}
	if failed {
		return fmt.Errorf("an output check failed; see ops_failed above")
	}
	return nil
}

// newStateRoot makes this run's state directory. relayd fsyncs every
// checkpoint, and on the shared virtio disk that cost wandered between
// 3.6 s and 5.0 s per catch-up against 2.2–2.3 s on tmpfs, so state
// goes to /dev/shm when it is writable; otherwise it stays in the
// checkout. The record says which.
func newStateRoot(stateDir, outDir string) (string, error) {
	if stateDir != "" {
		return os.MkdirTemp(stateDir, "e2e-state-")
	}
	if dir, err := os.MkdirTemp("/dev/shm", "e2e-state-"); err == nil {
		return dir, nil
	}
	return os.MkdirTemp(outDir, "e2e-state-")
}
