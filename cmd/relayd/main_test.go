package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// goldenTreeDigest is treeDigest of the durable tree a four-cycle
// catch-up of the default world (seed 6, scale 0.0008) with a 500-probe
// Atlas campaign leaves behind. It was computed from a build that
// scanned the two service domains one after the other, so it pins the
// bytes across the change to concurrent domain scans as well as across
// scan concurrency and fault profiles.
const goldenTreeDigest = "ca980b96144c59e1d71abfbd5d989624616a5033b4b93398d1e440355bf064e3"

// durableRoots are the state subtrees that are output by contract;
// checkpoints/ is scratch.
var durableRoots = []string{"datasets", "diffs", "reports"}

// treeDigest is SHA-256 over every regular file under the durable
// roots of dir, in sorted path order, as path, size and content.
func treeDigest(t *testing.T, dir string) (string, map[string][]byte) {
	t.Helper()
	files := map[string][]byte{}
	for _, root := range durableRoots {
		err := filepath.WalkDir(filepath.Join(dir, root), func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.Type().IsRegular() {
				return err
			}
			rel, err := filepath.Rel(dir, path)
			if err != nil {
				return err
			}
			files[filepath.ToSlash(rel)], err = os.ReadFile(path)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s\x00%d\x00", name, len(files[name]))
		h.Write(files[name])
	}
	return hex.EncodeToString(h.Sum(nil)), files
}

// TestRelaydGoldenCatchUp runs a virtual-clock catch-up at scan
// concurrency 1 and 8, clean and under the harsh fault profile. Every
// run must drain cleanly and leave the same durable bytes, and those
// bytes are pinned: retries, deferral passes, breaker trips and worker
// interleaving change the path to the datasets, never the datasets.
func TestRelaydGoldenCatchUp(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "relayd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var first map[string][]byte
	for _, concurrency := range []string{"1", "8"} {
		for _, profile := range []string{"", "harsh,seed=3"} {
			name := "concurrency " + concurrency
			args := []string{"-virtual-clock", "-cycles", "4", "-atlas-probes", "500",
				"-addr", "127.0.0.1:0", "-concurrency", concurrency}
			if profile != "" {
				name += " " + profile
				args = append(args, "-fault-profile", profile)
			}
			state := t.TempDir()
			args = append(args, "-state", state)

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			var stdout, stderr bytes.Buffer
			cmd := exec.CommandContext(ctx, bin, args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			cancel()
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.String())
			}
			if !strings.Contains(stdout.String(), "relayd: drained cleanly") {
				t.Errorf("%s: no clean drain on stdout:\n%s", name, stdout.String())
			}

			digest, files := treeDigest(t, state)
			if first == nil {
				first = files
			} else {
				for path, b := range first {
					if !bytes.Equal(files[path], b) {
						t.Errorf("%s: %s differs from the first run's", name, path)
					}
				}
				if len(files) != len(first) {
					t.Errorf("%s: %d durable files, the first run left %d", name, len(files), len(first))
				}
			}
			if digest != goldenTreeDigest {
				t.Errorf("%s: durable tree digest %s, want %s", name, digest, goldenTreeDigest)
			}
		}
	}
}
