package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// ecsscanArgs fixes the world every smoke run scans.
var ecsscanArgs = []string{"-seed", "3", "-scale", "0.001"}

// buildECSScan compiles the command once into a temp dir.
func buildECSScan(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ecsscan")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runECSScan runs the binary over the fixed world and returns its
// stdout, stderr and error.
func runECSScan(t *testing.T, bin string, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, append(append([]string(nil), ecsscanArgs...), args...)...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// stableLines drops the one line that legitimately differs between
// runs: the elapsed time. The queries= line stays: on a lossless
// transport the query count does not depend on the worker count.
func stableLines(stdout string) string {
	var keep []string
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "scan ") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestECSScanSmoke(t *testing.T) {
	bin := buildECSScan(t)
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.ds"), filepath.Join(dir, "b.ds")

	outA, errA, err := runECSScan(t, bin, "-concurrency", "1", "-out", a)
	if err != nil {
		t.Fatalf("-concurrency 1: %v\n%s", err, errA)
	}
	outB, errB, err := runECSScan(t, bin, "-concurrency", "8", "-out", b)
	if err != nil {
		t.Fatalf("-concurrency 8: %v\n%s", err, errB)
	}

	// The -out file is canonical text plus its sidecar, both a pure
	// function of the discovered network state.
	if text := readFile(t, a); !bytes.Equal(text, readFile(t, b)) {
		t.Error("-out files differ between -concurrency 1 and 8")
	} else if !bytes.HasPrefix(text, []byte("# canonical mask.icloud.com.\nA ")) {
		t.Errorf("-out is not canonical text:\n%.200s", text)
	}
	if !bytes.Equal(readFile(t, a+".col"), readFile(t, b+".col")) {
		t.Error("sidecars differ between -concurrency 1 and 8")
	}
	if stableLines(outA) != stableLines(outB) {
		t.Errorf("stdout differs beyond the elapsed line:\n%s\nvs\n%s", outA, outB)
	}
	// Operator lines print in ascending ASN order: Apple (714) first.
	if apple, akamai := strings.Index(outA, "  Apple "), strings.Index(outA, "  AkamaiPR "); apple < 0 || akamai < apple {
		t.Errorf("operator lines missing or out of ASN order:\n%s", outA)
	}

	// Under a fault profile alone the scan runs the one resilience
	// policy: every subnet recovers, so the saved dataset is the clean
	// one, byte for byte, at any worker count.
	for _, conc := range []string{"1", "8"} {
		f := filepath.Join(dir, "harsh-"+conc+".ds")
		out, stderr, err := runECSScan(t, bin, "-fault-profile", "harsh,seed=7", "-concurrency", conc, "-out", f)
		if err != nil {
			t.Fatalf("-fault-profile at -concurrency %s: %v\n%s", conc, err, stderr)
		}
		if !strings.Contains(out, " 0 subnets lost\n") {
			t.Errorf("-fault-profile at -concurrency %s lost subnets:\n%s", conc, out)
		}
		if !bytes.Equal(readFile(t, f), readFile(t, a)) || !bytes.Equal(readFile(t, f+".col"), readFile(t, a+".col")) {
			t.Errorf("-fault-profile at -concurrency %s saved a dataset unlike the clean scan's", conc)
		}
	}

	// Diffing a scan against its own saved dataset finds no change.
	out, stderr, err := runECSScan(t, bin, "-diff", a)
	if err != nil {
		t.Fatalf("-diff: %v\n%s", err, stderr)
	}
	if !strings.Contains(out, "+0 added, -0 removed, growth 0.0%") {
		t.Errorf("-diff against the same scan:\n%s", out)
	}

	// A file in the retired `addr,asn` format is rejected, naming the
	// offending line, and no sidecar appears beside it.
	legacy := filepath.Join(dir, "legacy.csv")
	if err := os.WriteFile(legacy, []byte("# domain mask.icloud.com.\n# queries 36802\n17.0.0.2,714\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, err = runECSScan(t, bin, "-diff", legacy)
	if err == nil {
		t.Fatal("-diff of a legacy file exited zero")
	}
	if !strings.Contains(stderr, "line 3") {
		t.Errorf("legacy rejection does not name the line:\n%s", stderr)
	}
	if _, err := os.Stat(legacy + ".col"); !os.IsNotExist(err) {
		t.Errorf("-diff wrote a sidecar next to the input file (stat err %v)", err)
	}
}
