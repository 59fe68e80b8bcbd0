package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestAtlasDNSWorkersSmoke builds the command and requires a small
// campaign's report to be byte-identical at one worker and at eight:
// every probe's result lands in its own slot whatever the pool size.
func TestAtlasDNSWorkersSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "atlasdns")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(workers string) string {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, "-probes", "600", "-clusters", "100", "-scale", "0.0005", "-workers", workers)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("-workers %s: %v\n%s", workers, err, stderr.String())
		}
		return stdout.String()
	}
	one, eight := run("1"), run("8")
	if one != eight {
		t.Fatalf("stdout differs between -workers 1 and 8:\n%s\n---\n%s", one, eight)
	}
	for _, line := range []string{"probes: 600,", "A-campaign completeness:", "blocking study:"} {
		if !strings.Contains(one, line) {
			t.Fatalf("report lacks %q:\n%s", line, one)
		}
	}
}
