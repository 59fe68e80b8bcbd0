package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestEgressReportWorkersSmoke builds the command and requires its
// report to be byte-identical at one worker and at eight: attribution
// and every table are worker-count-independent.
func TestEgressReportWorkersSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "egressreport")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(workers string) string {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, "-workers", workers)
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
	for _, section := range []string{"== Table 3", "== Table 4", "== Country bias", "== Figure 4"} {
		if !strings.Contains(one, section) {
			t.Fatalf("report lacks %q:\n%s", section, one)
		}
	}
}
