package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// goldenReportSHA256 is the SHA-256 of `report -seed 42 -scale 0.0008`
// stdout without its `generated in` line, recorded from a build whose
// FullReport ran every stage one after another. The report's stages
// overlap now; its bytes may not move.
const goldenReportSHA256 = "69748bd98ad05434eae2803415cbe3cfe39a1675938b4cf73d90cd7cd1034047"

// TestReportGoldenSmoke builds the command, runs it at seed 42 and scale
// 0.0008 at the machine's GOMAXPROCS, at 1 and at 4, and requires every
// section in report order and the recorded digest of the output minus
// the wall-clock `generated in` line each time: the report's slot count
// and fan-out widths derive from GOMAXPROCS, its bytes may not.
func TestReportGoldenSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the full report")
	}
	bin := filepath.Join(t.TempDir(), "report")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, procs := range []string{"", "1", "4"} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, "-seed", "42", "-scale", "0.0008")
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if procs != "" {
			cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs)
		}
		if err := cmd.Run(); err != nil {
			t.Fatalf("GOMAXPROCS=%q: report: %v\n%s", procs, err, stderr.String())
		}
		var kept []string
		for _, line := range strings.SplitAfter(stdout.String(), "\n") {
			if !strings.HasPrefix(line, "generated in ") {
				kept = append(kept, line)
			}
		}
		report := strings.Join(kept, "")

		rest := report
		for _, section := range []string{
			"== Table 1", "== Table 2", "== Table 3", "== Table 4",
			"== Figure 2", "== Figure 4", "== §4.2 geographic bias",
			"== Figure 3", "== §4.3 rotation", "== §3 QUIC probing",
			"== §4.1 RIPE Atlas", "== §6 correlation", "== App. B ODoH",
		} {
			i := strings.Index(rest, section)
			if i < 0 {
				t.Fatalf("GOMAXPROCS=%q: report lacks %q after the sections before it:\n%s", procs, section, report)
			}
			rest = rest[i+len(section):]
		}
		sum := sha256.Sum256([]byte(report))
		if got := hex.EncodeToString(sum[:]); got != goldenReportSHA256 {
			t.Fatalf("GOMAXPROCS=%q: report digest = %s, want %s:\n%s", procs, got, goldenReportSHA256, report)
		}
	}
}
