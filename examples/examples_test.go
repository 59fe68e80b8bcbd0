// Package examples holds the golden smoke test of the example programs
// in its subdirectories; it has no code of its own.
package examples

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// goldenExamples is the SHA-256 of each example's stdout. Every example
// builds a fixed-seed world, so its output may move only when the
// simulation does on purpose.
var goldenExamples = []struct {
	name, sha256 string
}{
	{"quickstart", "1ef74853cad3f21250f1287f8fafec4ada1edd5be9b5d47baa93772edc7a40d5"},
	{"blocking-monitor", "917dc3fab2d58e0e91327ec981274cd84be9c0fac313df3e774211f200dfa2e5"},
	{"correlation", "6aef61f606f65095434ad2fd6c6230391ba20c5492ff4f29689eb0af2551b05b"},
	{"detect-relay-traffic", "5df379fe0ae6f55993831add9522b0984bca2e4cc4aaa50fdf6ea9610ccf2475"},
	// Without the line naming its temporary directory.
	{"longitudinal", "fe1ff7737bcfc54e0f4c64b12884f2c58bce4f545655810925dc0f3abdd9dd2e"},
}

// tempDirLine is longitudinal's report of where it persists datasets.
var tempDirLine = regexp.MustCompile(`(?m)^persisting datasets under .*\n`)

// TestExamplesGoldenSmoke builds and runs each example and requires the
// recorded digest of its output.
func TestExamplesGoldenSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example")
	}
	for _, ex := range goldenExamples {
		t.Run(ex.name, func(t *testing.T) {
			dir := t.TempDir()
			bin := filepath.Join(dir, ex.name)
			if out, err := exec.Command("go", "build", "-o", bin, "./"+ex.name).CombinedOutput(); err != nil {
				t.Fatalf("go build: %v\n%s", err, out)
			}
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin)
			cmd.Env = append(os.Environ(), "TMPDIR="+dir)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s: %v\n%s", ex.name, err, stderr.String())
			}
			out := tempDirLine.ReplaceAll(stdout.Bytes(), nil)
			sum := sha256.Sum256(out)
			if got := hex.EncodeToString(sum[:]); got != ex.sha256 {
				t.Fatalf("%s digest = %s, want %s:\n%s", ex.name, got, ex.sha256, stdout.String())
			}
		})
	}
}
