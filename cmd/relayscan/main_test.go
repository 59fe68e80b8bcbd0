package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// goldenRelayscanSHA256 is the SHA-256 of `relayscan -seed 1 -rounds 48
// -rotation-rounds 100` stdout, recorded from a build whose resolver
// still cached whole response messages. The command's only DNS path is
// the resolver (open and fixed-zone resolution); its bytes may not move.
const goldenRelayscanSHA256 = "c6b9dd01efb20981789c2cbfa56c804de1658c671413da56e24e5b6521fc44ae"

// TestRelayscanGoldenSmoke builds the command, runs a short operator
// scan and rotation scan at seed 1, and requires both scans' sections
// and the recorded digest of the output.
func TestRelayscanGoldenSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the relay scans")
	}
	bin := filepath.Join(t.TempDir(), "relayscan")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-seed", "1", "-rounds", "48", "-rotation-rounds", "100")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("relayscan: %v\n%s", err, stderr.String())
	}
	out := stdout.String()
	rest := out
	for _, section := range []string{"Open Scan (48 rounds)", "Fixed DNS Scan (48 rounds)", "rotation at 30s cadence"} {
		i := strings.Index(rest, section)
		if i < 0 {
			t.Fatalf("output lacks %q after the sections before it:\n%s", section, out)
		}
		rest = rest[i+len(section):]
	}
	sum := sha256.Sum256(stdout.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenRelayscanSHA256 {
		t.Fatalf("relayscan digest = %s, want %s:\n%s", got, goldenRelayscanSHA256, out)
	}
}
