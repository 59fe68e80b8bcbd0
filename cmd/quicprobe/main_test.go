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

// goldenQuicprobeSHA256 is the SHA-256 of `quicprobe -timeout 200ms`
// stdout without its first line, which names the listener's ephemeral
// port: the version-negotiation answer and the standard handshake's
// silence.
const goldenQuicprobeSHA256 = "68d006807c77427ad1419596f2f34dc52b0a71834a663dace43b24da462e4c2c"

// TestQuicprobeGoldenSmoke builds the command, probes its loopback
// ingress endpoint and requires the recorded digest of the output.
func TestQuicprobeGoldenSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the probes")
	}
	bin := filepath.Join(t.TempDir(), "quicprobe")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-timeout", "200ms")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("quicprobe: %v\n%s", err, stderr.String())
	}
	first, rest, ok := strings.Cut(stdout.String(), "\n")
	if !ok || !strings.HasPrefix(first, "ingress endpoint on 127.0.0.1:") {
		t.Fatalf("output does not open with the endpoint line:\n%s", stdout.String())
	}
	sum := sha256.Sum256([]byte(rest))
	if got := hex.EncodeToString(sum[:]); got != goldenQuicprobeSHA256 {
		t.Fatalf("quicprobe digest = %s, want %s:\n%s", got, goldenQuicprobeSHA256, stdout.String())
	}
}
