package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// goldenListSHA256 is the SHA-256 of `relaylint -list`: the five
// source analyzers and the hotalloc gate, one line each.
const goldenListSHA256 = "84b0451fee6c00852ec6023d30c015cd528427b2a9eabc76e57bfaf9dc8e33a7"

// TestRelaylintGoldenSmoke builds the command and drives it from the
// module root: the analyzer list is pinned by digest, a retired
// analyzer name is a usage error, and the relay package lints clean.
func TestRelaylintGoldenSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the command and loads packages")
	}
	bin := filepath.Join(t.TempDir(), "relaylint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) (stdout, stderr string, code int) {
		t.Helper()
		var out, errb bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Dir = filepath.Join("..", "..")
		cmd.Stdout, cmd.Stderr = &out, &errb
		err := cmd.Run()
		var exit *exec.ExitError
		switch {
		case errors.As(err, &exit):
			code = exit.ExitCode()
		case err != nil:
			t.Fatalf("relaylint %v: %v", args, err)
		}
		return out.String(), errb.String(), code
	}

	t.Run("list", func(t *testing.T) {
		stdout, stderr, code := run("-list")
		if code != 0 {
			t.Fatalf("-list exited %d:\n%s", code, stderr)
		}
		sum := sha256.Sum256([]byte(stdout))
		if got := hex.EncodeToString(sum[:]); got != goldenListSHA256 {
			t.Fatalf("-list digest = %s, want %s:\n%s", got, goldenListSHA256, stdout)
		}
	})

	t.Run("unknown analyzer", func(t *testing.T) {
		_, stderr, code := run("-only", "lockorder", "./internal/masque")
		if code != 2 || !strings.Contains(stderr, "unknown analyzer") {
			t.Fatalf("-only lockorder exited %d, stderr %q; want 2 and \"unknown analyzer\"", code, stderr)
		}
	})

	t.Run("masque clean", func(t *testing.T) {
		stdout, stderr, code := run("./internal/masque")
		if code != 0 || stdout != "" {
			t.Fatalf("relaylint ./internal/masque exited %d with stdout %q:\n%s", code, stdout, stderr)
		}
	})
}
