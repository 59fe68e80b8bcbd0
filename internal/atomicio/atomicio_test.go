package atomicio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "first")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "second")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second" {
		t.Fatalf("content = %q, want %q", got, "second")
	}
}

func TestWriteFileFailedWriteLeavesTargetIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "keep me")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "torn half-write")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "keep me" {
		t.Fatalf("failed write clobbered target: %q", got)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want just the target", len(entries))
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestAppendFileGroupCommit: Append only buffers, Sync lands every
// buffered append at once, and a reopened file keeps growing at its end.
func TestAppendFileGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	a, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	a.Append([]byte("one,"))
	a.Append([]byte("two,"))
	if got := readFile(t, path); got != "" {
		t.Fatalf("unsynced appends reached the file: %q", got)
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != "one,two," {
		t.Fatalf("after Sync: %q", got)
	}
	// Unsynced appends die with the handle, as in a crash.
	a.Append([]byte("lost"))
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Append([]byte("three"))
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != "one,two,three" {
		t.Fatalf("after reopen: %q", got)
	}
}

// TestAppendFileTruncate: cutting a torn tail makes later appends land
// at the cut, and drops anything still buffered.
func TestAppendFileTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte("whole|to"), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Append([]byte("stale"))
	if err := a.Truncate(int64(len("whole|"))); err != nil {
		t.Fatal(err)
	}
	a.Append([]byte("next|"))
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != "whole|next|" {
		t.Fatalf("after truncate+append: %q", got)
	}
	if err := a.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != "" {
		t.Fatalf("after Truncate(0): %q", got)
	}
}

// TestAppendFileErrors: a missing directory fails the open, and a
// write to a closed handle surfaces from Sync instead of vanishing.
func TestAppendFileErrors(t *testing.T) {
	if _, err := OpenAppend(filepath.Join(t.TempDir(), "no", "such", "dir", "log")); err == nil {
		t.Fatal("OpenAppend in a missing directory succeeded")
	}
	a, err := OpenAppend(filepath.Join(t.TempDir(), "log"))
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	a.Append([]byte("x"))
	if err := a.Sync(); err == nil {
		t.Fatal("Sync on a closed file reported success")
	}
}
