// Package durabilitydata runs under a fabricated import path ending in
// internal/relayd, putting it inside the durability analyzer's guarded
// set: durable artifacts must be written through internal/atomicio, not
// by direct os calls a crash can tear.
package durabilitydata

import (
	"io"
	"os"

	"github.com/relay-networks/privaterelay/internal/atomicio"
)

// saveDirect writes the artifact non-atomically.
func saveDirect(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644) // want `direct os.WriteFile bypasses the atomic-write discipline: route the artifact through internal/atomicio \(temp\+fsync\+rename\)`
}

// createDirect opens a truncating handle a crash leaves half-written.
func createDirect(path string) (*os.File, error) {
	return os.Create(path) // want `direct os.Create bypasses the atomic-write discipline`
}

// renameDirect publishes without the fsync discipline around it.
func renameDirect(tmp, path string) error {
	return os.Rename(tmp, path) // want `direct os.Rename bypasses the atomic-write discipline`
}

// appendDirect grows a journal without the fsync discipline
// atomicio.OpenAppend wraps around it.
func appendDirect(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644) // want `direct os.OpenFile bypasses the atomic-write discipline`
}

// openWithFlag cannot be proven read-only: gated.
func openWithFlag(path string, flag int) (*os.File, error) {
	return os.OpenFile(path, flag, 0o644) // want `direct os.OpenFile bypasses the atomic-write discipline`
}

// openReadOnly is a long-hand os.Open: not gated.
func openReadOnly(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_RDONLY, 0)
}

// quarantine moves a damaged artifact aside: the sanctioned idiom.
func quarantine(path string) {
	_ = os.Rename(path, path+".corrupt")
}

// saveAtomic routes through atomicio: sanctioned.
func saveAtomic(path string, b []byte) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

// saveAllowed documents a justified direct write with the trailing
// suppression form.
func saveAllowed(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644) //lint:allow durability — golden test for a justified direct write
}

// readSide only reads: os.Open and file methods are not gated.
func readSide(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}
