// Package atomicio writes files atomically and durably: content goes to
// a temp file in the target's directory, is fsynced, renamed over the
// target, and the directory entry is fsynced too. A crash — including a
// kill -9 between any two syscalls — leaves either the old file or the
// new file, never a torn mix, and a completed write survives power loss.
//
// This is the persistence primitive under every relayd artifact
// (dataset generations, diff files, sidecars): crash-safety of the
// service reduces to "every write goes through atomicio and every read
// validates a footer". The one artifact that grows instead of being
// replaced — the scan checkpoint journal — uses AppendFile, whose
// crash contract is the complement: a crash may tear the tail of the
// last append, never anything an earlier Sync returned for.
package atomicio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// WriteFile atomically replaces path with the bytes produced by write.
// The temp file lives in path's directory so the final rename never
// crosses filesystems.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".atomic-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	// fsync the data before the rename publishes it: rename-then-crash
	// must never expose a file whose blocks are still in flight.
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so the rename's new entry is durable.
// Filesystems that cannot sync directories (some network mounts) return
// an error from Sync; that is best-effort territory — the rename itself
// already gave atomicity — so only open failures are reported.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !isSyncUnsupported(err) {
		return err
	}
	return nil
}

// isSyncUnsupported reports whether a directory Sync failed only
// because the filesystem does not support syncing directories.
func isSyncUnsupported(err error) bool {
	return errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)
}

// AppendFile is a durable append-only file with group commit: Append
// only buffers; Sync writes the buffer in one write and fsyncs. A crash
// can lose or tear the appends since the last Sync — readers must frame
// and checksum records and drop a torn tail — never bytes an earlier
// Sync covered.
type AppendFile struct {
	f   *os.File
	dir string // directory still to fsync for the file's entry; "" once done
	buf []byte
}

// OpenAppend opens path for appending, creating it if absent. The
// directory entry is fsynced by the first Sync, after the file's own
// bytes: create → header → fsync → dir-fsync.
func OpenAppend(path string) (*AppendFile, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &AppendFile{f: f, dir: filepath.Dir(path)}, nil
}

// Truncate cuts the file to size bytes (a torn tail, or everything for
// a fresh start) and discards unsynced appends; later appends land at
// the new end.
func (a *AppendFile) Truncate(size int64) error {
	a.buf = a.buf[:0]
	return a.f.Truncate(size)
}

// Append buffers p (copying it) until the next Sync.
func (a *AppendFile) Append(p []byte) { a.buf = append(a.buf, p...) }

// Sync commits every buffered append: one write, one fsync.
func (a *AppendFile) Sync() error {
	if len(a.buf) > 0 {
		_, err := a.f.Write(a.buf)
		a.buf = a.buf[:0]
		if err != nil {
			return err
		}
	}
	if err := a.f.Sync(); err != nil {
		return err
	}
	if a.dir != "" {
		dir := a.dir
		a.dir = ""
		return syncDir(dir)
	}
	return nil
}

// Close releases the file. Appends not yet Synced are dropped, as a
// crash would drop them.
func (a *AppendFile) Close() error { return a.f.Close() }
