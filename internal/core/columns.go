package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/relay-networks/privaterelay/internal/atomicio"
	"github.com/relay-networks/privaterelay/internal/colstore"
)

// Columnar persistence. The canonical text (WriteCanonical) remains the
// interchange and golden format — published, diffed, human-auditable.
// The colstore binary sidecar riding next to it (<path>.col) is a
// checksummed cache: a pure function of the text bytes, fingerprinted
// against them, rebuilt whenever it is missing, stale or corrupt. Every
// read path that only needs the address/serving columns loads the
// sidecar instead of re-parsing text, which is where relayd's recompute
// cycles went.

// Columns returns the dataset's sorted columns.
func (ds *Dataset) Columns() (*colstore.Dataset, error) { return &ds.Dataset, nil }

// GrowthPercent returns the relative address-count growth from a to b
// (the §4.1 month-over-month figure).
func GrowthPercent(a, b *colstore.Dataset) float64 {
	if a.Addrs() == 0 {
		return 0
	}
	return (float64(b.Addrs()) - float64(a.Addrs())) / float64(a.Addrs()) * 100
}

// SidecarPath locates the binary sidecar of the canonical text at path.
func SidecarPath(path string) string { return path + ".col" }

// SaveCanonicalFile persists the dataset's canonical text at path and
// its binary sidecar at SidecarPath(path), both atomically, text first.
// A crash between the two writes leaves valid text with a missing or
// stale sidecar — exactly the states LoadColumns repairs — so the pair
// is as crash-safe as the text alone.
func SaveCanonicalFile(path string, ds *Dataset) error {
	var buf bytes.Buffer
	if err := WriteCanonical(&buf, &ds.Dataset); err != nil {
		return err
	}
	text := buf.Bytes()
	if err := atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(text)
		return err
	}); err != nil {
		return err
	}
	return writeSidecar(SidecarPath(path), &ds.Dataset, colstore.Fingerprint(text))
}

func writeSidecar(path string, cs *colstore.Dataset, src colstore.SourceInfo) error {
	enc := cs.AppendBinary(nil, src)
	return atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(enc)
		return err
	})
}

// SidecarStatus reports how LoadColumns obtained its columns.
type SidecarStatus int

// LoadColumns outcomes.
const (
	// SidecarHit: the sidecar was valid and matched the text fingerprint.
	SidecarHit SidecarStatus = iota
	// SidecarMiss: no sidecar existed; built from text and written.
	SidecarMiss
	// SidecarStale: the sidecar was valid but fingerprinted different
	// text bytes; rebuilt from the current text and overwritten.
	SidecarStale
	// SidecarQuarantined: the sidecar failed integrity checks; renamed
	// *.corrupt for post-mortem, rebuilt from text and rewritten.
	SidecarQuarantined
)

// String names the status.
func (s SidecarStatus) String() string {
	switch s {
	case SidecarHit:
		return "hit"
	case SidecarMiss:
		return "miss"
	case SidecarStale:
		return "stale"
	case SidecarQuarantined:
		return "quarantined"
	default:
		return "unknown"
	}
}

// LoadColumns loads the columnar form of the canonical text at path,
// through the sidecar when it is valid for exactly these text bytes.
// Invalid sidecars never poison a load: corrupt ones are quarantined
// with a *.corrupt rename, stale ones overwritten, missing ones
// created — in every case the columns come from the golden text and the
// repaired sidecar is written back atomically. The text file itself
// failing to parse is the only fatal path.
func LoadColumns(path string) (*colstore.Dataset, SidecarStatus, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, SidecarMiss, err
	}
	src := colstore.Fingerprint(text)
	scPath := SidecarPath(path)

	status := SidecarMiss
	raw, err := os.ReadFile(scPath)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// fall through to rebuild
	case err != nil:
		return nil, SidecarMiss, err
	default:
		cs, got, decErr := colstore.DecodeBinary(raw)
		if decErr == nil && got == src {
			return cs, SidecarHit, nil
		}
		if decErr == nil {
			status = SidecarStale
		} else if errors.Is(decErr, colstore.ErrCorrupt) {
			status = SidecarQuarantined
			if renameErr := os.Rename(scPath, scPath+".corrupt"); renameErr != nil {
				return nil, status, fmt.Errorf("core: quarantining corrupt sidecar: %w", renameErr)
			}
		} else {
			return nil, SidecarMiss, decErr
		}
	}

	cs, err := ReadCanonical(bytes.NewReader(text))
	if err != nil {
		return nil, status, fmt.Errorf("core: canonical %s: %w", path, err)
	}
	if err := writeSidecar(scPath, cs, src); err != nil {
		return nil, status, err
	}
	return cs, status, nil
}
