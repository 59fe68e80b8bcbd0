package core

import (
	"bytes"
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/relay-networks/privaterelay/internal/bgp"
)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Domain:        "mask.icloud.com.",
		UniverseTotal: 512,
		Addresses: map[netip.Addr]bgp.ASN{
			netip.MustParseAddr("192.0.2.7"): 65001,
		},
		Serving: map[bgp.ASN]map[bgp.ASN]int64{
			65010: {65001: 4},
		},
		Counters:   map[string]int64{"queries": 12},
		DoneRanges: [][2]int64{{0, 63}},
	}
}

// journalImage writes ck as a compacted journal and returns its bytes.
func journalImage(t *testing.T, ck *Checkpoint) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scan.ckpt")
	if err := ck.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return image
}

// loadImage plants image as a journal file and loads it.
func loadImage(t *testing.T, image []byte) (*Checkpoint, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scan.ckpt")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	return LoadCheckpoint(path)
}

// TestCheckpointTruncationRejected: a journal cut short never resumes
// as a silently partial state. A cut inside the last frame is a torn
// append — the frame is dropped whole and the state before it comes
// back; damage to a complete frame is corrupt.
func TestCheckpointTruncationRejected(t *testing.T) {
	full := journalImage(t, sampleCheckpoint())
	headerEnd := len(journalHeader{"mask.icloud.com.", 512}.appendTo(nil))

	// Chop inside the state frame (torn write): the frame must not be
	// half-applied.
	for _, cut := range []int{len(full) - 1, (headerEnd + len(full)) / 2, headerEnd + 1, headerEnd} {
		ck, err := loadImage(t, full[:cut])
		if err != nil {
			t.Fatalf("cut at %d of %d: %v", cut, len(full), err)
		}
		if ck.Domain != "mask.icloud.com." || ck.UniverseTotal != 512 {
			t.Fatalf("cut at %d: header lost: %+v", cut, ck)
		}
		if len(ck.Addresses)+len(ck.Serving)+len(ck.DoneRanges) != 0 || ck.Counters["queries"] != 0 {
			t.Fatalf("cut at %d: torn frame partially applied: %+v", cut, ck)
		}
	}

	// Chop inside the header: nothing to resume, and no error either.
	for _, cut := range []int{0, 3, len(journalMagic), headerEnd - 1} {
		ck, err := loadImage(t, full[:cut])
		if err != nil || ck.UniverseTotal != 0 || len(ck.DoneRanges) != 0 {
			t.Fatalf("header cut at %d: ck=%+v err=%v, want empty state", cut, ck, err)
		}
	}

	// A byte deleted from the middle shifts every later frame boundary:
	// the damaged frame is complete, so this is corruption, not a tear.
	mid := headerEnd / 2
	mangled := append(append([]byte(nil), full[:mid]...), full[mid+1:]...)
	if _, err := loadImage(t, mangled); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("deleted byte: err = %v, want ErrCheckpointCorrupt", err)
	}

	// Garbage inside a complete frame is corrupt, not ignored.
	bad := append([]byte(nil), full...)
	bad[headerEnd+6] ^= 0x40
	if _, err := loadImage(t, bad); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("flipped byte: err = %v, want ErrCheckpointCorrupt", err)
	}

	// The intact file still round-trips.
	if ck, err := loadImage(t, full); err != nil || ck.Addresses[netip.MustParseAddr("192.0.2.7")] != 65001 {
		t.Fatalf("intact checkpoint: ck=%+v err=%v", ck, err)
	}
}

// TestLoadCheckpointCorruptCarriesPath: LoadCheckpoint decorates the
// typed error with the offending path so operators can find the file.
// The planted file is what an older binary's text checkpoint looks
// like: not a journal, so corrupt.
func TestLoadCheckpointCorruptCarriesPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scan.ckpt")
	if err := os.WriteFile(path, []byte("# checkpoint v1\nA 192.0.2.1,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCheckpoint(path)
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("err = %v, want ErrCheckpointCorrupt", err)
	}
	var corrupt *CorruptError
	if !errors.As(err, &corrupt) || corrupt.Path != path {
		t.Fatalf("corrupt error lacks path: %v", err)
	}
	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "missing.ckpt")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want os.ErrNotExist", err)
	}
}

// TestCheckpointWriteFileDurable: WriteFile goes through the atomic
// temp+fsync+rename path and the result loads back identically.
func TestCheckpointWriteFileDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scan.ckpt")
	ck := sampleCheckpoint()
	if err := ck.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Domain != ck.Domain || got.UniverseTotal != ck.UniverseTotal ||
		got.Addresses[netip.MustParseAddr("192.0.2.7")] != 65001 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

// TestReadCanonicalRoundTrip: WriteCanonical → ReadCanonical →
// WriteCanonical is byte-stable, so persisted dataset generations can
// be reloaded for diffing.
func TestReadCanonicalRoundTrip(t *testing.T) {
	ds := datasetOf(t, "mask.icloud.com.", map[netip.Addr]bgp.ASN{
		netip.MustParseAddr("203.0.113.9"): 65001,
		netip.MustParseAddr("203.0.113.2"): 65002,
	}, map[bgp.ASN]map[bgp.ASN]int64{
		65100: {65001: 7, 65002: 2},
		65101: {65001: 1},
	})
	var first bytes.Buffer
	if err := WriteCanonical(&first, &ds.Dataset); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCanonical(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Domain != ds.Domain {
		t.Fatalf("domain = %q, want %q", back.Domain, ds.Domain)
	}
	var second bytes.Buffer
	if err := WriteCanonical(&second, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("canonical round trip not byte-stable:\n%s\nvs\n%s", first.String(), second.String())
	}

	if _, err := ReadCanonical(strings.NewReader("Z nonsense\n")); err == nil {
		t.Fatal("unknown tag accepted")
	}
}

// FuzzReadCanonical hardens the canonical text reader against arbitrary
// bytes: it never panics, every rejection is an error with no dataset,
// and anything accepted re-encodes to text that reads back to equal
// columns and re-encodes to the same bytes.
func FuzzReadCanonical(f *testing.F) {
	ds := datasetOf(f, "mask.icloud.com.", map[netip.Addr]bgp.ASN{
		netip.MustParseAddr("17.0.0.1"):     714,
		netip.MustParseAddr("172.224.0.9"):  36183,
		netip.MustParseAddr("2a02:26f7::1"): 36183,
	}, map[bgp.ASN]map[bgp.ASN]int64{
		3320: {714: 12, 36183: 30},
		7922: {36183: 4},
	})
	var seed bytes.Buffer
	if err := WriteCanonical(&seed, &ds.Dataset); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("# canonical mask.icloud.com.\nA 17.0.0.1,714\nA 17.0.0.1,714\n"))
	f.Add([]byte("# canonical mask.icloud.com.\nQ 17.0.0.1,714\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		cs, err := ReadCanonical(bytes.NewReader(data))
		if err != nil {
			if cs != nil {
				t.Fatalf("rejection %v returned a dataset", err)
			}
			return
		}
		var first, second bytes.Buffer
		if err := WriteCanonical(&first, cs); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCanonical(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoding of accepted input rejected: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(cs, back) {
			t.Fatalf("re-encoding reads back to different columns:\n%s", first.Bytes())
		}
		if err := WriteCanonical(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding not stable:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
