package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"testing"

	"github.com/relay-networks/privaterelay/internal/faults"
	"github.com/relay-networks/privaterelay/internal/netsim"
)

// sweepUniverse is the head of testWorld's routed space, a few
// thousand /24s: the torn-tail sweep resumes one scan per frame
// boundary, so frame count times scan length is what it costs.
func sweepUniverse(t testing.TB) []netip.Prefix {
	t.Helper()
	all := testWorld(t).RoutedV4Prefixes()
	for n := range all {
		if universeSize(all[:n]) >= 4096 {
			return all[:n]
		}
	}
	t.Fatal("test world smaller than the sweep universe")
	return nil
}

// sweepConfig is resilientConfig under the harsh profile, over the
// sweep universe, journalling to path.
func sweepConfig(t testing.TB, workers int, path string, resume bool) ScanConfig {
	t.Helper()
	cfg, _, _ := resilientConfig(testWorld(t), aprDefault, harshProfile(t), workers)
	cfg.Universe = sweepUniverse(t)
	cfg.Checkpoint = &CheckpointConfig{Path: path, Every: 64, Resume: resume}
	return cfg
}

func harshProfile(t testing.TB) *faults.Profile {
	t.Helper()
	p, err := faults.Parse("harsh,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// harshJournal runs one checkpointed scan to completion under the harsh
// profile and returns the journal it leaves behind.
func harshJournal(t testing.TB, workers int) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scan.ckpt")
	ds, err := Scan(context.Background(), sweepConfig(t, workers, path, false))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Stats.FailedSubnets != 0 || ds.Stats.Retries == 0 {
		t.Fatalf("want a faulted scan that fully recovered: %d failed, %d retries", ds.Stats.FailedSubnets, ds.Stats.Retries)
	}
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(image)) != ds.Stats.CheckpointBytes+int64(len(journalHeader{ds.Domain, ds.Stats.SubnetsTotal}.appendTo(nil))) {
		t.Fatalf("journal is %d bytes, stats say header + %d", len(image), ds.Stats.CheckpointBytes)
	}
	return image
}

// frameEnds walks a journal image and returns the offset each whole
// frame ends at (the header's first) with the done count of the prefix
// up to there.
func frameEnds(t testing.TB, image []byte) (ends []int, done []int64) {
	t.Helper()
	jr, err := newJournalReader(image)
	if err != nil || jr == nil {
		t.Fatalf("journal header: reader=%v err=%v", jr, err)
	}
	ends, done = []int{jr.off}, []int64{0}
	for {
		fr, err := jr.next()
		if err != nil {
			t.Fatal(err)
		}
		if fr == nil {
			return ends, done
		}
		ends = append(ends, jr.off)
		done = append(done, done[len(done)-1]+fr.doneCount())
	}
}

// TestCheckpointJournalTornTailSweep tears the file for real — every
// other kill test cancels a context and lets the scan commit gracefully.
// A finished harsh-profile journal is cut at every frame boundary, at
// offsets inside the header and inside a sample of frames; each cut
// must resume (workers 1 and 8) to the fault-free bytes, trusting
// exactly the done bits of the whole frames that survive. Damage inside
// a complete mid-file frame is not a tear: it must come back as a
// CorruptError carrying the path.
func TestCheckpointJournalTornTailSweep(t *testing.T) {
	clean := scanConfig(testWorld(t), aprDefault.month, aprDefault.domain)
	clean.Universe = sweepUniverse(t)
	ds, err := Scan(context.Background(), clean)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalBytes(t, ds)
	image := harshJournal(t, 8)
	ends, done := frameEnds(t, image)
	if len(ends) < 20 || done[len(done)-1] == 0 {
		t.Fatalf("journal too small to sweep: %d frames, %d done", len(ends)-1, done[len(done)-1])
	}

	type cut struct {
		at      int
		resumed int64
	}
	var cuts []cut
	for _, at := range []int{0, 3, len(journalMagic), len(journalMagic) + 2, ends[0] - 1} {
		cuts = append(cuts, cut{at, 0}) // inside the header: nothing survives
	}
	for i, end := range ends {
		cuts = append(cuts, cut{end, done[i]})
		if i+1 < len(ends) && i%7 == 0 { // inside the next frame: length, payload, CRC
			for _, at := range []int{end + 2, (end + ends[i+1]) / 2, ends[i+1] - 1} {
				cuts = append(cuts, cut{at, done[i]})
			}
		}
	}

	for n, c := range cuts {
		for _, workers := range [][]int{{1}, {8}, {1, 8}}[n%3] {
			sweepCut(t, image, ends, c.at, c.resumed, workers, want)
		}
	}

	// One flipped byte inside a complete mid-file frame.
	mid := len(ends) / 2
	for _, at := range []int{ends[mid] + 1, (ends[mid] + ends[mid+1]) / 2, ends[mid+1] - 1} {
		path := filepath.Join(t.TempDir(), "scan.ckpt")
		bad := append([]byte(nil), image...)
		bad[at] ^= 0x10
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Scan(context.Background(), sweepConfig(t, 1, path, true))
		var corrupt *CorruptError
		if !errors.Is(err, ErrCheckpointCorrupt) || !errors.As(err, &corrupt) || corrupt.Path != path {
			t.Fatalf("flip at %d: err = %v, want a CorruptError carrying %s", at, err, path)
		}
	}
}

// sweepCut resumes a scan from image cut to at bytes and checks it
// trusted exactly the surviving whole frames.
func sweepCut(t *testing.T, image []byte, ends []int, at int, resumed int64, workers int, want []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scan.ckpt")
	if err := os.WriteFile(path, image[:at], 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := Scan(context.Background(), sweepConfig(t, workers, path, true))
	if err != nil {
		t.Fatalf("cut at %d (workers=%d): %v", at, workers, err)
	}
	if ds.Stats.ResumedSubnets != resumed {
		t.Fatalf("cut at %d: resumed %d subnets, surviving prefix marks %d done", at, ds.Stats.ResumedSubnets, resumed)
	}
	valid := 0
	for _, end := range ends {
		if end <= at {
			valid = end
		}
	}
	if got := ds.Stats.CheckpointTornBytes; got != int64(at-valid) {
		t.Fatalf("cut at %d: %d torn bytes reported, want %d", at, got, at-valid)
	}
	if ds.Stats.FailedSubnets != 0 {
		t.Fatalf("cut at %d: %d subnets unrecovered", at, ds.Stats.FailedSubnets)
	}
	if got := canonicalBytes(t, ds); !bytes.Equal(got, want) {
		t.Fatalf("cut at %d (workers=%d): resumed dataset differs from the fault-free baseline", at, workers)
	}
}

// TestCheckpointJournalErrorStopsScan: a journal that cannot be opened
// fails the scan up front, and a failed append or fsync is sticky — the
// writer stops touching the file and Scan returns that error.
func TestCheckpointJournalErrorStopsScan(t *testing.T) {
	cfg := scanConfig(testWorld(t), netsim.MonthApr, aprDefault.domain)
	cfg.Checkpoint = &CheckpointConfig{Path: filepath.Join(t.TempDir(), "missing-dir", "scan.ckpt")}
	if _, err := Scan(context.Background(), cfg); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want os.ErrNotExist from the journal open", err)
	}

	j, _, err := openJournal(&CheckpointConfig{Path: filepath.Join(t.TempDir(), "scan.ckpt"), Every: 64}, "d.", 128)
	if err != nil {
		t.Fatal(err)
	}
	j.f.Close() // every later write fails, like a disk that went away
	frame := (&journalFrame{done: []doneRange{{0, 63}}}).appendTo(nil)
	j.append(frame, 64)
	if !errors.Is(j.err, os.ErrClosed) {
		t.Fatalf("append on a dead file: err = %v", j.err)
	}
	first, frames := j.err, j.frames
	j.append(frame, 64)
	if j.err != first || j.frames != frames {
		t.Fatalf("writer kept appending after an error: err=%v frames=%d", j.err, j.frames)
	}
}

// FuzzReadJournal hardens the journal reader against arbitrary bytes:
// it never panics, every rejection is the typed *CorruptError, and the
// frames of anything accepted re-encode to exactly the accepted bytes —
// the whole-frame prefix, with at most a torn tail after it.
func FuzzReadJournal(f *testing.F) {
	// Seeds stay small — the head and the deferral-pass tail of a real
	// faulted scan's journal, not all of it — so the fuzzer spends its
	// time mutating, not minimizing.
	real := harshJournal(f, 1)
	ends, _ := frameEnds(f, real)
	f.Add(real[:ends[6]])
	f.Add(real[:ends[3]+5]) // torn mid-frame
	f.Add(real[:ends[0]])   // header only
	f.Add(append(real[:ends[0]:ends[0]], real[ends[len(ends)-4]:]...))
	hdr := journalHeader{"mask.icloud.com.", 512}.appendTo(nil)
	f.Add((&journalFrame{}).appendTo(hdr))
	// testdata/fuzz/FuzzReadJournal holds a hand-built frame with every
	// section filled, framed and as a bare payload.
	f.Add([]byte("# checkpoint v1\nA 192.0.2.1,1\n"))
	f.Add([]byte(journalMagic))
	f.Add([]byte{})
	// Mutating a framed seed almost always dies at the CRC, so the
	// payload decoder is also driven bare: seed it with one real payload.
	payload, _, _, _ := nextFrame(real[ends[len(ends)-2]:])
	f.Add(payload)

	f.Fuzz(func(t *testing.T, data []byte) {
		var bare journalFrame
		if bare.decodePayload(data, maxUniverse) {
			if re := bare.appendPayload(nil); !bytes.Equal(re, data) {
				t.Fatalf("payload of %d bytes accepted but re-encodes to %d different bytes", len(data), len(re))
			}
		}

		jr, err := newJournalReader(data)
		var re []byte
		valid := 0
		if jr != nil {
			re = jr.journalHeader.appendTo(nil)
			shard, done := newScanShard(), newBitset(jr.total)
			var fr *journalFrame
			for fr, err = jr.next(); fr != nil; fr, err = jr.next() {
				re = fr.appendTo(re)
				shard.apply(fr)
				for _, r := range fr.done {
					for i := r.lo; i <= r.hi; i++ {
						done.set(i)
					}
				}
			}
			valid = jr.off
		}
		if err != nil {
			var ce *CorruptError
			if !errors.Is(err, ErrCheckpointCorrupt) || !errors.As(err, &ce) {
				t.Fatalf("rejection is not a *CorruptError: %v", err)
			}
			return
		}
		if !bytes.Equal(re, data[:valid]) {
			t.Fatalf("accepted %d of %d bytes but the frames re-encode to %d different bytes", valid, len(data), len(re))
		}
		if _, _, whole, _ := nextFrame(data[valid:]); valid > 0 && whole {
			t.Fatalf("reader stopped at %d with a whole frame still ahead", valid)
		}
	})
}

// TestJournalFrameRoundTrip: a frame decodes to what was encoded, and
// the universe bound on done indices is enforced.
func TestJournalFrameRoundTrip(t *testing.T) {
	in := &journalFrame{
		done:     []doneRange{{5, 9}},
		addrs:    []addrEntry{{netip.MustParseAddr("192.0.2.7"), 65001}},
		serving:  []servingDelta{{65010, 65001, 5}},
		ledger:   []SubnetFault{{Subnet: netip.MustParsePrefix("10.1.2.0/24"), Stale: 1, Attempts: 1, LastKind: faults.KindStale}},
		counters: scanCounters{cQueries: 6, cStaleAttempts: 1},
	}
	frame := in.appendTo(nil)
	payload, size, whole, err := nextFrame(frame)
	if !whole || err != nil || size != len(frame) {
		t.Fatalf("nextFrame: size=%d whole=%v err=%v", size, whole, err)
	}
	var out journalFrame
	if !out.decodePayload(payload, 10) {
		t.Fatal("frame does not decode")
	}
	if fmt.Sprint(out) != fmt.Sprint(*in) {
		t.Fatalf("decoded %v, encoded %v", out, *in)
	}
	if out.decodePayload(payload, 9) {
		t.Fatal("done index beyond the universe accepted")
	}
}
