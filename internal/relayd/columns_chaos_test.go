package relayd

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/colstore"
	"github.com/relay-networks/privaterelay/internal/core"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
)

// The columnar data plane's relayd-level guarantees: the streaming
// merge reproduces the map-based diff bytes exactly, sidecar damage in
// any state (present / stale / corrupted mid-write) repairs to the
// baseline tree, and retention compaction survives kills at every
// stage without forking the durable bytes.

// synthAddrs draws an address set with both families, deterministic
// per (seed, month-index) so successive months churn.
func synthAddrs(seed uint64, addrs int) map[netip.Addr]bgp.ASN {
	rng := rand.New(rand.NewPCG(seed, 0x5e55))
	set := make(map[netip.Addr]bgp.ASN)
	for len(set) < addrs {
		as := bgp.ASN(rng.Uint32N(70000) + 1)
		if rng.Uint32N(4) == 0 {
			var b [16]byte
			binary.BigEndian.PutUint64(b[:8], rng.Uint64())
			binary.BigEndian.PutUint64(b[8:], rng.Uint64())
			set[netip.AddrFrom16(b)] = as
		} else {
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], rng.Uint32())
			set[netip.AddrFrom4(b)] = as
		}
	}
	return set
}

// synthMonths derives a churned month sequence: month i shares most of
// month i-1's addresses, drops some, adds some, moves some origins.
func synthMonths(t *testing.T, n, addrs int) []*core.Dataset {
	t.Helper()
	out := make([]*core.Dataset, n)
	set := synthAddrs(1, addrs)
	for i := 0; i < n; i++ {
		if i > 0 {
			rng := rand.New(rand.NewPCG(uint64(i), 0xc4a5))
			next := make(map[netip.Addr]bgp.ASN)
			for a, as := range set {
				switch rng.Uint32N(12) {
				case 0: // vanish
				case 1:
					next[a] = as + 1 // move AS
				default:
					next[a] = as
				}
			}
			for a, as := range synthAddrs(uint64(100+i), addrs/10) {
				next[a] = as
			}
			set = next
		}
		out[i] = datasetOf(t, set)
	}
	return out
}

// datasetOf lays an address set out as a normalized dataset.
func datasetOf(t *testing.T, set map[netip.Addr]bgp.ASN) *core.Dataset {
	t.Helper()
	ds := &core.Dataset{Dataset: colstore.Dataset{Domain: dnsserver.MaskDomain}}
	for a, as := range set {
		ds.AppendAddr(a, as)
	}
	if err := ds.Normalize(); err != nil {
		t.Fatal(err)
	}
	return ds
}

// addrMap states a dataset's address columns as a map.
func addrMap(cs *colstore.Dataset) map[netip.Addr]bgp.ASN {
	out := make(map[netip.Addr]bgp.ASN, cs.Addrs())
	cs.ForEachAddr(func(addr netip.Addr, as bgp.ASN) bool {
		out[addr] = as
		return true
	})
	return out
}

// mapDiff is the reference ComputeDiff is pinned against: hash every
// address of the newer dataset against the older and back, then sort
// each change list by address.
func mapDiff(gen int, from, to bgp.Month, a, b *colstore.Dataset) *DatasetDiff {
	am, bm := addrMap(a), addrMap(b)
	d := &DatasetDiff{Domain: b.Domain, Gen: gen, From: from, To: to}
	for addr, asn := range bm {
		old, ok := am[addr]
		switch {
		case !ok:
			d.Appeared = append(d.Appeared, DiffEntry{Addr: addr, NewASN: asn})
		case old != asn:
			d.MovedAS = append(d.MovedAS, DiffEntry{Addr: addr, OldASN: old, NewASN: asn})
		}
	}
	for addr, asn := range am {
		if _, ok := bm[addr]; !ok {
			d.Vanished = append(d.Vanished, DiffEntry{Addr: addr, OldASN: asn})
		}
	}
	for _, s := range []*[]DiffEntry{&d.Appeared, &d.Vanished, &d.MovedAS} {
		slices.SortFunc(*s, func(x, y DiffEntry) int { return x.Addr.Compare(y.Addr) })
	}
	return d
}

// TestStreamingDiffMatchesComputeDiff: ComputeDiff's streaming merge
// renders byte-identically to the map-based mapDiff oracle — on the
// simulated baseline months and on synthetic v6-heavy worlds.
func TestStreamingDiffMatchesComputeDiff(t *testing.T) {
	t.Run("baseline", func(t *testing.T) {
		dir := sharedBaseline(t)
		pipe, err := NewPipeline(chaosServiceConfig(dir).Pipeline)
		if err != nil {
			t.Fatal(err)
		}
		months := pipe.Months()
		for _, domain := range []string{dnsserver.MaskDomain, dnsserver.MaskH2Domain} {
			for g := 1; g < len(months); g++ {
				ca, err := pipe.LoadColumns(domain, months[g-1])
				if err != nil {
					t.Fatal(err)
				}
				cb, err := pipe.LoadColumns(domain, months[g])
				if err != nil {
					t.Fatal(err)
				}
				var mapped, streamed bytes.Buffer
				if err := mapDiff(g, months[g-1], months[g], ca, cb).Write(&mapped); err != nil {
					t.Fatal(err)
				}
				if err := ComputeDiff(g, months[g-1], months[g], ca, cb).Write(&streamed); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mapped.Bytes(), streamed.Bytes()) {
					t.Fatalf("%s gen %d: streaming diff bytes differ from map-based", domain, g)
				}
			}
		}
	})
	t.Run("synthetic-v6", func(t *testing.T) {
		months := synthMonths(t, 6, 2000)
		from, to := bgp.Month{Year: 2022, M: 1}, bgp.Month{Year: 2022, M: 2}
		for i := 1; i < len(months); i++ {
			ca, cb := &months[i-1].Dataset, &months[i].Dataset
			var mapped, streamed bytes.Buffer
			if err := mapDiff(i, from, to, ca, cb).Write(&mapped); err != nil {
				t.Fatal(err)
			}
			if err := ComputeDiff(i, from, to, ca, cb).Write(&streamed); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mapped.Bytes(), streamed.Bytes()) {
				t.Fatalf("synthetic gen %d: streaming diff bytes differ from map-based", i)
			}
			if streamed.Len() < 100 {
				t.Fatalf("synthetic gen %d produced a near-empty diff — churn generator broken", i)
			}
		}
	})
}

// copyDurableTree clones the durable roots of src into a fresh temp dir.
func copyDurableTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for rel, b := range durableTree(t, src) {
		path := filepath.Join(dst, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// rerunDerived re-materializes every derived artifact (diffs, report)
// over an existing dataset tree, exercising every sidecar load path.
func rerunDerived(t *testing.T, dir string) {
	t.Helper()
	pipe, err := NewPipeline(chaosServiceConfig(dir).Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.EnsureDiffs(len(pipe.Months()) - 1); err != nil {
		t.Fatal(err)
	}
	if err := pipe.WriteReport(); err != nil {
		t.Fatal(err)
	}
}

// TestRelaydChaosSidecarResume: the byte-identity contract holds with
// sidecars in all three damaged states — present (untouched), stale
// (valid bytes fingerprinting older text), and corrupted mid-write
// (truncated) — each repaired from the golden text on the next load.
func TestRelaydChaosSidecarResume(t *testing.T) {
	want := durableTree(t, sharedBaseline(t))
	dir := copyDurableTree(t, sharedBaseline(t))

	// Pick one dataset's sidecar to damage per scenario.
	ds1 := filepath.Join(dir, "datasets", domainSlug(dnsserver.MaskDomain), "2022-01.ds")
	ds2 := filepath.Join(dir, "datasets", domainSlug(dnsserver.MaskH2Domain), "2022-02.ds")
	sc1, sc2 := core.SidecarPath(ds1), core.SidecarPath(ds2)
	for _, p := range []string{ds1, ds2, sc1, sc2} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("fixture missing: %v", err)
		}
	}

	compare := func(stage string) {
		t.Helper()
		got := durableTree(t, dir)
		if len(got) != len(want) {
			t.Fatalf("%s: durable file sets differ: %d vs %d", stage, len(got), len(want))
		}
		for rel, b := range want {
			if !bytes.Equal(got[rel], b) {
				t.Fatalf("%s: %s differs from baseline", stage, rel)
			}
		}
	}

	// Present: a no-op pass over intact sidecars changes nothing.
	rerunDerived(t, dir)
	compare("present")

	// Stale: a valid sidecar built from different text bytes. Also drop
	// a diff generation so the load path is actually exercised.
	other := datasetOf(t, synthAddrs(77, 50))
	stale := other.AppendBinary(nil, colstore.Fingerprint([]byte("older text")))
	if err := os.WriteFile(sc1, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "diffs", domainSlug(dnsserver.MaskDomain), "gen-000001.diff")); err != nil {
		t.Fatal(err)
	}
	rerunDerived(t, dir)
	compare("stale")

	// Corrupted mid-write: a torn sidecar (truncated tail, flipped byte).
	enc, err := os.ReadFile(sc2)
	if err != nil {
		t.Fatal(err)
	}
	torn := append([]byte(nil), enc[:len(enc)*2/3]...)
	if len(torn) > 40 {
		torn[40] ^= 0xff
	}
	if err := os.WriteFile(sc2, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "diffs", domainSlug(dnsserver.MaskH2Domain), "gen-000002.diff")); err != nil {
		t.Fatal(err)
	}
	rerunDerived(t, dir)
	quarantine := sc2 + ".corrupt"
	if q, err := os.ReadFile(quarantine); err != nil || !bytes.Equal(q, torn) {
		t.Fatalf("corrupt sidecar not quarantined verbatim (err=%v)", err)
	}
	// The quarantine file is post-mortem residue, not durable output;
	// remove it before the byte-identity comparison.
	if err := os.Remove(quarantine); err != nil {
		t.Fatal(err)
	}
	compare("corrupt")
}
