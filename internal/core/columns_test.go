package core

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"net/netip"
	"os"
	"path/filepath"
	"testing"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/colstore"
)

// datasetOf lays map-stated contents out as a normalized Dataset — how
// tests describe a dataset without running a scan.
func datasetOf(t testing.TB, domain string, addrs map[netip.Addr]bgp.ASN, serving map[bgp.ASN]map[bgp.ASN]int64) *Dataset {
	t.Helper()
	ds := &Dataset{Dataset: colstore.Dataset{Domain: domain}}
	for addr, as := range addrs {
		ds.AppendAddr(addr, as)
	}
	for client, ops := range serving {
		for op, n := range ops {
			ds.AppendServing(client, op, n)
		}
	}
	if err := ds.Normalize(); err != nil {
		t.Fatal(err)
	}
	return ds
}

// addrMap and servingMap state a dataset's columns as maps, the form
// order-free assertions compare against.
func addrMap(cs *colstore.Dataset) map[netip.Addr]bgp.ASN {
	out := make(map[netip.Addr]bgp.ASN, cs.Addrs())
	cs.ForEachAddr(func(addr netip.Addr, as bgp.ASN) bool {
		out[addr] = as
		return true
	})
	return out
}

func servingMap(cs *colstore.Dataset) map[bgp.ASN]map[bgp.ASN]int64 {
	out := make(map[bgp.ASN]map[bgp.ASN]int64)
	for i, client := range cs.SrvClient {
		if out[client] == nil {
			out[client] = make(map[bgp.ASN]int64)
		}
		out[client][cs.SrvOp[i]] = cs.SrvCount[i]
	}
	return out
}

// seededDataset builds a dataset with both address families and
// serving stats, deterministic per seed.
func seededDataset(t testing.TB, seed uint64, addrs int) *Dataset {
	set, serving := seededMaps(seed, addrs)
	return datasetOf(t, "mask.icloud.com.", set, serving)
}

// seededMaps states seededDataset's contents as maps, the oracle form.
func seededMaps(seed uint64, addrs int) (map[netip.Addr]bgp.ASN, map[bgp.ASN]map[bgp.ASN]int64) {
	rng := rand.New(rand.NewPCG(seed, 0xc0de))
	set := make(map[netip.Addr]bgp.ASN)
	for len(set) < addrs {
		as := bgp.ASN(rng.Uint32N(70000) + 1)
		if rng.Uint32N(3) == 0 {
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
	serving := make(map[bgp.ASN]map[bgp.ASN]int64)
	for c := 0; c < 4; c++ {
		ops := make(map[bgp.ASN]int64)
		for o := 0; o < 3; o++ {
			ops[bgp.ASN(6185+o)] = int64(rng.Uint32N(500))
		}
		serving[bgp.ASN(100+c)] = ops
	}
	return set, serving
}

// TestColumnsRoundTripBytes is the golden-format property: canonical
// text → colstore → binary → colstore → text reproduces the exact
// bytes, for several seeds.
func TestColumnsRoundTripBytes(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		orig := seededDataset(t, seed, 500)
		text := canonicalBytes(t, orig)

		cs, err := ReadCanonical(bytes.NewReader(text))
		if err != nil {
			t.Fatalf("ReadCanonical: %v", err)
		}
		enc := cs.AppendBinary(nil, colstore.Fingerprint(text))
		cs2, src, err := colstore.DecodeBinary(enc)
		if err != nil {
			t.Fatalf("DecodeBinary: %v", err)
		}
		if src != colstore.Fingerprint(text) {
			t.Fatal("fingerprint did not round-trip")
		}
		back := canonicalBytes(t, &Dataset{Dataset: *cs2})
		if !bytes.Equal(back, text) {
			t.Fatalf("seed %d: canonical text did not survive the columnar round trip", seed)
		}
	}
}

func TestColumnsOperatorCountsAgree(t *testing.T) {
	set, serving := seededMaps(7, 300)
	ds := datasetOf(t, "mask.icloud.com.", set, serving)
	want := make(map[bgp.ASN]int)
	for _, as := range set {
		want[as]++
	}
	got := ds.OperatorCounts()
	if len(got) != len(want) {
		t.Fatalf("columnar OperatorCounts has %d operators, map %d", len(got), len(want))
	}
	for as, n := range want {
		if got[as] != n {
			t.Fatalf("operator %d: columnar %d, map %d", as, got[as], n)
		}
	}
}

// TestSidecarChaosLifecycle drives LoadColumns through every sidecar
// state — present, missing, stale, corrupt — and checks each repairs to
// a byte-identical sidecar and identical columns.
func TestSidecarChaosLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "2022-01.ds")
	ds := seededDataset(t, 3, 400)
	if err := SaveCanonicalFile(path, ds); err != nil {
		t.Fatalf("SaveCanonicalFile: %v", err)
	}
	scPath := SidecarPath(path)
	golden, err := os.ReadFile(scPath)
	if err != nil {
		t.Fatalf("sidecar missing after save: %v", err)
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	load := func(wantStatus SidecarStatus) *colstore.Dataset {
		t.Helper()
		cs, status, err := LoadColumns(path)
		if err != nil {
			t.Fatalf("LoadColumns: %v", err)
		}
		if status != wantStatus {
			t.Fatalf("status %v, want %v", status, wantStatus)
		}
		now, err := os.ReadFile(scPath)
		if err != nil || !bytes.Equal(now, golden) {
			t.Fatalf("sidecar bytes diverged after %v load (err=%v)", wantStatus, err)
		}
		if got := canonicalBytes(t, &Dataset{Dataset: *cs}); !bytes.Equal(got, text) {
			t.Fatalf("columns after %v load do not reproduce the canonical text", wantStatus)
		}
		return cs
	}

	load(SidecarHit)

	// Missing: a crash between text and sidecar writes.
	if err := os.Remove(scPath); err != nil {
		t.Fatal(err)
	}
	load(SidecarMiss)
	load(SidecarHit)

	// Stale: valid sidecar fingerprinting different text bytes.
	other := seededDataset(t, 99, 50)
	staleEnc := other.AppendBinary(nil, colstore.Fingerprint([]byte("other text")))
	if err := os.WriteFile(scPath, staleEnc, 0o644); err != nil {
		t.Fatal(err)
	}
	load(SidecarStale)

	// Corrupt: torn write / bit rot mid-file.
	torn := append([]byte(nil), golden...)
	torn[len(torn)/2] ^= 0xff
	if err := os.WriteFile(scPath, torn[:len(torn)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	load(SidecarQuarantined)
	if q, err := os.ReadFile(scPath + ".corrupt"); err != nil || !bytes.Equal(q, torn[:len(torn)-3]) {
		t.Fatalf("quarantine file missing or altered (err=%v)", err)
	}
	load(SidecarHit)

	// The text failing to parse is the only fatal path.
	if err := os.WriteFile(path, []byte("not canonical at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadColumns(path); err == nil {
		t.Fatal("garbage canonical text loaded without error")
	}
}

func TestClassifierColumnsAgreesWithMap(t *testing.T) {
	set, serving := seededMaps(5, 300)
	ds := datasetOf(t, "mask.icloud.com.", set, serving)
	egress := map[netip.Prefix]bgp.ASN{netip.MustParsePrefix("203.0.113.0/24"): 714}
	byCols := NewClassifier(&ds.Dataset, egress)
	probe := netip.MustParseAddr("198.51.100.7")
	for addr, as := range set {
		gc, gas := byCols.Classify(probe, addr)
		if gc != ClassToIngress || gas != as {
			t.Fatalf("Classify(dst=%v): columns (%v,%v), map (%v,%v)", addr, gc, gas, ClassToIngress, as)
		}
		if !byCols.IsIngress(addr) {
			t.Fatalf("IsIngress(%v) false via columns", addr)
		}
	}
	if byCols.IsIngress(netip.MustParseAddr("192.0.2.1")) {
		t.Fatal("false ingress hit via columns")
	}
	if cls, as := byCols.Classify(netip.MustParseAddr("203.0.113.9"), probe); cls != ClassFromEgress || as != 714 {
		t.Fatalf("egress classification broken: %v,%v", cls, as)
	}
}
