// Longitudinal data-plane benchmarks: the persistence and diff paths
// relayd runs every virtual month. A seeded 12-month history (churned
// the way the paper's ingress lists churn: a twelfth vanishes, a
// twelfth moves operator, a tenth appears) is written once per process
// as canonical text plus columnar sidecars, and the benchmarks measure
// the three costs that bound a catch-up replay: parsing the text,
// loading the sidecar, and diffing adjacent months. benchjson turns the
// output into BENCH_persist.json for the regression gate.
package privaterelay_test

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/colstore"
	"github.com/relay-networks/privaterelay/internal/core"
	"github.com/relay-networks/privaterelay/internal/relayd"
)

// persistMonths is the seeded history length and persistAddrs the size
// of the first month; later months churn around that size.
const (
	persistMonths = 12
	persistAddrs  = 50000
)

type persistEnv struct {
	dir    string
	months []bgp.Month
	cols   []*colstore.Dataset // one dataset per month
	paths  []string
}

var (
	persistOnce sync.Once
	persistVal  *persistEnv
	persistErr  error
)

// persist builds the shared 12-month on-disk history once per process.
func persist(b *testing.B) *persistEnv {
	b.Helper()
	persistOnce.Do(func() { persistVal, persistErr = buildPersistEnv() })
	if persistErr != nil {
		b.Fatal(persistErr)
	}
	return persistVal
}

func buildPersistEnv() (*persistEnv, error) {
	dir, err := os.MkdirTemp("", "persist-bench-*")
	if err != nil {
		return nil, err
	}
	e := &persistEnv{dir: dir}
	rng := rand.New(rand.NewPCG(7, 11))
	addrs := synthPersistAddrs(rng, persistAddrs)
	for m := 1; m <= persistMonths; m++ {
		month := bgp.Month{Year: 2022, M: m}
		if m > 1 {
			addrs = churnPersistAddrs(rng, addrs)
		}
		ds, err := persistDataset(addrs)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("mask-2022-%02d.ds", m))
		if err := core.SaveCanonicalFile(path, ds); err != nil {
			return nil, err
		}
		e.months = append(e.months, month)
		e.cols = append(e.cols, &ds.Dataset)
		e.paths = append(e.paths, path)
	}
	return e, nil
}

// persistDataset lays one month's address set out as sorted columns,
// with the same eight clients' serving rows every month.
func persistDataset(addrs map[netip.Addr]bgp.ASN) (*core.Dataset, error) {
	ds := &core.Dataset{Dataset: colstore.Dataset{Domain: "mask.icloud.com"}}
	for addr, asn := range addrs {
		ds.AppendAddr(addr, asn)
	}
	for i := 0; i < 8; i++ {
		client := bgp.ASN(3200 + i)
		ds.AppendServing(client, 714, int64(100+i))
		ds.AppendServing(client, 20940, int64(50+i))
	}
	return ds, ds.Normalize()
}

// synthPersistAddrs draws a month with ¾ v4 and ¼ v6 addresses spread
// across eight operator ASes.
func synthPersistAddrs(rng *rand.Rand, n int) map[netip.Addr]bgp.ASN {
	addrs := make(map[netip.Addr]bgp.ASN, n)
	for len(addrs) < n {
		var addr netip.Addr
		if rng.IntN(4) == 0 {
			var b [16]byte
			b[0], b[1] = 0x2a, 0x02
			for i := 2; i < 16; i++ {
				b[i] = byte(rng.UintN(256))
			}
			addr = netip.AddrFrom16(b)
		} else {
			addr = netip.AddrFrom4([4]byte{
				byte(17 + rng.UintN(64)), byte(rng.UintN(256)),
				byte(rng.UintN(256)), byte(rng.UintN(256)),
			})
		}
		addrs[addr] = bgp.ASN(714 + rng.UintN(8))
	}
	return addrs
}

// churnPersistAddrs applies one month of churn: 1/12 of addresses
// vanish, 1/12 move operator, and 1/10 of the size appears fresh.
func churnPersistAddrs(rng *rand.Rand, prev map[netip.Addr]bgp.ASN) map[netip.Addr]bgp.ASN {
	next := make(map[netip.Addr]bgp.ASN, len(prev))
	for addr, asn := range prev {
		switch rng.IntN(12) {
		case 0: // vanished
		case 1:
			next[addr] = bgp.ASN(714 + (uint32(asn)-714+1+rng.Uint32N(7))%8)
		default:
			next[addr] = asn
		}
	}
	for addr, asn := range synthPersistAddrs(rng, len(prev)/10) {
		next[addr] = asn
	}
	return next
}

// BenchmarkPersistCanonicalRead parses one month of canonical text —
// the cold path a sidecar-less catch-up pays per dataset.
func BenchmarkPersistCanonicalRead(b *testing.B) {
	e := persist(b)
	text, err := os.ReadFile(e.paths[persistMonths-1])
	if err != nil {
		b.Fatal(err)
	}
	rows := float64(e.cols[persistMonths-1].Rows())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ReadCanonical(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
}

// BenchmarkPersistSidecarLoad loads the same month through the columnar
// sidecar (always a cache hit here): fingerprint the text, decode the
// binary, validate the footer.
func BenchmarkPersistSidecarLoad(b *testing.B) {
	e := persist(b)
	path := e.paths[persistMonths-1]
	rows := float64(e.cols[persistMonths-1].Rows())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, status, err := core.LoadColumns(path)
		if err != nil {
			b.Fatal(err)
		}
		if status != core.SidecarHit {
			b.Fatalf("sidecar status = %v, want hit", status)
		}
		if cs.Rows() != int(rows) {
			b.Fatalf("rows = %d, want %d", cs.Rows(), int(rows))
		}
	}
	b.ReportMetric(rows*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
}

// BenchmarkPersistSidecarEncode serializes one month's columns to the
// sidecar binary form (the write half of SaveCanonicalFile, minus I/O).
func BenchmarkPersistSidecarEncode(b *testing.B) {
	e := persist(b)
	cs := e.cols[persistMonths-1]
	src := colstore.SourceInfo{Size: 1, CRC: 1}
	buf := cs.AppendBinary(nil, src)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = cs.AppendBinary(buf[:0], src)
	}
}

// BenchmarkDiffStreaming generates all eleven month-over-month diffs
// with ComputeDiff's streaming two-pointer merge over sorted columns —
// no maps, already in canonical order. The relayd chaos suite pins its
// output byte-identical to a map-based test oracle.
func BenchmarkDiffStreaming(b *testing.B) {
	e := persist(b)
	var changes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		changes = 0
		for g := 1; g < persistMonths; g++ {
			d := relayd.ComputeDiff(g, e.months[g-1], e.months[g], e.cols[g-1], e.cols[g])
			changes += len(d.Appeared) + len(d.Vanished) + len(d.MovedAS)
		}
	}
	b.ReportMetric(float64(changes), "changes")
	b.ReportMetric(float64(changes*b.N)/b.Elapsed().Seconds(), "changes/sec")
}
