package relayd

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/colstore"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
)

// FuzzReadDiff hardens the generation diff reader: it never panics, every rejection is an error with no diff, and
// anything accepted re-encodes to text that reads back equal and
// re-encodes to the same bytes.
func FuzzReadDiff(f *testing.F) {
	cols := func(set map[string]bgp.ASN) *colstore.Dataset {
		ds := &colstore.Dataset{Domain: dnsserver.MaskDomain}
		for a, as := range set {
			ds.AppendAddr(netip.MustParseAddr(a), as)
		}
		if err := ds.Normalize(); err != nil {
			f.Fatal(err)
		}
		return ds
	}
	jan, feb := bgp.Month{Year: 2022, M: 1}, bgp.Month{Year: 2022, M: 2}
	d := ComputeDiff(1, jan, feb,
		cols(map[string]bgp.ASN{"17.0.0.1": 714, "172.224.0.9": 36183, "2a02:26f7::1": 36183}),
		cols(map[string]bgp.ASN{"17.0.0.1": 714, "172.224.0.9": 20940, "17.0.0.2": 714}))
	var gen bytes.Buffer
	if err := d.Write(&gen); err != nil {
		f.Fatal(err)
	}
	f.Add(gen.Bytes())
	f.Add(gen.Bytes()[:gen.Len()-2])
	f.Add(bytes.Replace(gen.Bytes(), []byte("# from "+jan.String()+"\n"), nil, 1))
	f.Add(bytes.Replace(gen.Bytes(), []byte("~ 172.224.0.9,36183,20940"), []byte("~ 172.224.0.9,36183"), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDiff(bytes.NewReader(data))
		if err != nil {
			if d != nil {
				t.Fatalf("rejection %v returned a diff", err)
			}
			return
		}
		var first, second bytes.Buffer
		if err := d.Write(&first); err != nil {
			t.Fatal(err)
		}
		back, err := ReadDiff(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoding of accepted input rejected: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(d, back) {
			t.Fatalf("re-encoding reads back to a different diff:\n%s", first.Bytes())
		}
		if err := back.Write(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding not stable:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
