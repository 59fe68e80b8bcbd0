package dnswire

import (
	"bytes"
	"net/netip"
	"testing"
)

// FuzzDecode hardens the wire parser: arbitrary input must never panic,
// and anything that decodes must re-encode and decode again to an
// equivalent message (idempotent canonical form).
func FuzzDecode(f *testing.F) {
	// Seed corpus: valid query, ECS query, multi-section response,
	// compressed names, and a few malformed shapes.
	q := NewQuery(1, "mask.icloud.com", TypeA)
	wire, _ := q.Encode(nil)
	f.Add(wire)
	ecs, _ := NewQuery(2, "mask-h2.icloud.com", TypeA).WithECS(netip.MustParsePrefix("203.0.113.0/24")).Encode(nil)
	f.Add(ecs)
	resp := &Message{
		Header:    Header{ID: 3, Response: true, Authoritative: true},
		Questions: []Question{{Name: "mask.icloud.com.", Type: TypeA, Class: ClassIN}},
		Answers: []Record{
			{Name: "mask.icloud.com.", Type: TypeA, Class: ClassIN, TTL: 60, Addr: netip.MustParseAddr("17.0.0.1")},
			{Name: "mask.icloud.com.", Type: TypeAAAA, Class: ClassIN, TTL: 60, Addr: netip.MustParseAddr("2620:149::1")},
			{Name: "mask.icloud.com.", Type: TypeTXT, Class: ClassIN, TTL: 60, Data: []byte{1, 'x'}},
		},
		Edns: &EDNS{UDPSize: 1232, ClientSubnet: &ClientSubnet{SourcePrefixLen: 24, ScopePrefixLen: 16, Addr: netip.MustParseAddr("203.0.113.0")}},
	}
	rw, _ := resp.Encode(nil)
	f.Add(rw)
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 12, 0, 1, 0, 1})
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		re, err := m.Encode(nil)
		if err != nil {
			// Messages with section counts exceeding what Encode can
			// express (e.g. absurd rdata) may refuse; that is fine.
			return
		}
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded message failed: %v", err)
		}
		if len(m2.Questions) != len(m.Questions) || len(m2.Answers) != len(m.Answers) {
			t.Fatalf("canonical form not stable: %d/%d vs %d/%d",
				len(m2.Questions), len(m2.Answers), len(m.Questions), len(m.Answers))
		}
	})
}

// FuzzDecodeName hardens the name decompressor specifically.
func FuzzDecodeName(f *testing.F) {
	f.Add([]byte{4, 'm', 'a', 's', 'k', 0}, 0)
	f.Add([]byte{0xC0, 0}, 0)
	f.Add([]byte{63, 0}, 0)
	f.Fuzz(func(t *testing.T, msg []byte, off int) {
		if off < 0 || off > len(msg) {
			return
		}
		_, _, _ = decodeName(msg, off)
	})
}
