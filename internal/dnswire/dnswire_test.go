package dnswire

import (
	"bytes"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestCanonicalName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "."},
		{".", "."},
		{"Mask.iCloud.COM", "mask.icloud.com."},
		{"mask.icloud.com.", "mask.icloud.com."},
	}
	for _, c := range cases {
		if got := CanonicalName(c.in); got != c.want {
			t.Errorf("CanonicalName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTypeClassRCodeStrings(t *testing.T) {
	if TypeA.String() != "A" || TypeAAAA.String() != "AAAA" || Type(999).String() != "TYPE999" {
		t.Error("Type.String mismatch")
	}
	if ClassIN.String() != "IN" || Class(7).String() != "CLASS7" {
		t.Error("Class.String mismatch")
	}
	if RCodeNXDomain.String() != "NXDOMAIN" || RCodeRefused.String() != "REFUSED" || RCode(77).String() != "RCODE77" {
		t.Error("RCode.String mismatch")
	}
}

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	wire, err := m.Encode(nil)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return got
}

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0x1234, "mask.icloud.com", TypeA)
	got := roundTrip(t, q)
	if got.Header.ID != 0x1234 || got.Header.Response || !got.Header.RecursionDesired {
		t.Fatalf("header mismatch: %+v", got.Header)
	}
	if len(got.Questions) != 1 {
		t.Fatalf("questions = %d, want 1", len(got.Questions))
	}
	if got.Questions[0].Name != "mask.icloud.com." || got.Questions[0].Type != TypeA {
		t.Fatalf("question = %v", got.Questions[0])
	}
}

func TestECSQueryRoundTrip(t *testing.T) {
	q := NewQuery(7, "mask.icloud.com", TypeA).WithECS(netip.MustParsePrefix("203.0.113.0/24"))
	got := roundTrip(t, q)
	if got.Edns == nil || got.Edns.ClientSubnet == nil {
		t.Fatal("ECS option lost in round trip")
	}
	cs := got.Edns.ClientSubnet
	if cs.SourcePrefixLen != 24 || cs.ScopePrefixLen != 0 {
		t.Fatalf("ECS lens = %d/%d", cs.SourcePrefixLen, cs.ScopePrefixLen)
	}
	if cs.Prefix().String() != "203.0.113.0/24" {
		t.Fatalf("ECS prefix = %v", cs.Prefix())
	}
}

func TestECSv6RoundTrip(t *testing.T) {
	q := NewQuery(9, "mask.icloud.com", TypeAAAA).WithECS(netip.MustParsePrefix("2001:db8:ab::/48"))
	got := roundTrip(t, q)
	cs := got.Edns.ClientSubnet
	if cs == nil || cs.Prefix().String() != "2001:db8:ab::/48" {
		t.Fatalf("v6 ECS round trip: %v", cs)
	}
}

func TestECSAddressTruncation(t *testing.T) {
	// A /20 source must emit ceil(20/8)=3 address octets with spare bits zeroed.
	cs := &ClientSubnet{SourcePrefixLen: 20, Addr: netip.MustParseAddr("203.0.113.0")}
	body, err := appendECS(nil, cs)
	if err != nil {
		t.Fatal(err)
	}
	// family(2) + lens(2) + 3 octets
	if len(body) != 7 {
		t.Fatalf("ECS body len = %d, want 7", len(body))
	}
	if body[6] != 0x70 { // 113 = 0x71 → /20 masks low 4 bits of third octet: 0x70
		t.Fatalf("third octet = %#x, want 0x70", body[6])
	}
}

func TestECSScopeZeroMeansGlobal(t *testing.T) {
	cs := &ClientSubnet{SourcePrefixLen: 24, ScopePrefixLen: 0, Addr: netip.MustParseAddr("198.51.100.0")}
	if cs.ScopePrefix().Bits() != 0 {
		t.Fatalf("scope prefix bits = %d, want 0", cs.ScopePrefix().Bits())
	}
	if cs.String() != "198.51.100.0/24/0" {
		t.Fatalf("String = %s", cs.String())
	}
}

// nsRData is the uncompressed wire form of ns1.aws-route53.example.
var nsRData = []byte("\x03ns1\x0baws-route53\x07example\x00")

func TestResponseWithAllSections(t *testing.T) {
	m := &Message{
		Header: Header{ID: 1, Response: true, Authoritative: true, RCode: RCodeNoError},
		Questions: []Question{
			{Name: "mask.icloud.com.", Type: TypeA, Class: ClassIN},
		},
		Answers: []Record{
			{Name: "mask.icloud.com.", Type: TypeA, Class: ClassIN, TTL: 60, Addr: netip.MustParseAddr("17.248.1.1")},
			{Name: "mask.icloud.com.", Type: TypeA, Class: ClassIN, TTL: 60, Addr: netip.MustParseAddr("23.32.5.9")},
		},
		Authorities: []Record{
			{Name: "icloud.com.", Type: TypeNS, Class: ClassIN, TTL: 300, Data: nsRData},
		},
		Additionals: []Record{
			{Name: "ns1.aws-route53.example.", Type: TypeA, Class: ClassIN, TTL: 300, Addr: netip.MustParseAddr("205.251.1.1")},
		},
		Edns: &EDNS{UDPSize: 4096, ClientSubnet: &ClientSubnet{
			SourcePrefixLen: 24, ScopePrefixLen: 24, Addr: netip.MustParseAddr("203.0.113.0"),
		}},
	}
	got := roundTrip(t, m)
	if len(got.Answers) != 2 || len(got.Authorities) != 1 || len(got.Additionals) != 1 {
		t.Fatalf("section sizes: %d/%d/%d", len(got.Answers), len(got.Authorities), len(got.Additionals))
	}
	if got.Answers[0].Addr.String() != "17.248.1.1" {
		t.Fatalf("answer A = %v", got.Answers[0].Addr)
	}
	if !bytes.Equal(got.Authorities[0].Data, nsRData) {
		t.Fatalf("authority NS rdata = %v", got.Authorities[0].Data)
	}
	if got.Additionals[0].Addr.String() != "205.251.1.1" {
		t.Fatalf("additional A = %v", got.Additionals[0].Addr)
	}
	if got.Edns == nil || got.Edns.UDPSize != 4096 || got.Edns.ClientSubnet.ScopePrefixLen != 24 {
		t.Fatalf("EDNS: %+v", got.Edns)
	}
}

func TestAAAARoundTrip(t *testing.T) {
	m := &Message{
		Header:    Header{ID: 2, Response: true},
		Questions: []Question{{Name: "mask.icloud.com.", Type: TypeAAAA, Class: ClassIN}},
		Answers: []Record{
			{Name: "mask.icloud.com.", Type: TypeAAAA, Class: ClassIN, TTL: 60, Addr: netip.MustParseAddr("2620:149:a44::1")},
		},
	}
	got := roundTrip(t, m)
	if got.Answers[0].Addr.String() != "2620:149:a44::1" {
		t.Fatalf("AAAA = %v", got.Answers[0].Addr)
	}
}

// rawRData is one record's type and its raw rdata.
type rawRData struct {
	typ  Type
	data []byte
}

// checkRawRoundTrip encodes one answer per rdata and requires each to
// decode with the same type, no address and the same rdata bytes.
func checkRawRoundTrip(t *testing.T, q Question, rdata []rawRData) {
	t.Helper()
	m := &Message{Header: Header{ID: 4, Response: true}, Questions: []Question{q}}
	for _, rd := range rdata {
		m.Answers = append(m.Answers, Record{Name: q.Name, Type: rd.typ, Class: ClassIN, TTL: 1, Data: rd.data})
	}
	got := roundTrip(t, m)
	if len(got.Answers) != len(rdata) {
		t.Fatalf("answers = %d, want %d", len(got.Answers), len(rdata))
	}
	for i, rd := range rdata {
		if r := got.Answers[i]; r.Type != rd.typ || r.Addr.IsValid() || !bytes.Equal(r.Data, rd.data) {
			t.Errorf("%v: got type %v addr %v data %v, want data %v", rd.typ, r.Type, r.Addr, r.Data, rd.data)
		}
	}
}

// TestTXTSOACNAMEPTRRoundTrip: TXT, CNAME, PTR and SOA records have no
// decoded form; their rdata round-trips byte for byte.
func TestTXTSOACNAMEPTRRoundTrip(t *testing.T) {
	soa := append(append([]byte(nil), nsRData...), "\x0ahostmaster\x07example\x00"...)
	soa = append(soa, 0x78, 0x83, 0x6c, 0x74, 0, 0, 0x1c, 0x20, 0, 0, 3, 0x84, 0, 0x12, 0x75, 0, 0, 1, 0x51, 0x80)
	checkRawRoundTrip(t, Question{Name: "example.com.", Type: TypeANY, Class: ClassIN}, []rawRData{
		{TypeTXT, []byte("\x05hello\x05world")},
		{TypeCNAME, []byte("\x07example\x03com\x00")},
		{TypePTR, []byte("\x09localhost\x00")},
		{TypeSOA, soa},
	})
}

// TestUnknownTypePreservesRawData: a type the codec does not know keeps
// its rdata raw, and the bytes that go in come back out.
func TestUnknownTypePreservesRawData(t *testing.T) {
	checkRawRoundTrip(t, Question{Name: "x.example.", Type: Type(99), Class: ClassIN}, []rawRData{
		{Type(99), []byte{1, 2, 3}},
		{Type(99), nil},
	})
}

func TestNameCompressionShrinksMessage(t *testing.T) {
	mk := func() *Message {
		m := &Message{Header: Header{ID: 5, Response: true},
			Questions: []Question{{Name: "mask.icloud.com.", Type: TypeA, Class: ClassIN}}}
		for i := 0; i < 8; i++ {
			m.Answers = append(m.Answers, Record{
				Name: "mask.icloud.com.", Type: TypeA, Class: ClassIN, TTL: 60,
				Addr: netip.AddrFrom4([4]byte{17, 248, 0, byte(i)}),
			})
		}
		return m
	}
	wire, err := mk().Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	// 8 answers, each owner name compressed to a 2-byte pointer instead of
	// 17 bytes: 12 + 21 + 8*(2+14) = 161 bytes, where the uncompressed
	// message would be 12 + 21 + 8*(17+14) = 281.
	if compressed := 12 + 21 + 8*(2+14); len(wire) != compressed {
		t.Fatalf("compressed response = %d bytes, want %d (uncompressed would be %d)", len(wire), compressed, 12+21+8*(17+14))
	}
	// And it must still decode correctly.
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != 8 || got.Answers[7].Name != "mask.icloud.com." {
		t.Fatalf("decode after compression: %+v", got.Answers)
	}
}

func TestDecodeCaseInsensitiveNames(t *testing.T) {
	m := NewQuery(6, "MASK.iCloud.Com", TypeA)
	got := roundTrip(t, m)
	if got.Questions[0].Name != "mask.icloud.com." {
		t.Fatalf("name = %q", got.Questions[0].Name)
	}
}

func TestEncodeRejectsBadRecords(t *testing.T) {
	one := func(r Record) *Message { return &Message{Header: Header{ID: 1}, Answers: []Record{r}} }
	many := &Message{Header: Header{ID: 1}, Answers: make([]Record, 0x10001)}
	for i := range many.Answers {
		many.Answers[i] = Record{Name: "x.", Type: TypeA, Class: ClassIN, Addr: netip.MustParseAddr("192.0.2.1")}
	}
	cases := []*Message{
		one(Record{Name: "x.", Type: TypeA, Class: ClassIN, Addr: netip.MustParseAddr("::1")}),                                      // A without v4 addr
		one(Record{Name: "x.", Type: TypeAAAA, Class: ClassIN, Addr: netip.MustParseAddr("127.0.0.1")}),                             // AAAA without v6 addr
		one(Record{Name: "x.", Type: TypeTXT, Class: ClassIN, Data: make([]byte, 0x10004)}),                                         // rdata over 65535 bytes
		one(Record{Name: strings.Repeat("a", 64) + ".example.", Type: TypeA, Class: ClassIN, Addr: netip.MustParseAddr("1.2.3.4")}), // label > 63
		many, // 65537 answers
	}
	for i, m := range cases {
		if _, err := m.Encode(nil); err == nil {
			t.Errorf("case %d: Encode succeeded, want error", i)
		}
	}
}

func TestEncodeRejectsOverlongName(t *testing.T) {
	long := strings.Repeat("abcdefgh.", 32) // 288 chars > 255
	m := NewQuery(1, long, TypeA)
	if _, err := m.Encode(nil); err == nil {
		t.Fatal("Encode of overlong name succeeded")
	}
}

func TestDecodeTruncatedInputs(t *testing.T) {
	q := NewQuery(10, "mask.icloud.com", TypeA).WithECS(netip.MustParsePrefix("198.51.100.0/24"))
	wire, err := q.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(wire); cut++ {
		if _, err := Decode(wire[:cut]); err == nil {
			t.Fatalf("Decode of %d/%d bytes succeeded", cut, len(wire))
		}
	}
}

func TestDecodePointerLoopRejected(t *testing.T) {
	// Hand-craft a message whose question name is a self-pointing pointer.
	msg := []byte{
		0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, // header, 1 question
		0xC0, 12, // pointer to itself
		0, 1, 0, 1,
	}
	if _, err := Decode(msg); err == nil {
		t.Fatal("self-pointer accepted")
	}
}

func TestDecodeForwardPointerRejected(t *testing.T) {
	msg := []byte{
		0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
		0xC0, 200, // forward pointer beyond current offset
		0, 1, 0, 1,
	}
	if _, err := Decode(msg); err == nil {
		t.Fatal("forward pointer accepted")
	}
}

func TestDecodeBadLabelTypeRejected(t *testing.T) {
	msg := []byte{
		0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
		0x80, 0, // reserved label type 10
		0, 1, 0, 1,
	}
	if _, err := Decode(msg); err == nil {
		t.Fatal("reserved label type accepted")
	}
}

func TestDecodeBadECSRejected(t *testing.T) {
	cases := [][]byte{
		{0, 1},                       // too short
		{0, 3, 24, 0, 1, 2, 3},       // unknown family
		{0, 1, 24, 0, 1, 2},          // wrong addr length for /24
		{0, 1, 40, 0, 1, 2, 3, 4, 5}, // source > 32 for v4
	}
	for i, body := range cases {
		var cs ClientSubnet
		if err := decodeECSInto(body, &cs); err == nil {
			t.Errorf("case %d: bad ECS accepted", i)
		}
	}
}

func TestExtendedRCodeMerging(t *testing.T) {
	m := &Message{
		Header: Header{ID: 11, Response: true, RCode: RCode(0x5)},
		Edns:   &EDNS{UDPSize: 1232, ExtendedRCode: 0x2},
	}
	got := roundTrip(t, m)
	if got.Header.RCode != RCode(0x25) {
		t.Fatalf("merged rcode = %#x, want 0x25", uint16(got.Header.RCode))
	}
}

func TestUnknownEDNSOptionPreserved(t *testing.T) {
	m := &Message{
		Header: Header{ID: 12},
		Edns:   &EDNS{UDPSize: 1232, UnknownOptions: []RawOption{{Code: 10, Data: []byte{9, 9}}}},
	}
	got := roundTrip(t, m)
	if len(got.Edns.UnknownOptions) != 1 || got.Edns.UnknownOptions[0].Code != 10 {
		t.Fatalf("unknown options = %+v", got.Edns.UnknownOptions)
	}
}

func TestRootNameRoundTrip(t *testing.T) {
	m := NewQuery(13, ".", TypeNS)
	got := roundTrip(t, m)
	if got.Questions[0].Name != "." {
		t.Fatalf("root name = %q", got.Questions[0].Name)
	}
}

// TestPooledAnswerStorage pins the message-owned answer storage: it rides
// the pool zeroed and capped, and DecodeInto fills it rather than a slice
// the caller had assigned to Answers. The released messages are inspected
// directly — the pool may hand them to nobody in between, this test being
// the package's only pool user while it runs.
func TestPooledAnswerStorage(t *testing.T) {
	rec := Record{Name: "mask.icloud.com.", Type: TypeA, Class: ClassIN, TTL: 60, Addr: netip.MustParseAddr("17.0.0.1")}

	m := AcquireMessage()
	for i := range m.GrowAnswers(8) {
		m.Answers[i] = rec
	}
	m.Edns = nil
	wire, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	ReleaseMessage(m)
	if m.Answers != nil || len(m.answerBuf) != 0 || cap(m.answerBuf) != 8 {
		t.Fatalf("released message: Answers=%v, storage len %d cap %d, want nil, 0, 8",
			m.Answers, len(m.answerBuf), cap(m.answerBuf))
	}
	for i, r := range m.answerBuf[:8] {
		if r.Name != "" || r.Addr.IsValid() {
			t.Fatalf("retained record %d not zeroed: %+v", i, r)
		}
	}

	big := AcquireMessage()
	big.GrowAnswers(maxPooledAnswers + 1)
	ReleaseMessage(big)
	if big.answerBuf != nil {
		t.Fatalf("released message kept %d records of storage, cap is %d", cap(big.answerBuf), maxPooledAnswers)
	}

	mine := []Record{{Name: "caller."}}
	d := &Message{Answers: mine, answerBuf: make([]Record, 0, 8)}
	storage := &d.answerBuf[:1][0]
	if err := DecodeInto(wire, d); err != nil {
		t.Fatal(err)
	}
	if mine[0].Name != "caller." {
		t.Fatal("DecodeInto wrote through the caller's Answers slice")
	}
	if len(d.Answers) != 8 || &d.Answers[0] != storage || d.Answers[7].Addr != rec.Addr {
		t.Fatalf("DecodeInto did not decode into the message's own storage: %d answers", len(d.Answers))
	}
}

// TestDropEDNSKeepsScratch pins that a response sent without an OPT
// record keeps its EDNS scratch for the message's next life: DropEDNS
// hides it from the response, and ReleaseMessage hands it on zeroed.
func TestDropEDNSKeepsScratch(t *testing.T) {
	m := AcquireMessage()
	m.SetECS(netip.MustParsePrefix("10.1.2.0/24"))
	edns, cs := m.Edns, m.Edns.ClientSubnet
	m.DropEDNS()
	if m.Edns != nil {
		t.Fatal("DropEDNS left Edns set")
	}
	ReleaseMessage(m)
	if m.Edns != edns || m.Edns.ClientSubnet != cs {
		t.Fatal("released message lost the EDNS scratch DropEDNS kept")
	}
	if m.Edns.UDPSize != 0 || m.Edns.UnknownOptions != nil || *cs != (ClientSubnet{}) {
		t.Fatalf("kept EDNS scratch not zeroed: %+v %+v", *m.Edns, *cs)
	}
}

// TestReleaseClearsWrittenAnswers pins that ReleaseMessage zeroes the
// records a use wrote and then cut off — by a shorter GrowAnswers, or a
// decode that failed partway — like the ones still in view, so no
// retained record keeps a name or rdata alive for the next owner. A
// release that clears only what is in view would fail it.
func TestReleaseClearsWrittenAnswers(t *testing.T) {
	rec := Record{Name: "mask.icloud.com.", Type: TypeA, Class: ClassIN, TTL: 60, Addr: netip.MustParseAddr("17.0.0.1")}
	full := &Message{Header: Header{ID: 7, Response: true}}
	for i := 0; i < 8; i++ {
		full.Answers = append(full.Answers, rec)
	}
	wire, err := full.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Cut inside the fourth answer: three records decode, the fourth
	// fails on its truncated rdata.
	cut := wire[:len(wire)-5*16+10]

	fill := func(m *Message, n int) {
		for i := range m.GrowAnswers(n) {
			m.answerBuf[i] = rec
		}
	}
	cases := []struct {
		name string
		use  func(t *testing.T, m *Message)
	}{
		{"grow 8 then 2", func(t *testing.T, m *Message) {
			fill(m, 8)
			fill(m, 2)
		}},
		{"failed decode", func(t *testing.T, m *Message) {
			if err := DecodeInto(cut, m); err == nil {
				t.Fatal("DecodeInto accepted a truncated answer section")
			}
			if len(m.answerBuf) != 3 {
				t.Fatalf("truncated decode kept %d answers, want 3", len(m.answerBuf))
			}
		}},
		{"grow 8 then failed decode", func(t *testing.T, m *Message) {
			fill(m, 8)
			if err := DecodeInto(cut, m); err == nil {
				t.Fatal("DecodeInto accepted a truncated answer section")
			}
		}},
		{"decode 8 then grow 2", func(t *testing.T, m *Message) {
			if err := DecodeInto(wire, m); err != nil {
				t.Fatal(err)
			}
			fill(m, 2)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := AcquireMessage()
			c.use(t, m)
			ReleaseMessage(m)
			if cap(m.answerBuf) == 0 || cap(m.answerBuf) > maxPooledAnswers {
				t.Fatalf("released message kept %d records of storage", cap(m.answerBuf))
			}
			for i, r := range m.answerBuf[:cap(m.answerBuf)] {
				if r.Name != "" || r.Data != nil || r.Addr.IsValid() || r.TTL != 0 || r.Type != 0 {
					t.Fatalf("retained record %d not zeroed: %+v", i, r)
				}
			}
		})
	}
}

// TestMessagePoolStatsExact pins that striping the acquire counter
// loses no count: goroutines acquiring and releasing at once add
// exactly one acquire each. The test first holds enough messages at
// once that the pool must allocate a run of them, which deals every
// stripe, and then the goroutines share those.
func TestMessagePoolStatsExact(t *testing.T) {
	const goroutines, rounds, inFlight = 8, 1000, 4
	before, _ := MessagePoolStats()
	held := make([]*Message, 4*acquireStripes)
	for i := range held {
		held[i] = AcquireMessage()
	}
	for _, m := range held {
		ReleaseMessage(m)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held [inFlight]*Message
			for i := 0; i < rounds; i++ {
				for j := range held {
					held[j] = AcquireMessage()
				}
				for _, m := range held {
					ReleaseMessage(m)
				}
			}
		}()
	}
	wg.Wait()
	after, _ := MessagePoolStats()
	if got, want := after-before, int64(len(held)+goroutines*rounds*inFlight); got != want {
		t.Fatalf("MessagePoolStats counted %d acquires, want %d", got, want)
	}
}

// Property: any query built from valid inputs round-trips unchanged.
func TestPropertyQueryRoundTrip(t *testing.T) {
	f := func(id uint16, l1, l2 uint8, v4 [4]byte, bits uint8) bool {
		name := label(l1) + "." + label(l2) + ".example.com"
		pfx := netip.PrefixFrom(netip.AddrFrom4(v4), int(bits%25)+8).Masked()
		q := NewQuery(id, name, TypeA).WithECS(pfx)
		wire, err := q.Encode(nil)
		if err != nil {
			return false
		}
		got, err := Decode(wire)
		if err != nil {
			return false
		}
		return got.Header.ID == id &&
			got.Questions[0].Name == CanonicalName(name) &&
			got.Edns.ClientSubnet.Prefix() == pfx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// label derives a short lowercase DNS label from a byte.
func label(b uint8) string {
	const alpha = "abcdefghijklmnopqrstuvwxyz"
	n := int(b%7) + 1
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alpha[(int(b)+i)%26])
	}
	return sb.String()
}

// Property: Decode never panics on arbitrary input (fuzz-like smoke check).
func TestPropertyDecodeNoPanic(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Decode panicked on %x: %v", data, r)
			}
		}()
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeECSQuery(b *testing.B) {
	pfx := netip.MustParsePrefix("203.0.113.0/24")
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := NewQuery(uint16(i), "mask.icloud.com", TypeA).WithECS(pfx)
		var err error
		buf, err = q.Encode(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeResponse(b *testing.B) {
	m := &Message{
		Header:    Header{ID: 1, Response: true},
		Questions: []Question{{Name: "mask.icloud.com.", Type: TypeA, Class: ClassIN}},
		Edns:      &EDNS{UDPSize: 1232, ClientSubnet: &ClientSubnet{SourcePrefixLen: 24, ScopePrefixLen: 24, Addr: netip.MustParseAddr("203.0.113.0")}},
	}
	for i := 0; i < 8; i++ {
		m.Answers = append(m.Answers, Record{Name: "mask.icloud.com.", Type: TypeA, Class: ClassIN, TTL: 60, Addr: netip.AddrFrom4([4]byte{17, 248, 0, byte(i)})})
	}
	wire, err := m.Encode(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncoderReuse is BenchmarkEncodeECSQuery on the steady-state
// path: one reusable message re-stamped per iteration (SetECS + ID) and
// one Encoder whose compression map is cleared, not reallocated. This is
// how scan workers and UDP server workers actually encode.
func BenchmarkEncoderReuse(b *testing.B) {
	pfx := netip.MustParsePrefix("203.0.113.0/24")
	q := NewQuery(0, "mask.icloud.com", TypeA).WithECS(pfx)
	var enc Encoder
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Header.ID = uint16(i)
		q.SetECS(pfx)
		var err error
		buf, err = enc.Encode(q, buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeInto is BenchmarkDecodeResponse without the per-op
// message: the decode target and its section slices are reused, the way
// UDP server workers and pooled client responses decode.
func BenchmarkDecodeInto(b *testing.B) {
	m := &Message{
		Header:    Header{ID: 1, Response: true},
		Questions: []Question{{Name: "mask.icloud.com.", Type: TypeA, Class: ClassIN}},
		Edns:      &EDNS{UDPSize: 1232, ClientSubnet: &ClientSubnet{SourcePrefixLen: 24, ScopePrefixLen: 24, Addr: netip.MustParseAddr("203.0.113.0")}},
	}
	for i := 0; i < 8; i++ {
		m.Answers = append(m.Answers, Record{Name: "mask.icloud.com.", Type: TypeA, Class: ClassIN, TTL: 60, Addr: netip.AddrFrom4([4]byte{17, 248, 0, byte(i)})})
	}
	wire, err := m.Encode(nil)
	if err != nil {
		b.Fatal(err)
	}
	var out Message
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeInto(wire, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRecordSize pins the one record shape: an owner name, the fixed
// fields, one address and one raw-rdata slice. Every answer the scan
// builds and reads copies a whole Record, so a field that creeps back in
// shows up here first.
func TestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got > 80 {
		t.Fatalf("unsafe.Sizeof(Record{}) = %d bytes, want <= 80", got)
	}
}
