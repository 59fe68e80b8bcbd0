package quicsim

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestLongHeaderRoundTrip(t *testing.T) {
	h := &LongHeader{
		FirstByte: 0x40,
		Version:   VersionV1,
		DCID:      []byte{1, 2, 3, 4, 5, 6, 7, 8},
		SCID:      []byte{9, 10},
		Payload:   []byte("payload"),
	}
	wire, err := AppendLongHeader(nil, h)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseLongHeader(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != VersionV1 || !bytes.Equal(got.DCID, h.DCID) || !bytes.Equal(got.SCID, h.SCID) || !bytes.Equal(got.Payload, h.Payload) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if !got.IsInitial() {
		t.Fatal("type-0 packet not detected as Initial")
	}
}

func TestParseRejectsShortHeader(t *testing.T) {
	pkt := make([]byte, 32)
	pkt[0] = 0x40 // long-header bit clear
	if _, err := ParseLongHeader(pkt); err != ErrNotLongHeader {
		t.Fatalf("err = %v", err)
	}
}

func TestParseRejectsTruncated(t *testing.T) {
	h := &LongHeader{FirstByte: 0x40, Version: VersionV1, DCID: make([]byte, 20), SCID: make([]byte, 8)}
	wire, _ := AppendLongHeader(nil, h)
	for cut := 1; cut < len(wire); cut++ {
		if _, err := ParseLongHeader(wire[:cut]); err == nil {
			// Cuts landing exactly after the SCID with empty payload are
			// legal packets; only cuts inside mandatory fields must fail.
			if cut < 7+len(h.DCID)+1+len(h.SCID) {
				t.Fatalf("truncated at %d accepted", cut)
			}
		}
	}
}

func TestBuildInitialPadsTo1200(t *testing.T) {
	pkt, err := BuildInitial(VersionV1, []byte{1}, []byte{2}, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt) < 1200 {
		t.Fatalf("initial size %d < 1200", len(pkt))
	}
}

func TestOversizeCIDRejected(t *testing.T) {
	if _, err := AppendLongHeader(nil, &LongHeader{DCID: make([]byte, 256)}); err == nil {
		t.Fatal("256-byte DCID accepted")
	}
}

func TestVersionNegotiationRoundTrip(t *testing.T) {
	dcid := []byte{1, 2, 3, 4}
	scid := []byte{5, 6}
	vn, err := BuildVersionNegotiation(dcid, scid, SupportedVersions)
	if err != nil {
		t.Fatal(err)
	}
	versions, err := ParseVersionNegotiation(vn, dcid, scid)
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 4 || versions[0] != VersionV1 || versions[1] != VersionDraft29 ||
		versions[2] != VersionDraft28 || versions[3] != VersionDraft27 {
		t.Fatalf("versions = %#x", versions)
	}
}

func TestVNEchoValidation(t *testing.T) {
	vn, _ := BuildVersionNegotiation([]byte{1}, []byte{2}, SupportedVersions)
	if _, err := ParseVersionNegotiation(vn, []byte{9}, []byte{2}); err == nil {
		t.Fatal("CID mismatch accepted")
	}
}

func TestVNRejectsNonVN(t *testing.T) {
	pkt, _ := BuildInitial(VersionV1, []byte{1}, []byte{2}, nil)
	if _, err := ParseVersionNegotiation(pkt, []byte{1}, []byte{2}); err != ErrNotVN {
		t.Fatalf("err = %v", err)
	}
}

// The §3 behaviour matrix.

func TestIngressVersionProbeGetsVN(t *testing.T) {
	ep := &IngressEndpoint{}
	res, err := VersionProbe(ep)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Responded {
		t.Fatal("ZMap-style probe got no VN")
	}
	want := map[uint32]bool{VersionV1: true, VersionDraft29: true, VersionDraft28: true, VersionDraft27: true}
	if len(res.Versions) != len(want) {
		t.Fatalf("advertised %d versions", len(res.Versions))
	}
	for _, v := range res.Versions {
		if !want[v] {
			t.Fatalf("unexpected version %#x", v)
		}
	}
}

func TestIngressStandardHandshakeTimesOut(t *testing.T) {
	ep := &IngressEndpoint{}
	res, err := StandardHandshakeProbe(ep)
	if err != nil {
		t.Fatal(err)
	}
	if res.Responded {
		t.Fatal("standard QUIC handshake got a response; paper observed silence")
	}
}

func TestIngressRelayHandshakeAccepted(t *testing.T) {
	ep := &IngressEndpoint{}
	res, err := RelayHandshakeProbe(ep)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Responded || !res.HandshakeOK {
		t.Fatalf("relay handshake rejected: %+v", res)
	}
}

func TestIngressSilentOnGarbage(t *testing.T) {
	ep := &IngressEndpoint{}
	if resp := ep.HandleDatagram([]byte{0x00, 0x01, 0x02}); resp != nil {
		t.Fatal("garbage got a response")
	}
	if resp := ep.HandleDatagram(nil); resp != nil {
		t.Fatal("empty datagram got a response")
	}
	// Short-header packet (e.g. stray 1-RTT) is ignored.
	short := make([]byte, 50)
	short[0] = 0x40
	if resp := ep.HandleDatagram(short); resp != nil {
		t.Fatal("short header got a response")
	}
}

func TestIngressNonInitialLongHeaderIgnored(t *testing.T) {
	// Handshake-type (0x20) long header in a supported version: silence.
	h := &LongHeader{FirstByte: 0x60, Version: VersionV1, DCID: []byte{1}, SCID: []byte{2}}
	wire, _ := AppendLongHeader(nil, h)
	ep := &IngressEndpoint{}
	if resp := ep.HandleDatagram(wire); resp != nil {
		t.Fatal("non-Initial got a response")
	}
}

// Property: parser never panics and always round-trips valid headers.
func TestPropertyLongHeaderRoundTrip(t *testing.T) {
	f := func(fb byte, version uint32, dcid, scid, payload []byte) bool {
		if len(dcid) > 255 || len(scid) > 255 {
			return true
		}
		h := &LongHeader{FirstByte: fb &^ 0x80, Version: version, DCID: dcid, SCID: scid, Payload: payload}
		wire, err := AppendLongHeader(nil, h)
		if err != nil {
			return false
		}
		got, err := ParseLongHeader(wire)
		if err != nil {
			return false
		}
		return got.Version == version && bytes.Equal(got.DCID, dcid) && bytes.Equal(got.SCID, scid) && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyParseNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on %x: %v", data, r)
			}
		}()
		_, _ = ParseLongHeader(data)
		ep := &IngressEndpoint{}
		_ = ep.HandleDatagram(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUDPEndpointProbes(t *testing.T) {
	ep, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	addr := ep.Addr().String()

	// ZMap-style version probe over the socket.
	dcid := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	scid := []byte{9, 10, 11, 12}
	probe, err := BuildInitial(VersionForceNegotiation, dcid, scid, []byte("zmap"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ProbeUDP(addr, probe, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp == nil {
		t.Fatal("no VN over UDP")
	}
	versions, err := ParseVersionNegotiation(resp, dcid, scid)
	if err != nil || len(versions) != 4 {
		t.Fatalf("VN parse: %v %v", versions, err)
	}

	// Standard handshake over the socket: silence.
	std, err := BuildInitial(VersionV1, dcid, scid, []byte("tls-ch"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = ProbeUDP(addr, std, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if resp != nil {
		t.Fatalf("standard handshake answered over UDP: %x", resp)
	}
}

// FuzzParseLongHeader hardens the long-header parser the ingress runs
// on every datagram: no input panics, every rejection is ErrTruncated
// or ErrNotLongHeader, and anything accepted re-encodes to exactly its
// own bytes through AppendLongHeader.
func FuzzParseLongHeader(f *testing.F) {
	dcid, scid := []byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{9, 10, 11, 12}
	initial, err := BuildInitial(VersionV1, dcid, scid, relayTokenMagic)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(initial[:64]) // the padding adds nothing to mutate
	vn, err := BuildVersionNegotiation(dcid, scid, SupportedVersions)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(vn)
	f.Add([]byte{0x80, 0, 0, 0, 1, 0, 0}) // the shortest packet accepted
	f.Add([]byte{0x40, 0, 0, 0, 1, 0, 0}) // long-header bit clear
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ParseLongHeader(data)
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrNotLongHeader) {
				t.Fatalf("rejection is not ErrTruncated or ErrNotLongHeader: %v", err)
			}
			return
		}
		re, err := AppendLongHeader(nil, h)
		if err != nil {
			t.Fatalf("accepted header does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("long header round trip not stable: %x -> %x", data, re)
		}
	})
}
