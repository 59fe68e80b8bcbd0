package masque

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Frame{Type: FrameData, StreamID: 42, Payload: []byte("hello")}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.StreamID != in.StreamID || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip: %+v", out)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, &Frame{Type: FrameClose, StreamID: 3})
	out, err := ReadFrame(&buf)
	if err != nil || out.Type != FrameClose || out.StreamID != 3 || len(out.Payload) != 0 {
		t.Fatalf("%v %+v", err, out)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{Type: FrameData, Payload: make([]byte, maxFramePayload+1)}); err != ErrFrameTooLarge {
		t.Fatalf("oversize write err = %v", err)
	}
	// Forged oversize header on the read side.
	hdr := []byte{byte(FrameData), 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(hdr)); err != ErrFrameTooLarge {
		t.Fatalf("oversize read err = %v", err)
	}
}

func TestFrameTruncatedRead(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, &Frame{Type: FrameData, StreamID: 1, Payload: []byte("abcdef")})
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		if _, err := ReadFrame(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncated frame at %d accepted", cut)
		}
	}
}

func TestFrameTypeStrings(t *testing.T) {
	if FrameAuth.String() != "AUTH" || FrameConnectOK.String() != "CONNECT_OK" || FrameType(99).String() != "FRAME99" {
		t.Fatal("frame type strings")
	}
}

func TestSealUnseal(t *testing.T) {
	plain := []byte("target.example:443\n9q8yy")
	sealed := Seal("egress@10.0.0.1:443", plain)
	got, err := Unseal("egress@10.0.0.1:443", sealed)
	if err != nil || !bytes.Equal(got, plain) {
		t.Fatalf("unseal: %v %q", err, got)
	}
}

func TestSealWrongIdentityFails(t *testing.T) {
	sealed := Seal("egress@a:1", []byte("secret"))
	if _, err := Unseal("egress@b:1", sealed); !errors.Is(err, ErrBadSeal) {
		t.Fatalf("cross-identity unseal: %v", err)
	}
}

func TestSealTamperDetected(t *testing.T) {
	sealed := Seal("egress@a:1", []byte("secret"))
	sealed[len(sealed)-1] ^= 1
	if _, err := Unseal("egress@a:1", sealed); !errors.Is(err, ErrBadSeal) {
		t.Fatalf("tampered unseal: %v", err)
	}
	if _, err := Unseal("egress@a:1", []byte("short")); !errors.Is(err, ErrBadSeal) {
		t.Fatal("short input accepted")
	}
}

func TestSealHidesPlaintext(t *testing.T) {
	plain := []byte("very-visible-target.example:443")
	sealed := Seal("egress@a:1", plain)
	if bytes.Contains(sealed, []byte("visible-target")) {
		t.Fatal("plaintext leaks through seal")
	}
}

// Property: seal/unseal round-trips arbitrary payloads.
func TestPropertySealRoundTrip(t *testing.T) {
	f := func(id string, data []byte) bool {
		got, err := Unseal(id, Seal(id, data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTokenIssueValidate(t *testing.T) {
	ti := NewTokenIssuer("secret", 3)
	tok, err := ti.Issue("alice", "2022-05-11")
	if err != nil {
		t.Fatal(err)
	}
	if err := ti.Validate(tok); err != nil {
		t.Fatalf("fresh token invalid: %v", err)
	}
	// Wrong issuer secret rejects.
	other := NewTokenIssuer("other", 3)
	if err := other.Validate(tok); err == nil {
		t.Fatal("cross-issuer token accepted")
	}
	// Garbage rejects.
	for _, bad := range []string{"", "x", "a.b", tok + "x"} {
		if err := ti.Validate(bad); err == nil {
			t.Fatalf("garbage token %q accepted", bad)
		}
	}
}

func TestTokenDailyQuota(t *testing.T) {
	ti := NewTokenIssuer("s", 2)
	day := "2022-05-11"
	if _, err := ti.Issue("bob", day); err != nil {
		t.Fatal(err)
	}
	if ti.Remaining("bob", day) != 1 {
		t.Fatalf("remaining = %d", ti.Remaining("bob", day))
	}
	if _, err := ti.Issue("bob", day); err != nil {
		t.Fatal(err)
	}
	if _, err := ti.Issue("bob", day); !errors.Is(err, ErrTokenQuota) {
		t.Fatalf("quota not enforced: %v", err)
	}
	// New day resets; other accounts unaffected.
	if _, err := ti.Issue("bob", "2022-05-12"); err != nil {
		t.Fatal(err)
	}
	if _, err := ti.Issue("carol", day); err != nil {
		t.Fatal(err)
	}
}

func TestRotationPolicies(t *testing.T) {
	pool := []netip.Addr{
		netip.MustParseAddr("172.224.224.1"),
		netip.MustParseAddr("172.224.224.2"),
		netip.MustParseAddr("172.224.225.1"),
		netip.MustParseAddr("104.16.0.1"),
		netip.MustParseAddr("104.16.0.2"),
		netip.MustParseAddr("104.16.1.1"),
	}
	rot := &PerConnectionRotation{Pool: pool, Seed: 11}
	changes, total := 0, 2000
	prev := rot.Next(0)
	seen := map[netip.Addr]bool{prev: true}
	for i := 1; i < total; i++ {
		a := rot.Next(uint64(i))
		seen[a] = true
		if a != prev {
			changes++
		}
		prev = a
	}
	rate := float64(changes) / float64(total-1)
	if rate <= 0.66 {
		t.Fatalf("change rate %.2f ≤ 0.66; paper observed >66%%", rate)
	}
	if len(seen) != len(pool) {
		t.Fatalf("rotation used %d/%d pool members", len(seen), len(pool))
	}
	// Deterministic per n.
	if rot.Next(5) != rot.Next(5) {
		t.Fatal("rotation not deterministic")
	}
	sticky := &StickyRotation{Addr: pool[0]}
	for i := 0; i < 10; i++ {
		if sticky.Next(uint64(i)) != pool[0] {
			t.Fatal("sticky rotation moved")
		}
	}
	empty := &PerConnectionRotation{}
	if empty.Next(0).IsValid() {
		t.Fatal("empty pool should yield invalid addr")
	}
}

func TestSourcePreambleRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	src := netip.MustParseAddr("172.224.224.17")
	if err := WriteSourcePreamble(&buf, src); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSourcePreamble(bufio.NewReader(&buf))
	if err != nil || got != src {
		t.Fatalf("preamble: %v %v", got, err)
	}
	if _, err := ReadSourcePreamble(bufio.NewReader(strings.NewReader("GET / HTTP/1.1\n"))); err == nil {
		t.Fatal("non-preamble accepted")
	}
}

// echoServer is a minimal preamble-aware target: it reads the simulated
// source and echoes "src=<addr> " followed by everything it receives.
func echoServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(c net.Conn) {
				defer wg.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				src, err := ReadSourcePreamble(br)
				if err != nil {
					return
				}
				fmt.Fprintf(c, "src=%s ", src)
				io.Copy(c, br)
			}(c)
		}
	}()
	return ln.Addr().String(), func() { ln.Close(); wg.Wait() }
}

// relaySetup builds a full client→ingress→egress→target chain on
// loopback and returns the ready client plus the rotation pool.
func relaySetup(t *testing.T, rotation RotationPolicy) (*Client, *Ingress, func()) {
	t.Helper()
	egLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	eg := &Egress{ID: EgressIDForAddr(egLn.Addr().String()), Rotation: rotation}
	go eg.Serve(egLn)

	inLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ti := NewTokenIssuer("test-secret", 10)
	ing := &Ingress{Validator: ti}
	go ing.Serve(inLn)

	tok, err := ti.Issue("tester", "2022-05-11")
	if err != nil {
		t.Fatal(err)
	}
	cl := &Client{
		IngressAddr: inLn.Addr().String(),
		EgressAddr:  egLn.Addr().String(),
		Token:       tok,
		Geohash:     "u281z",
	}
	if err := cl.Dial(); err != nil {
		t.Fatal(err)
	}
	return cl, ing, func() {
		cl.Close()
		ing.Close()
		eg.Close()
	}
}

func TestEndToEndTunnel(t *testing.T) {
	target, stopTarget := echoServer(t)
	defer stopTarget()
	pool := []netip.Addr{netip.MustParseAddr("172.224.224.1"), netip.MustParseAddr("104.16.0.1")}
	cl, ing, stop := relaySetup(t, &PerConnectionRotation{Pool: pool, Seed: 3})
	defer stop()

	s, egAddr, err := cl.Open(target)
	if err != nil {
		t.Fatal(err)
	}
	if !egAddr.IsValid() {
		t.Fatal("no egress address reported")
	}
	if _, err := s.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := s.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	got := string(buf[:n])
	want := "src=" + egAddr.String() + " "
	for !strings.Contains(got, "ping") {
		n, err = s.Read(buf)
		if err != nil {
			t.Fatalf("read: %v (got %q)", err, got)
		}
		got += string(buf[:n])
	}
	if !strings.HasPrefix(got, want) {
		t.Fatalf("target saw %q, want prefix %q", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Ingress saw the client and the egress — but never the target.
	recs := ing.Records()
	if len(recs) != 1 {
		t.Fatalf("ingress records = %d", len(recs))
	}
	if recs[0].EgressAddr != cl.EgressAddr {
		t.Fatalf("ingress egress addr = %s", recs[0].EgressAddr)
	}
	if strings.Contains(recs[0].String(), target) {
		t.Fatal("ingress record leaks target")
	}
}

func TestEgressRotatesPerConnection(t *testing.T) {
	target, stopTarget := echoServer(t)
	defer stopTarget()
	pool := []netip.Addr{
		netip.MustParseAddr("172.224.224.1"), netip.MustParseAddr("172.224.224.2"),
		netip.MustParseAddr("172.224.225.1"), netip.MustParseAddr("104.16.0.1"),
		netip.MustParseAddr("104.16.0.2"), netip.MustParseAddr("104.16.1.1"),
	}
	cl, _, stop := relaySetup(t, &PerConnectionRotation{Pool: pool, Seed: 9})
	defer stop()

	seen := map[netip.Addr]bool{}
	changes := 0
	var prev netip.Addr
	const attempts = 60
	for i := 0; i < attempts; i++ {
		s, addr, err := cl.Open(target)
		if err != nil {
			t.Fatal(err)
		}
		seen[addr] = true
		if i > 0 && addr != prev {
			changes++
		}
		prev = addr
		s.Close()
	}
	if len(seen) < 4 {
		t.Fatalf("rotation exercised only %d addresses", len(seen))
	}
	if rate := float64(changes) / float64(attempts-1); rate <= 0.5 {
		t.Fatalf("per-connection change rate %.2f too low", rate)
	}
}

func TestParallelStreamsGetIndependentEgress(t *testing.T) {
	target, stopTarget := echoServer(t)
	defer stopTarget()
	pool := []netip.Addr{
		netip.MustParseAddr("172.224.224.1"), netip.MustParseAddr("172.224.224.2"),
		netip.MustParseAddr("104.16.0.1"), netip.MustParseAddr("104.16.0.2"),
	}
	cl, _, stop := relaySetup(t, &PerConnectionRotation{Pool: pool, Seed: 1})
	defer stop()

	// The paper observed different egress addresses for parallel curl and
	// Safari requests: open many parallel streams and require ≥2 addrs.
	addrs := make(chan netip.Addr, 16)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, a, err := cl.Open(target)
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			addrs <- a
		}()
	}
	wg.Wait()
	close(addrs)
	distinct := map[netip.Addr]bool{}
	for a := range addrs {
		distinct[a] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("parallel streams shared one egress address (%d distinct)", len(distinct))
	}
}

func TestIngressRejectsBadToken(t *testing.T) {
	egLn, _ := net.Listen("tcp", "127.0.0.1:0")
	eg := &Egress{ID: EgressIDForAddr(egLn.Addr().String())}
	go eg.Serve(egLn)
	defer eg.Close()

	inLn, _ := net.Listen("tcp", "127.0.0.1:0")
	ing := &Ingress{Validator: NewTokenIssuer("real-secret", 5)}
	go ing.Serve(inLn)
	defer ing.Close()

	cl := &Client{IngressAddr: inLn.Addr().String(), EgressAddr: egLn.Addr().String(), Token: "forged.token"}
	err := cl.Dial()
	if !errors.Is(err, ErrAuthRejected) {
		t.Fatalf("Dial with forged token: %v", err)
	}
}

func TestIngressAllowedEgressEnforced(t *testing.T) {
	inLn, _ := net.Listen("tcp", "127.0.0.1:0")
	ing := &Ingress{AllowedEgress: map[string]bool{"10.9.9.9:1": true}}
	go ing.Serve(inLn)
	defer ing.Close()

	cl := &Client{IngressAddr: inLn.Addr().String(), EgressAddr: "10.8.8.8:1", Token: "t"}
	if err := cl.Dial(); !errors.Is(err, ErrAuthRejected) {
		t.Fatalf("disallowed egress: %v", err)
	}
}

func TestConnectToUnreachableTarget(t *testing.T) {
	cl, _, stop := relaySetup(t, &StickyRotation{Addr: netip.MustParseAddr("172.224.224.1")})
	defer stop()
	_, _, err := cl.Open("127.0.0.1:1") // nothing listens on port 1
	if !errors.Is(err, ErrConnectFailed) {
		t.Fatalf("unreachable target: %v", err)
	}
}

func TestOpenAfterClose(t *testing.T) {
	cl, _, stop := relaySetup(t, &StickyRotation{Addr: netip.MustParseAddr("172.224.224.1")})
	stop()
	if _, _, err := cl.Open("127.0.0.1:80"); err == nil {
		t.Fatal("Open on closed tunnel succeeded")
	}
}

func TestLargeTransfer(t *testing.T) {
	target, stopTarget := echoServer(t)
	defer stopTarget()
	cl, _, stop := relaySetup(t, &StickyRotation{Addr: netip.MustParseAddr("172.224.224.1")})
	defer stop()

	s, _, err := cl.Open(target)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	payload := bytes.Repeat([]byte("0123456789abcdef"), 8192) // 128 KiB
	go func() {
		s.Write(payload)
	}()
	// Skip the "src=..." prefix, then verify the echoed payload.
	br := bufio.NewReader(s)
	if _, err := br.ReadString(' '); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(br, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("large transfer corrupted")
	}
}
