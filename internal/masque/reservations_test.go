package masque

import (
	"errors"
	"net"
	"net/netip"
	"testing"
	"time"

	"github.com/relay-networks/privaterelay/internal/vclock"
)

// Wire-level reservation coverage: the ingress must answer AUTH with
// RESERVE_OK (announcing the granted limits) or a typed REJECT, and
// the client must surface both faithfully.

// reservationSetup builds a loopback ingress/egress pair with the
// given admission registry (nil: the ingress's own unlimited one) and
// returns the issued token plus addresses.
func reservationSetup(t *testing.T, rs *Reservations) (ing *Ingress, ingAddr, egAddr, tok string, stop func()) {
	t.Helper()
	egLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	eg := &Egress{ID: EgressIDForAddr(egLn.Addr().String()), Rotation: &PerConnectionRotation{
		Pool: []netip.Addr{netip.MustParseAddr("172.224.224.1")}, Seed: 1,
	}}
	go eg.Serve(egLn)

	inLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ti := NewTokenIssuer("test-secret", 10)
	ing = &Ingress{Validator: ti, Reservations: rs}
	go ing.Serve(inLn)

	tok, err = ti.Issue("reserved-tester", "2022-05-11")
	if err != nil {
		t.Fatal(err)
	}
	return ing, inLn.Addr().String(), egLn.Addr().String(), tok, func() {
		ing.Close()
		eg.Close()
	}
}

func reservationClient(ingAddr, egAddr, tok string) *Client {
	return &Client{IngressAddr: ingAddr, EgressAddr: egAddr, Token: tok, Geohash: "u281z"}
}

func TestReservationHandshakeAnnouncesLimits(t *testing.T) {
	limits := Limits{Duration: time.Hour, DataCap: 1 << 20, BandwidthBps: 1 << 20, MaxSessions: 1}
	rs := NewReservations(limits, vclock.NewVirtualClock())
	_, ingAddr, egAddr, tok, stop := reservationSetup(t, rs)
	defer stop()

	cl := reservationClient(ingAddr, egAddr, tok)
	if err := cl.Dial(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	info := cl.Reservation()
	if info.DataCap != limits.DataCap || info.BandwidthBps != limits.BandwidthBps || info.MaxSessions != limits.MaxSessions {
		t.Fatalf("announced limits %+v do not match policy %+v", info, limits)
	}
	if info.ExpiryUnixNano == 0 {
		t.Fatal("duration-limited reservation announced no expiry")
	}
}

// TestUnlimitedIngressGrantsReservation: an ingress built without a
// registry still admits through RESERVE_OK, announcing no limits.
func TestUnlimitedIngressGrantsReservation(t *testing.T) {
	_, ingAddr, egAddr, tok, stop := reservationSetup(t, nil)
	defer stop()

	cl := reservationClient(ingAddr, egAddr, tok)
	if err := cl.Dial(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if info := cl.Reservation(); info != (ReservationInfo{}) {
		t.Fatalf("unlimited ingress announced %+v, want all-zero limits", info)
	}
}

func TestReservationSessionLimitOverWire(t *testing.T) {
	rs := NewReservations(Limits{MaxSessions: 1}, vclock.NewVirtualClock())
	ing, ingAddr, egAddr, tok, stop := reservationSetup(t, rs)
	defer stop()

	first := reservationClient(ingAddr, egAddr, tok)
	if err := first.Dial(); err != nil {
		t.Fatal(err)
	}
	defer first.Close()

	// Same account, second concurrent tunnel: typed denial that still
	// satisfies the legacy ErrAuthRejected check.
	second := reservationClient(ingAddr, egAddr, tok)
	err := second.Dial()
	var rej *RejectionError
	if !errors.As(err, &rej) || rej.Code != RejectSessionLimit {
		t.Fatalf("second tunnel err = %v, want RejectionError{RESOURCE_LIMIT_EXCEEDED}", err)
	}
	if !errors.Is(err, ErrAuthRejected) {
		t.Fatal("typed rejection does not unwrap to ErrAuthRejected")
	}
	if n := ing.RejectCounts()[RejectSessionLimit]; n != 1 {
		t.Fatalf("ingress counted %d session-limit rejections, want 1", n)
	}

	// Closing the first tunnel frees the slot for a fresh admission.
	first.Close()
	deadline := time.Now().Add(5 * time.Second) //lint:allow determinism — test-only wait for the ingress to settle the closed tunnel
	for {
		third := reservationClient(ingAddr, egAddr, tok)
		if err := third.Dial(); err == nil {
			third.Close()
			break
		}
		if time.Now().After(deadline) { //lint:allow determinism — test-only deadline
			t.Fatal("session slot never freed after tunnel close")
		}
		time.Sleep(10 * time.Millisecond) //lint:allow determinism — test-only backoff
	}
}

func TestReservationDrainOverWire(t *testing.T) {
	rs := NewReservations(Limits{}, vclock.NewVirtualClock())
	_, ingAddr, egAddr, tok, stop := reservationSetup(t, rs)
	defer stop()

	rs.Drain()
	cl := reservationClient(ingAddr, egAddr, tok)
	err := cl.Dial()
	var rej *RejectionError
	if !errors.As(err, &rej) || rej.Code != RejectDraining {
		t.Fatalf("Dial during drain err = %v, want RejectionError{RELAY_DRAINING}", err)
	}

	rs.Resume()
	cl = reservationClient(ingAddr, egAddr, tok)
	if err := cl.Dial(); err != nil {
		t.Fatalf("Dial after resume: %v", err)
	}
	cl.Close()
}
