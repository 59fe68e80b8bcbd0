package masque

import (
	"net"
	"net/netip"
	"strings"
	"sync"
	"time"
)

// MASQUE UDP proxying (RFC 9298). At the time of the paper, iCloud
// Private Relay proxied TCP-ish streams only — "currently, proxying UDP
// traffic is not supported by MASQUE, but the MASQUE working group is
// working on a new draft" (§2). This file implements that draft's
// connect-udp semantics as the toolkit's forward-looking extension:
//
//   - FrameConnectUDP (sealed like FrameConnect) asks the egress to bind
//     a UDP association to the target.
//   - FrameDatagram carries one unreliable datagram per frame, preserving
//     message boundaries end to end (the HTTP Datagram analogue).
//
// Egress address rotation applies per association, exactly as for
// streams, so the §4.3 behaviour extends to UDP.

// Additional frame types for UDP proxying.
const (
	FrameConnectUDP FrameType = 9  // client → egress (sealed): UDP target
	FrameDatagram   FrameType = 10 // bidirectional unreliable payload
)

// udpAssoc is the egress-side state of one UDP association.
type udpAssoc struct {
	conn net.PacketConn
	dst  net.Addr
	src  netip.Addr // rotated egress address for this association
}

// handleConnectUDP binds a UDP association for a sealed CONNECT-UDP.
func (eg *Egress) handleConnectUDP(f *Frame, tw *tunnelWriter, sessions *tunnelSessions) {
	fail := func(msg string) {
		_ = tw.writeFrame(&Frame{Type: FrameConnectEr, StreamID: f.StreamID, Payload: []byte(msg)})
	}
	plain, err := Unseal(eg.ID, f.Payload)
	if err != nil {
		fail("unseal failed")
		return
	}
	target, _, ok := parseConnect(plain)
	if !ok {
		fail("malformed connect-udp")
		return
	}

	n := eg.nConns.Add(1) - 1
	var src netip.Addr
	if eg.Rotation != nil {
		src = eg.Rotation.Next(n)
	}

	dst, err := net.ResolveUDPAddr("udp", target)
	if err != nil {
		fail("bad udp target")
		return
	}
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		fail("udp bind failed")
		return
	}

	sessions.putAssoc(f.StreamID, &udpAssoc{conn: conn, dst: dst, src: src})

	if err := tw.writeFrame(&Frame{Type: FrameConnectOK, StreamID: f.StreamID, Payload: []byte(src.String())}); err != nil {
		conn.Close()
		return
	}

	// Pump target → tunnel. The simulated source address rides in each
	// datagram's preamble, mirroring the stream preamble convention. The
	// pump joins the egress WaitGroup so Serve drains it on shutdown; it
	// exits when the association or tunnel dies (closeAll fails the
	// read, at the latest when the 30 s read deadline expires).
	eg.wg.Add(1)
	go func(id uint32, pc net.PacketConn) {
		defer eg.wg.Done()
		buf := make([]byte, 64*1024) // one datagram can exceed the pooled 32 KiB copy buffers
		for {
			_ = pc.SetReadDeadline(time.Now().Add(30 * time.Second)) //lint:allow determinism — kernel socket deadlines need wall time, not the virtual clock
			n, _, err := pc.ReadFrom(buf)
			if err != nil {
				_ = tw.writeFrame(&Frame{Type: FrameClose, StreamID: id})
				return
			}
			if werr := tw.writeFrame(&Frame{Type: FrameDatagram, StreamID: id, Payload: buf[:n]}); werr != nil {
				pc.Close()
				return
			}
		}
	}(f.StreamID, conn)
}

// sendAssocDatagram relays one client datagram to the association target,
// prefixing the simulated source for preamble-aware UDP targets.
func sendAssocDatagram(a *udpAssoc, src netip.Addr, payload []byte) {
	pkt := payload
	if src.IsValid() {
		pkt = append([]byte(SourcePreambleMagic+src.String()+"\n"), payload...)
	}
	_, _ = a.conn.WriteTo(pkt, a.dst)
}

// ParseDatagramPreamble splits a preamble-prefixed UDP payload into the
// simulated source and the application datagram. Targets that do not
// care can ignore the preamble line.
func ParseDatagramPreamble(pkt []byte) (netip.Addr, []byte, bool) {
	s := string(pkt)
	if !strings.HasPrefix(s, SourcePreambleMagic) {
		return netip.Addr{}, pkt, false
	}
	nl := strings.IndexByte(s, '\n')
	if nl < 0 {
		return netip.Addr{}, pkt, false
	}
	addr, err := netip.ParseAddr(strings.TrimPrefix(s[:nl], SourcePreambleMagic))
	if err != nil {
		return netip.Addr{}, pkt, false
	}
	return addr, pkt[nl+1:], true
}

// UDPFlow is the client-side handle of one proxied UDP association.
type UDPFlow struct {
	client *Client
	id     uint32

	setup      chan struct{}
	setupOnce  sync.Once
	setupErr   error
	egressAddr netip.Addr

	mu     sync.Mutex
	inbox  chan []byte
	closed bool
}

// EgressAddr returns the egress address chosen for this association.
func (u *UDPFlow) EgressAddr() netip.Addr { return u.egressAddr }

// Send transmits one datagram to the target.
func (u *UDPFlow) Send(p []byte) error {
	return u.client.writeFrame(&Frame{Type: FrameDatagram, StreamID: u.id, Payload: p})
}

// Recv blocks for the next datagram from the target, honoring timeout
// (zero means block indefinitely until close).
func (u *UDPFlow) Recv(timeout time.Duration) ([]byte, error) {
	if timeout <= 0 {
		p, ok := <-u.inbox
		if !ok {
			return nil, ErrTunnelClosed
		}
		return p, nil
	}
	select {
	case p, ok := <-u.inbox:
		if !ok {
			return nil, ErrTunnelClosed
		}
		return p, nil
	case <-time.After(timeout): //lint:allow determinism — Recv's timeout is a caller-facing wall-time deadline, like the socket deadlines; no dataset-visible time derives from it
		return nil, ErrTimeoutUDP
	}
}

// ErrTimeoutUDP is returned by Recv when no datagram arrives in time.
var ErrTimeoutUDP = errTimeoutUDP{}

type errTimeoutUDP struct{}

func (errTimeoutUDP) Error() string { return "masque: udp recv timeout" }

// Close tears the association down.
func (u *UDPFlow) Close() error {
	err := u.client.writeFrame(&Frame{Type: FrameClose, StreamID: u.id})
	u.client.drop(u.id)
	u.closeInbox()
	return err
}

func (u *UDPFlow) closeInbox() {
	u.mu.Lock()
	if !u.closed {
		u.closed = true
		close(u.inbox)
	}
	u.mu.Unlock()
}

func (u *UDPFlow) deliver(p []byte) {
	buf := append([]byte(nil), p...)
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return
	}
	select {
	case u.inbox <- buf:
	default: // unreliable transport: drop on backpressure, like UDP
	}
}

func (u *UDPFlow) setupDone(addr netip.Addr, err error) {
	u.setupOnce.Do(func() {
		u.egressAddr = addr
		u.setupErr = err
		close(u.setup)
	})
}

// fail tears the flow down on tunnel loss: pending opens observe err,
// pending receives observe the closed inbox.
func (u *UDPFlow) fail(err error) {
	u.setupDone(netip.Addr{}, err)
	u.closeInbox()
}

// OpenUDP establishes a proxied UDP association to target ("host:port").
func (c *Client) OpenUDP(target string) (*UDPFlow, netip.Addr, error) {
	id, demux, err := c.allocID()
	if err != nil {
		return nil, netip.Addr{}, err
	}
	u := &UDPFlow{
		client: c,
		id:     id,
		setup:  make(chan struct{}),
		inbox:  make(chan []byte, 64),
	}
	demux.putFlow(id, u)

	sealed := Seal(EgressIDForAddr(c.EgressAddr), ConnectPayload(target, c.Geohash))
	if err := c.writeFrame(&Frame{Type: FrameConnectUDP, StreamID: id, Payload: sealed}); err != nil {
		c.drop(id)
		return nil, netip.Addr{}, err
	}
	<-u.setup
	if u.setupErr != nil {
		c.drop(id)
		return nil, netip.Addr{}, u.setupErr
	}
	return u, u.egressAddr, nil
}
