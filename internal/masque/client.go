package masque

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
)

// Client is a Private Relay client: one tunnel through an ingress to an
// egress, multiplexing any number of proxied streams (the real service
// combines multiple connections within a single proxy connection, §2).
type Client struct {
	// IngressAddr and EgressAddr are "host:port" endpoints.
	IngressAddr string
	EgressAddr  string
	// Token authenticates at the ingress.
	Token string
	// Geohash is the coarse client location forwarded to the egress when
	// the user keeps region-preserving mode on (may be empty).
	Geohash string
	// Dialer opens the client→ingress leg; nil uses net.Dialer.
	Dialer Dialer

	// closed is set once, by Close; the write path reads it without
	// taking mu.
	closed atomic.Bool

	mu     sync.Mutex
	conn   net.Conn
	nextID uint32
	demux  *demuxTable

	// wmu orders tunnel writes; enc turns each frame (or burst of a
	// Write's frames) into a single conn write, and a Write holds wmu
	// across all of its bursts, so concurrent streams can never
	// interleave frames. No function takes both mu and wmu: Dial primes
	// enc before it publishes conn under mu, and the writers take wmu
	// alone.
	wmu sync.Mutex
	enc FrameEncoder

	reservation ReservationInfo
}

// Client errors.
var (
	ErrAuthRejected  = errors.New("masque: ingress rejected authentication")
	ErrTunnelClosed  = errors.New("masque: tunnel closed")
	ErrConnectFailed = errors.New("masque: egress could not reach target")
)

// Dial establishes the tunnel: TCP to the ingress, AUTH, then
// RESERVE_OK carrying the granted limits — or a typed REJECT surfaced
// as *RejectionError.
func (c *Client) Dial() error {
	d := c.Dialer
	if d == nil {
		d = &net.Dialer{}
	}
	conn, err := d.Dial("tcp", c.IngressAddr)
	if err != nil {
		return fmt.Errorf("masque: dial ingress: %w", err)
	}
	if err := WriteFrame(conn, &Frame{
		Type:    FrameAuth,
		Payload: AuthPayload(c.Token, c.EgressAddr),
	}); err != nil {
		conn.Close()
		return err
	}
	br := bufio.NewReader(conn)
	f, err := ReadFrame(br)
	if err != nil {
		conn.Close()
		return fmt.Errorf("masque: waiting for auth reply: %w", err)
	}
	var info ReservationInfo
	switch f.Type {
	case FrameReserveOK:
		if info, err = ParseReservationInfo(f.Payload); err != nil {
			conn.Close()
			return err
		}
	case FrameReject:
		conn.Close()
		code, msg, perr := ParseReject(f.Payload)
		if perr != nil {
			return fmt.Errorf("%w: unreadable rejection", ErrAuthRejected)
		}
		return &RejectionError{Code: code, Msg: msg}
	default:
		conn.Close()
		return fmt.Errorf("%w: %s", ErrAuthRejected, f.Payload)
	}
	// No stream exists before conn is published, so nothing writes
	// through enc until the mu section below hands conn out.
	c.enc.Reset(conn)
	demux := newDemuxTable()
	c.mu.Lock()
	c.conn = conn
	c.nextID = 1
	c.demux = demux
	c.reservation = info
	c.mu.Unlock()
	// The demux loop's lifetime is the tunnel's: run exits when ReadInto
	// fails, which Close forces by closing the conn. The package's
	// TestMain fails if any such loop outlives the tests.
	go c.run(br, demux)
	return nil
}

// Reservation returns the limits the ingress granted at Dial time (all
// zero from an ingress that admits without limits).
func (c *Client) Reservation() ReservationInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reservation
}

// Close tears the tunnel down; all streams fail with ErrTunnelClosed.
// Failing them here, not only when the demux loop sees the conn die,
// also frees a demux loop blocked delivering to a full stream.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.mu.Lock()
	conn, demux := c.conn, c.demux
	c.mu.Unlock()
	if conn == nil {
		return nil
	}
	err := conn.Close()
	demux.failAll(ErrTunnelClosed)
	return err
}

// run is the demux loop: it routes incoming frames to their streams
// through the sharded demux table.
func (c *Client) run(br *bufio.Reader, demux *demuxTable) {
	fr := NewFrameReader(br)
	f := AcquireFrame()
	defer ReleaseFrame(f)
	for {
		if err := fr.ReadInto(f); err != nil {
			demux.failAll(ErrTunnelClosed)
			return
		}
		e := demux.lookup(f.StreamID)
		switch {
		case e.s != nil:
			s := e.s
			switch f.Type {
			case FrameConnectOK:
				addr, _ := netip.ParseAddr(string(f.Payload))
				s.setupDone(addr, nil)
			case FrameConnectEr:
				s.setupDone(netip.Addr{}, fmt.Errorf("%w: %s", ErrConnectFailed, f.Payload))
			case FrameData:
				s.deliver(f.Payload)
			case FrameClose:
				s.closeRead()
			default:
				// Unknown frame types on a stream are dropped.
			}
		case e.u != nil:
			u := e.u
			switch f.Type {
			case FrameConnectOK:
				addr, _ := netip.ParseAddr(string(f.Payload))
				u.setupDone(addr, nil)
			case FrameConnectEr:
				u.setupDone(netip.Addr{}, fmt.Errorf("%w: %s", ErrConnectFailed, f.Payload))
			case FrameDatagram:
				u.deliver(f.Payload)
			case FrameClose:
				u.closeInbox()
			default:
				// Unknown frame types on a UDP flow are dropped.
			}
		}
	}
}

// writeFrame serializes one frame into the tunnel as a single write.
func (c *Client) writeFrame(f *Frame) error {
	if c.closed.Load() {
		return ErrTunnelClosed
	}
	c.wmu.Lock()
	err := c.enc.WriteFrame(f)
	c.wmu.Unlock()
	return err
}

// A Write is cut into DATA frames of dataChunk payload bytes, and the
// encoder flushes them burstChunks at a time: a 64 KiB burst (plus
// frame headers) stays under maxEncoderRetain, so the encoder reuses
// one buffer across bursts and a large Write streams onto the conn
// instead of first being copied whole into a buffer grown from nil.
const (
	dataChunk   = 16 * 1024
	burstChunks = 4
)

// writeData chunks p into DATA frames for stream id and flushes them a
// burst at a time. wmu is held for the whole Write, so no other
// stream's frame lands between two of its bursts and no frame is split
// across flushes. It returns the payload bytes whose frames were
// flushed: on error, a count that ends on a frame boundary.
func (c *Client) writeData(id uint32, p []byte) (int, error) {
	if c.closed.Load() {
		return 0, ErrTunnelClosed
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	written := 0
	f := Frame{Type: FrameData, StreamID: id}
	for written < len(p) {
		burst := p[written:min(len(p), written+burstChunks*dataChunk)]
		for off := 0; off < len(burst); off += dataChunk {
			f.Payload = burst[off:min(len(burst), off+dataChunk)]
			if err := c.enc.Append(&f); err != nil {
				return written, err
			}
		}
		if err := c.enc.Flush(); err != nil {
			return written, err
		}
		written += len(burst)
	}
	return written, nil
}

// Open proxies a new connection to target ("host:port") through the
// tunnel and returns the stream plus the egress address the relay chose
// for it.
func (c *Client) Open(target string) (*Stream, netip.Addr, error) {
	id, demux, err := c.allocID()
	if err != nil {
		return nil, netip.Addr{}, err
	}
	s := newStream(c, id)
	demux.putStream(id, s)

	sealed := Seal(EgressIDForAddr(c.EgressAddr), ConnectPayload(target, c.Geohash))
	if err := c.writeFrame(&Frame{Type: FrameConnect, StreamID: id, Payload: sealed}); err != nil {
		c.drop(id)
		return nil, netip.Addr{}, err
	}
	<-s.setup
	if s.setupErr != nil {
		c.drop(id)
		return nil, netip.Addr{}, s.setupErr
	}
	return s, s.egressAddr, nil
}

// allocID hands out the next stream ID and the demux table to register
// it in, or ErrTunnelClosed before Dial and after Close.
func (c *Client) allocID() (uint32, *demuxTable, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() || c.conn == nil {
		return 0, nil, ErrTunnelClosed
	}
	id := c.nextID
	c.nextID++
	return id, c.demux, nil
}

// drop unregisters a stream or UDP flow from the demux table.
func (c *Client) drop(id uint32) {
	c.mu.Lock()
	demux := c.demux
	c.mu.Unlock()
	if demux != nil {
		demux.drop(id)
	}
}

// streamRecvBound is the fill line of a stream's receive buffer:
// deliver waits while at least this many bytes are unread, so a slow
// reader holds at most streamRecvBound plus one frame per stream. 64
// KiB is one client write burst and two of the egress's largest DATA
// frames. tunnel_bulk's op_p50_ms did not move between 16 KiB and
// 1 MiB on a 2-vCPU box, but a bound under one burst parks the demux
// loop, and every stream behind it, whenever a reader falls one frame
// behind.
const streamRecvBound = 64 * 1024

// Stream is one proxied connection. It implements io.ReadWriteCloser.
type Stream struct {
	client *Client
	id     uint32

	setup      chan struct{}
	setupOnce  sync.Once
	setupErr   error
	egressAddr netip.Addr

	// mu guards the receive side. rbuf[roff:] holds the bytes delivered
	// but not yet read; recv wakes Read when bytes or the end of the
	// stream arrive, and deliver when Read makes room or the stream
	// ends.
	mu      sync.Mutex
	recv    sync.Cond
	rbuf    []byte
	roff    int
	rclosed bool
	failErr error
}

func newStream(c *Client, id uint32) *Stream {
	s := &Stream{client: c, id: id, setup: make(chan struct{})}
	s.recv.L = &s.mu
	return s
}

// EgressAddr returns the egress address the relay selected for this stream.
func (s *Stream) EgressAddr() netip.Addr { return s.egressAddr }

func (s *Stream) setupDone(addr netip.Addr, err error) {
	s.setupOnce.Do(func() {
		s.egressAddr = addr
		s.setupErr = err
		close(s.setup)
	})
}

// deliver appends one DATA payload to the receive buffer: one copy,
// and no allocation once the buffer has grown to the stream's working
// size. While streamRecvBound bytes are unread it waits, which stalls
// the demux loop and so every stream of the tunnel (head-of-line
// back-pressure); closeRead and fail wake it. A closed stream's data
// is dropped.
func (s *Stream) deliver(p []byte) {
	s.mu.Lock()
	for !s.rclosed && len(s.rbuf)-s.roff >= streamRecvBound {
		s.recv.Wait()
	}
	if !s.rclosed {
		if s.roff > 0 && len(s.rbuf)+len(p) > cap(s.rbuf) {
			// Slide the unread bytes down rather than grow past them.
			s.rbuf = s.rbuf[:copy(s.rbuf, s.rbuf[s.roff:])]
			s.roff = 0
		}
		s.rbuf = append(s.rbuf, p...)
		s.recv.Broadcast()
	}
	s.mu.Unlock()
}

// closeRead ends the stream's receive side (a CLOSE from the peer, or
// a local Close). Bytes already delivered stay readable before io.EOF.
func (s *Stream) closeRead() {
	s.mu.Lock()
	if !s.rclosed {
		s.rclosed = true
		s.recv.Broadcast()
	}
	s.mu.Unlock()
}

// fail ends the stream with err (tunnel teardown). Bytes already
// delivered stay readable before err.
func (s *Stream) fail(err error) {
	s.setupDone(netip.Addr{}, err)
	s.mu.Lock()
	if !s.rclosed {
		s.rclosed = true
		s.failErr = err
		s.recv.Broadcast()
	}
	s.mu.Unlock()
}

// Read implements io.Reader. It returns buffered bytes first, then
// io.EOF after a CLOSE, or the tunnel's error after a failure.
func (s *Stream) Read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.roff == len(s.rbuf) && !s.rclosed {
		s.recv.Wait()
	}
	if s.roff < len(s.rbuf) {
		n := copy(p, s.rbuf[s.roff:])
		s.roff += n
		if s.roff == len(s.rbuf) {
			s.rbuf, s.roff = s.rbuf[:0], 0
		}
		s.recv.Broadcast()
		return n, nil
	}
	if s.failErr != nil {
		return 0, s.failErr
	}
	return 0, io.EOF
}

// Write implements io.Writer; large writes are chunked into frames and
// flushed to the tunnel a burst at a time.
func (s *Stream) Write(p []byte) (int, error) {
	return s.client.writeData(s.id, p)
}

// Close sends a CLOSE for the stream and releases client state.
func (s *Stream) Close() error {
	err := s.client.writeFrame(&Frame{Type: FrameClose, StreamID: s.id})
	s.client.drop(s.id)
	s.closeRead()
	if errors.Is(err, ErrTunnelClosed) {
		return nil
	}
	return err
}
