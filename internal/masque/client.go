package masque

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"time"
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

	mu      sync.Mutex
	conn    net.Conn
	nextID  uint32
	demux   *demuxTable
	readErr error
	closed  bool

	// wmu orders tunnel writes; enc turns each frame (or Write batch)
	// into a single conn write, so concurrent streams can never
	// interleave partial frames. When both are needed, mu is taken and
	// released before wmu — never nested the other way.
	//
	//lint:lockorder Client.mu < Client.wmu
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
	demux := newDemuxTable()
	c.mu.Lock()
	c.conn = conn
	c.nextID = 1
	c.demux = demux
	c.reservation = info
	c.mu.Unlock()
	c.wmu.Lock()
	c.enc.Reset(conn)
	c.wmu.Unlock()
	// The demux loop's lifetime is the tunnel's: run exits when ReadInto
	// fails, which Close forces by closing the conn. Joining it to a
	// WaitGroup would make Close block on the reader observing EOF for
	// no caller-visible benefit.
	go c.run(br, demux) //lint:allow goroleak — terminates when Close tears down the conn and ReadInto fails
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
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// run is the demux loop: it routes incoming frames to their streams
// through the sharded demux table.
func (c *Client) run(br *bufio.Reader, demux *demuxTable) {
	fr := NewFrameReader(br)
	f := AcquireFrame()
	defer ReleaseFrame(f)
	for {
		if err := fr.ReadInto(f); err != nil {
			c.mu.Lock()
			c.readErr = err
			c.mu.Unlock()
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
	c.mu.Lock()
	conn := c.conn
	closed := c.closed
	c.mu.Unlock()
	if closed || conn == nil {
		return ErrTunnelClosed
	}
	c.wmu.Lock()
	err := c.enc.WriteFrame(f)
	c.wmu.Unlock()
	return err
}

// writeData chunks p into DATA frames for stream id and flushes the
// whole batch in one conn write.
func (c *Client) writeData(id uint32, p []byte) (int, error) {
	c.mu.Lock()
	conn := c.conn
	closed := c.closed
	c.mu.Unlock()
	if closed || conn == nil {
		return 0, ErrTunnelClosed
	}
	const chunk = 16 * 1024
	c.wmu.Lock()
	defer c.wmu.Unlock()
	written := 0
	f := Frame{Type: FrameData, StreamID: id}
	for len(p) > 0 {
		n := len(p)
		if n > chunk {
			n = chunk
		}
		f.Payload = p[:n]
		if err := c.enc.Append(&f); err != nil {
			return written, err
		}
		written += n
		p = p[n:]
	}
	return written, c.enc.Flush()
}

// Open proxies a new connection to target ("host:port") through the
// tunnel and returns the stream plus the egress address the relay chose
// for it.
func (c *Client) Open(target string) (*Stream, netip.Addr, error) {
	c.mu.Lock()
	if c.closed || c.conn == nil {
		c.mu.Unlock()
		return nil, netip.Addr{}, ErrTunnelClosed
	}
	id := c.nextID
	c.nextID++
	s := &Stream{
		client: c,
		id:     id,
		setup:  make(chan struct{}),
		data:   make(chan []byte, 64),
	}
	demux := c.demux
	c.mu.Unlock()
	demux.putStream(id, s)

	sealed := Seal(EgressIDForAddr(c.EgressAddr), ConnectPayload(target, c.Geohash))
	if err := c.writeFrame(&Frame{Type: FrameConnect, StreamID: id, Payload: sealed}); err != nil {
		c.dropStream(id)
		return nil, netip.Addr{}, err
	}
	<-s.setup
	if s.setupErr != nil {
		c.dropStream(id)
		return nil, netip.Addr{}, s.setupErr
	}
	return s, s.egressAddr, nil
}

func (c *Client) dropStream(id uint32) {
	c.mu.Lock()
	demux := c.demux
	c.mu.Unlock()
	if demux != nil {
		demux.drop(id)
	}
}

// Stream is one proxied connection. It implements io.ReadWriteCloser.
type Stream struct {
	client *Client
	id     uint32

	setup      chan struct{}
	setupOnce  sync.Once
	setupErr   error
	egressAddr netip.Addr

	mu      sync.Mutex
	data    chan []byte
	pending []byte
	rclosed bool
	failErr error
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

func (s *Stream) deliver(p []byte) {
	buf := append([]byte(nil), p...)
	for {
		s.mu.Lock()
		if s.rclosed {
			s.mu.Unlock()
			return
		}
		select {
		case s.data <- buf:
			s.mu.Unlock()
			return
		default:
		}
		s.mu.Unlock()
		// Buffer full: apply backpressure to the demux loop without
		// racing against a concurrent close of the channel.
		time.Sleep(time.Millisecond) //lint:allow determinism — scheduling backpressure nap; no dataset-visible time derives from it
	}
}

func (s *Stream) closeRead() {
	s.mu.Lock()
	if !s.rclosed {
		s.rclosed = true
		close(s.data)
	}
	s.mu.Unlock()
}

func (s *Stream) fail(err error) {
	s.setupDone(netip.Addr{}, err)
	s.mu.Lock()
	if !s.rclosed {
		s.rclosed = true
		s.failErr = err
		close(s.data)
	}
	s.mu.Unlock()
}

// Read implements io.Reader.
func (s *Stream) Read(p []byte) (int, error) {
	if len(s.pending) > 0 {
		n := copy(p, s.pending)
		s.pending = s.pending[n:]
		return n, nil
	}
	buf, ok := <-s.data
	if !ok {
		s.mu.Lock()
		err := s.failErr
		s.mu.Unlock()
		if err != nil {
			return 0, err
		}
		return 0, io.EOF
	}
	n := copy(p, buf)
	if n < len(buf) {
		s.pending = buf[n:]
	}
	return n, nil
}

// Write implements io.Writer; large writes are chunked into frames and
// flushed to the tunnel as one batch.
func (s *Stream) Write(p []byte) (int, error) {
	return s.client.writeData(s.id, p)
}

// Close sends a CLOSE for the stream and releases client state.
func (s *Stream) Close() error {
	err := s.client.writeFrame(&Frame{Type: FrameClose, StreamID: s.id})
	s.client.dropStream(s.id)
	s.closeRead()
	if errors.Is(err, ErrTunnelClosed) {
		return nil
	}
	return err
}
