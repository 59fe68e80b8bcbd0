package dnsserver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/retry"
)

// Exchanger performs one DNS query/response exchange. Implementations:
// MemTransport (in-process) and UDPClient (wire format over a socket).
type Exchanger interface {
	Exchange(ctx context.Context, query *dnswire.Message) (*dnswire.Message, error)
}

// ErrTimeout is returned when the server drops a query (rate limiting or
// simulated loss) and the client gives up.
var ErrTimeout = errors.New("dnsserver: query timed out")

// MemTransport calls a Handler directly, impersonating a given source
// address. It optionally injects loss for robustness testing.
type MemTransport struct {
	Handler Handler
	// Source is the simulated transport source address.
	Source netip.Addr
	// LossEvery drops every n-th query when > 0 (deterministic loss).
	LossEvery int

	// n counts queries atomically so concurrent scan workers never
	// serialize on the transport itself.
	n atomic.Int64
}

// Exchange implements Exchanger.
func (m *MemTransport) Exchange(ctx context.Context, query *dnswire.Message) (*dnswire.Message, error) {
	// A receive on Done, not ctx.Err(): the latter locks a cancelCtx's
	// mutex on every exchange.
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	default:
	}
	if m.LossEvery > 0 {
		if m.n.Add(1)%int64(m.LossEvery) == 0 {
			return nil, ErrTimeout
		}
	}
	resp := m.Handler.Handle(query, m.Source)
	if resp == nil {
		return nil, ErrTimeout
	}
	return resp, nil
}

// UDPServer serves a Handler over a UDP socket using the DNS wire format.
// Packets are read into pooled buffers and dispatched to a small worker
// pool (instead of a goroutine per packet); each worker reuses one decode
// message, one encoder and one wire buffer across packets. The handler
// must not retain the query message past its return — workers reuse it.
type UDPServer struct {
	handler Handler
	conn    net.PacketConn
	wg      sync.WaitGroup
	closed  chan struct{}
	work    chan udpPacket
}

// udpPacket is one received datagram handed from the read loop to a
// worker; buf returns to pktPool once the worker is done with it.
type udpPacket struct {
	buf   *[]byte
	n     int
	raddr net.Addr
}

// pktPool recycles receive buffers; dnswire never retains references
// into the input buffer, so a buffer is free again right after decode.
var pktPool = sync.Pool{New: func() any {
	b := make([]byte, 4096)
	return &b
}}

// ListenUDP starts a UDP server on addr (e.g. "127.0.0.1:0") and begins
// serving. Close must be called to release the socket.
func ListenUDP(addr string, handler Handler) (*UDPServer, error) {
	conn, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("dnsserver: listen: %w", err)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	s := &UDPServer{
		handler: handler,
		conn:    conn,
		closed:  make(chan struct{}),
		work:    make(chan udpPacket, 4*workers),
	}
	s.wg.Add(1 + workers)
	go s.serve()
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Addr returns the server's bound address.
func (s *UDPServer) Addr() net.Addr { return s.conn.LocalAddr() }

// Close stops the server and waits for the read loop and workers to exit.
func (s *UDPServer) Close() error {
	close(s.closed)
	err := s.conn.Close()
	s.wg.Wait()
	return err
}

func (s *UDPServer) serve() {
	defer s.wg.Done()
	defer close(s.work) // workers drain what's queued, then exit
	for {
		bp := pktPool.Get().(*[]byte)
		n, raddr, err := s.conn.ReadFrom(*bp)
		if err != nil {
			pktPool.Put(bp)
			select {
			case <-s.closed:
				return
			default:
			}
			continue // transient read error: keep serving
		}
		s.work <- udpPacket{buf: bp, n: n, raddr: raddr}
	}
}

// udpWorker is one worker's reusable scratch: decode target, truncation
// shell, encoder state and wire buffer.
type udpWorker struct {
	query dnswire.Message
	trunc dnswire.Message
	enc   dnswire.Encoder
	wire  []byte
}

func (s *UDPServer) worker() {
	defer s.wg.Done()
	var w udpWorker
	for pkt := range s.work {
		s.handlePacket(&w, pkt)
		pktPool.Put(pkt.buf)
	}
}

func (s *UDPServer) handlePacket(w *udpWorker, pkt udpPacket) {
	if err := dnswire.DecodeInto((*pkt.buf)[:pkt.n], &w.query); err != nil {
		return // malformed: drop, as real servers do for garbage
	}
	from := netip.Addr{}
	if ua, ok := pkt.raddr.(*net.UDPAddr); ok {
		from = ua.AddrPort().Addr()
	}
	resp := s.handler.Handle(&w.query, from)
	if resp == nil {
		return
	}
	// Honor the requester's advertised UDP buffer: an oversize response
	// goes out with TC set and its record sections dropped entirely
	// (RFC 2181 §9: a truncated response must not be partially used).
	bufSize := 512
	if w.query.Edns != nil && w.query.Edns.UDPSize > 512 {
		bufSize = int(w.query.Edns.UDPSize)
	}
	wire, err := w.enc.Encode(resp, w.wire[:0])
	if err == nil && len(wire) > bufSize {
		w.trunc = dnswire.Message{
			Header:    resp.Header,
			Questions: resp.Questions,
			Edns:      resp.Edns,
		}
		w.trunc.Header.Truncated = true
		wire, err = w.enc.Encode(&w.trunc, w.wire[:0])
	}
	// The wire bytes are an independent copy: the response is consumed.
	dnswire.ReleaseMessage(resp)
	if err != nil {
		return
	}
	w.wire = wire[:0]
	_, _ = s.conn.WriteTo(wire, pkt.raddr)
}

// UDPClient queries a UDP DNS server with retry and timeout. Retries
// back off exponentially with deterministic jitter, and every attempt
// carries a fresh transaction ID so a late datagram answering an earlier
// attempt can never satisfy a newer one — it is discarded as stale
// instead of being mistaken for the current answer.
type UDPClient struct {
	// ServerAddr is the "host:port" of the server.
	ServerAddr string
	// Timeout bounds each attempt (default 2s).
	Timeout time.Duration
	// Retries is the number of additional attempts (default 1).
	Retries int
	// Backoff is the base delay before the first retry, doubling per
	// attempt up to 8×Backoff with jitter in [1/2, 1) of the delay.
	// Zero defaults to 100ms; negative disables backoff entirely.
	Backoff time.Duration
}

// Exchange implements Exchanger over UDP. The socket is dialed once and
// reused across every retry attempt — only the read/write deadline is
// reset per attempt. Retrying under a fresh transaction ID only needs the
// wire ID bytes re-stamped (the DNS header puts the ID at offset 0), so
// the query is encoded exactly once regardless of the attempt count. The
// returned response is pooled: callers pass ownership onward or release
// it via dnswire.ReleaseMessage when done.
func (c *UDPClient) Exchange(ctx context.Context, query *dnswire.Message) (*dnswire.Message, error) {
	timeout := c.Timeout
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	backoff := c.Backoff
	if backoff == 0 {
		backoff = 100 * time.Millisecond
	}
	attempts := c.Retries + 1
	if attempts < 1 {
		attempts = 1
	}
	wire, err := query.Encode(nil)
	if err != nil {
		return nil, err
	}
	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(ctx, "udp", c.ServerAddr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	bp := pktPool.Get().(*[]byte)
	defer pktPool.Put(bp)
	rbuf := *bp
	var lastErr error = ErrTimeout
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		id := query.Header.ID
		if a > 0 {
			if backoff > 0 {
				// Jitter is deterministic per (transaction ID, retry).
				h := iputil.Mix(uint64(query.Header.ID)+1, uint64(a-1)^0xD15C0)
				t := time.NewTimer(retry.Backoff{Base: backoff, Cap: 8 * backoff}.Delay(a-1, h))
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					return nil, ctx.Err()
				}
			}
			// Re-stamp the wire ID so each attempt is its own transaction;
			// nothing else in the packet changes, so no re-encode.
			id = uint16(iputil.Mix(uint64(query.Header.ID)+1, uint64(a)))
			binary.BigEndian.PutUint16(wire[:2], id)
		}
		resp, err := c.exchangeOnce(ctx, conn, rbuf, wire, id, timeout)
		if err == nil {
			// Restore the caller's transaction ID: which attempt won is a
			// transport detail.
			resp.Header.ID = query.Header.ID
			return resp, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func (c *UDPClient) exchangeOnce(ctx context.Context, conn net.Conn, rbuf, wire []byte, id uint16, timeout time.Duration) (*dnswire.Message, error) {
	deadline := time.Now().Add(timeout)
	if ctxDeadline, ok := ctx.Deadline(); ok && ctxDeadline.Before(deadline) {
		deadline = ctxDeadline
	}
	_ = conn.SetDeadline(deadline)
	if _, err := conn.Write(wire); err != nil {
		return nil, err
	}
	for {
		n, err := conn.Read(rbuf)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				return nil, err
			}
			return nil, ErrTimeout
		}
		resp := dnswire.AcquireMessage()
		if err := dnswire.DecodeInto(rbuf[:n], resp); err != nil {
			dnswire.ReleaseMessage(resp)
			continue // garbage on the socket: wait for a real response
		}
		if resp.Header.ID != id {
			dnswire.ReleaseMessage(resp)
			continue // stale response from a previous attempt
		}
		return resp, nil
	}
}
