package masque

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/relay-networks/privaterelay/internal/vclock"
)

// Dialer abstracts outbound connections so deployments can interpose
// simulated networks; the zero value of net.Dialer satisfies it via Dial.
type Dialer interface {
	Dial(network, address string) (net.Conn, error)
}

// TokenValidator validates client access tokens (implemented by
// TokenIssuer).
type TokenValidator interface {
	Validate(token string) error
}

// ConnRecord is one tunnel observed at the ingress: everything this hop
// can see. Note the absence of any target information — the ingress pipes
// sealed bytes it cannot parse.
type ConnRecord struct {
	ClientAddr string
	EgressAddr string
	Start      time.Time
}

// defaultServeWorkers sizes the accept worker pools when unset. Each
// live tunnel occupies one worker for its lifetime; connections beyond
// the pool wait in the listener backlog.
const defaultServeWorkers = 256

// Ingress is a Private Relay ingress server: it authenticates clients,
// connects them to their chosen egress and then blindly relays bytes.
type Ingress struct {
	// Validator checks AUTH tokens; nil accepts everything (open relay,
	// used only in focused tests).
	Validator TokenValidator
	// Dialer opens the ingress→egress leg; nil uses net.Dialer.
	Dialer Dialer
	// AllowedEgress optionally restricts which egress addresses clients
	// may request; nil allows any.
	AllowedEgress map[string]bool
	// Clock stamps ConnRecord.Start and paces reservation bandwidth;
	// nil uses the wall clock. Injecting a VirtualClock makes the
	// connection log and pacing reproducible in tests.
	Clock vclock.Clock
	// Reservations gates admission per account: AUTH is answered with
	// FrameReserveOK or a typed FrameReject, and tunnel bytes are
	// charged against the account's data cap and paced by its bandwidth
	// bucket. Nil admits every account under one unlimited registry,
	// which Serve builds on the ingress clock.
	Reservations *Reservations
	// Workers fixes the tunnel worker-pool size (0 means
	// defaultServeWorkers). The ingress serves at most Workers
	// concurrent tunnels; excess connections queue in the backlog.
	Workers int

	mu      sync.Mutex
	ln      net.Listener
	records []ConnRecord
	wg      sync.WaitGroup
	rejects [rejectCodeCount]atomic.Int64
}

// Serve accepts on ln until ln is closed, handing tunnels to a fixed
// worker pool (goroutine-per-connection does not survive the session
// counts the relay targets). It returns the first accept error
// (net.ErrClosed after Close).
func (ing *Ingress) Serve(ln net.Listener) error {
	ing.mu.Lock()
	ing.ln = ln
	if ing.Reservations == nil {
		ing.Reservations = NewReservations(Limits{}, ing.Clock)
	}
	ing.mu.Unlock()
	return servePool(ln, workersPoolSize(ing.Workers), &ing.wg, ing.handle)
}

// servePool is the shared accept loop: a fixed pool of workers drains
// an unbuffered connection channel, so the listener backlog — not a
// goroutine explosion — absorbs bursts past the pool size.
func servePool(ln net.Listener, workers int, wg *sync.WaitGroup, handle func(net.Conn)) error {
	conns := make(chan net.Conn)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range conns {
				handle(c)
			}
		}()
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			close(conns)
			wg.Wait()
			return err
		}
		conns <- conn
	}
}

func workersPoolSize(n int) int {
	if n > 0 {
		return n
	}
	return defaultServeWorkers
}

// Close stops the listener; in-flight tunnels finish on their own.
func (ing *Ingress) Close() error {
	ing.mu.Lock()
	ln := ing.ln
	ing.mu.Unlock()
	if ln == nil {
		return nil
	}
	return ln.Close()
}

// Records returns a copy of the connection log.
func (ing *Ingress) Records() []ConnRecord {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return append([]ConnRecord(nil), ing.records...)
}

// RejectCounts returns how many reservation rejections the ingress has
// issued, by code (admissions denied and tunnels cut mid-flight).
func (ing *Ingress) RejectCounts() map[RejectCode]int64 {
	out := make(map[RejectCode]int64)
	for c := 0; c < rejectCodeCount; c++ {
		if n := ing.rejects[c].Load(); n > 0 {
			out[RejectCode(c)] = n
		}
	}
	return out
}

func (ing *Ingress) countReject(code RejectCode) {
	if int(code) < rejectCodeCount {
		ing.rejects[code].Add(1)
	}
}

// handle runs one client tunnel.
func (ing *Ingress) handle(client net.Conn) {
	defer client.Close()
	br := bufio.NewReader(client)

	f, err := ReadFrame(br)
	if err != nil || f.Type != FrameAuth {
		return
	}
	token, egressAddr, ok := parseAuth(f.Payload)
	if !ok {
		_ = WriteFrame(client, &Frame{Type: FrameAuthErr, Payload: []byte("malformed auth")})
		return
	}
	if ing.Validator != nil {
		if err := ing.Validator.Validate(token); err != nil {
			_ = WriteFrame(client, &Frame{Type: FrameAuthErr, Payload: []byte(err.Error())})
			return
		}
	}
	if ing.AllowedEgress != nil && !ing.AllowedEgress[egressAddr] {
		_ = WriteFrame(client, &Frame{Type: FrameAuthErr, Payload: []byte("egress not allowed")})
		return
	}

	// Reservation admission: the validated token names the account; the
	// registry answers with a session grant or a typed rejection.
	account, err := TokenAccount(token)
	if err != nil {
		ing.countReject(RejectMalformed)
		_ = WriteFrame(client, &Frame{Type: FrameReject, Payload: AppendReject(nil, RejectMalformed, "unreadable account")})
		return
	}
	rs := ing.Reservations
	res, code := rs.Admit(account)
	if code != RejectNone {
		ing.countReject(code)
		_ = WriteFrame(client, &Frame{Type: FrameReject, Payload: AppendReject(nil, code, "")})
		return
	}
	defer rs.EndSession(res)

	d := ing.Dialer
	if d == nil {
		d = &net.Dialer{}
	}
	egress, err := d.Dial("tcp", egressAddr)
	if err != nil {
		_ = WriteFrame(client, &Frame{Type: FrameAuthErr, Payload: []byte("egress unreachable")})
		return
	}
	defer egress.Close()

	ing.mu.Lock()
	ing.records = append(ing.records, ConnRecord{
		ClientAddr: client.RemoteAddr().String(),
		EgressAddr: egressAddr,
		Start:      ing.now(),
	})
	ing.mu.Unlock()

	info := res.Info()
	if err := WriteFrame(client, &Frame{Type: FrameReserveOK, Payload: AppendReservationInfo(nil, &info)}); err != nil {
		return
	}

	// From here on the ingress is a dumb pipe: it can count bytes and see
	// timing — and charge them to the reservation — but every CONNECT it
	// forwards is sealed for the egress. The reverse leg runs in one
	// helper goroutine (bounded by the worker pool, not the conn count).
	done := make(chan RejectCode, 1)
	go func() {
		code := ing.pipe(client, egress, res)
		_ = closeWrite(client)
		done <- code
	}()
	code = ing.pipe(egress, br, res)
	_ = closeWrite(egress)
	if code == RejectNone {
		code = <-done
	} else {
		// A reservation violation cuts the whole tunnel, not one leg.
		client.Close()
		egress.Close()
		<-done
	}
	if code != RejectNone {
		ing.countReject(code)
	}
}

// pipe copies src→dst through a pooled buffer, charging each chunk to
// the reservation. Data-cap exhaustion returns RejectDataCap and stops
// the tunnel; bandwidth overruns pace (sleep on the ingress clock until
// the bucket conforms) rather than cut, like any traffic shaper.
func (ing *Ingress) pipe(dst io.Writer, src io.Reader, res *Reservation) RejectCode {
	bp := acquireCopyBuf()
	defer releaseCopyBuf(bp)
	buf := *bp
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if code := ing.charge(res, int64(n)); code != RejectNone {
				return code
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return RejectNone
			}
		}
		if err != nil {
			return RejectNone
		}
	}
}

// charge debits n bytes from the reservation — expiry and hard data
// cap first — then paces them through the bandwidth bucket.
func (ing *Ingress) charge(res *Reservation, n int64) RejectCode {
	rs := ing.Reservations
	if code := res.debit(n, rs); code != RejectNone {
		return code
	}
	if res.limits.BandwidthBps > 0 {
		clock := ing.clock()
		for res.AllowBandwidth(n, rs.NowNS()) != RejectNone {
			// Sleep one chunk's transmission time, then re-ask the bucket.
			wait := time.Duration(n * int64(time.Second) / res.limits.BandwidthBps)
			if wait <= 0 {
				wait = time.Millisecond
			}
			if err := clock.Sleep(context.Background(), wait); err != nil {
				return RejectBandwidth
			}
		}
	}
	return RejectNone
}

// closeWrite half-closes a TCP connection when supported.
func closeWrite(c net.Conn) error {
	if tc, ok := c.(*net.TCPConn); ok {
		return tc.CloseWrite()
	}
	return nil
}

// AuthPayload encodes an AUTH frame body.
func AuthPayload(token, egressAddr string) []byte {
	return []byte(token + "\n" + egressAddr)
}

func parseAuth(payload []byte) (token, egressAddr string, ok bool) {
	parts := strings.SplitN(string(payload), "\n", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return "", "", false
	}
	return parts[0], parts[1], true
}

// String renders a record for logs.
func (r ConnRecord) String() string {
	return fmt.Sprintf("client=%s egress=%s", r.ClientAddr, r.EgressAddr)
}

// clock returns the ingress clock (wall clock when unset).
func (ing *Ingress) clock() vclock.Clock {
	if ing.Clock != nil {
		return ing.Clock
	}
	return vclock.WallClock{}
}

// now returns the ingress clock's current time.
func (ing *Ingress) now() time.Time { return ing.clock().Now() }
