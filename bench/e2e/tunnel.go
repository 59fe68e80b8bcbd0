package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"time"

	"github.com/relay-networks/privaterelay/internal/masque"
)

// echoTarget is the far end of the tunnel: it reads the egress's
// simulated-source preamble and echoes everything after it.
type echoTarget struct {
	ln    net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func startEchoTarget() (*echoTarget, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &echoTarget{ln: ln, conns: map[net.Conn]struct{}{}}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			t.mu.Lock()
			t.conns[c] = struct{}{}
			t.mu.Unlock()
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				if _, err := masque.ReadSourcePreamble(br); err != nil {
					return
				}
				_, _ = io.Copy(c, br) // ends when the egress closes its leg
			}()
		}
	}()
	return t, nil
}

func (t *echoTarget) close() {
	t.ln.Close()
	t.mu.Lock()
	for c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
}

// chain is target ← egress ← ingress on loopback TCP, the ingress gated
// by a token and a reservation, as a deployed relay is.
type chain struct {
	target  *echoTarget
	ing     *masque.Ingress
	eg      *masque.Egress
	ingAddr string
	egAddr  string
	token   string
	serving sync.WaitGroup
}

func startChain() (*chain, error) {
	target, err := startEchoTarget()
	if err != nil {
		return nil, err
	}
	egLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		target.close()
		return nil, err
	}
	inLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		egLn.Close()
		target.close()
		return nil, err
	}
	issuer := masque.NewTokenIssuer("bench-secret", 4)
	token, err := issuer.Issue("bench", "2022-05-11")
	if err != nil {
		inLn.Close()
		egLn.Close()
		target.close()
		return nil, err
	}
	c := &chain{
		target:  target,
		ingAddr: inLn.Addr().String(),
		egAddr:  egLn.Addr().String(),
		token:   token,
	}
	// One client at a time, so a few workers; the limits are generous
	// enough never to reject or pace, but every chunk is still charged
	// against the data cap and the bandwidth bucket.
	c.eg = &masque.Egress{
		ID:       masque.EgressIDForAddr(c.egAddr),
		Rotation: &masque.PerConnectionRotation{Pool: []netip.Addr{netip.MustParseAddr("172.224.224.1")}, Seed: 1},
		Workers:  8,
	}
	c.ing = &masque.Ingress{
		Validator: issuer,
		Workers:   8,
		Reservations: masque.NewReservations(masque.Limits{
			Duration:     24 * time.Hour,
			DataCap:      1 << 50,
			BandwidthBps: 1 << 40,
			MaxSessions:  64,
		}, nil),
	}
	c.serving.Add(2)
	go func() { defer c.serving.Done(); _ = c.eg.Serve(egLn) }()  // returns net.ErrClosed on close
	go func() { defer c.serving.Done(); _ = c.ing.Serve(inLn) }() // likewise
	return c, nil
}

func (c *chain) dial() (*masque.Client, error) {
	cl := &masque.Client{IngressAddr: c.ingAddr, EgressAddr: c.egAddr, Token: c.token, Geohash: "u281z"}
	if err := cl.Dial(); err != nil {
		return nil, err
	}
	return cl, nil
}

// checkRejects fails if the ingress issued any reservation rejection:
// the limits are sized so that none is due.
func (c *chain) checkRejects() error {
	if counts := c.ing.RejectCounts(); len(counts) != 0 {
		return fmt.Errorf("ingress rejected tunnels: %v", counts)
	}
	return nil
}

// close stops both servers, waits for their tunnels to drain and then
// stops the target. Clients must be closed first.
func (c *chain) close() error {
	err := errors.Join(c.ing.Close(), c.eg.Close())
	c.serving.Wait()
	c.target.close()
	return err
}

// tunnelSession is one stream through the chain; an op writes seeded
// payloads and compares what comes back. A tunnel_small op is a burst
// of round trips, not one: a single round trip is bimodal here (25th
// percentile 40 us, 75th 84 us, by whether the peer goroutine's thread
// had parked), so its median sits in the trough between the modes and
// jumps with the mix; a burst's time is their mean and moves smoothly.
// The single-round-trip percentiles are in the ledger (masque.rtt_*).
type tunnelSession struct {
	chain    *chain
	cl       *masque.Client
	st       *masque.Stream
	bulk     bool
	burst    int
	payloads [][]byte
	rbuf     []byte
	n        int
}

func openTunnel(bulk bool) func(context.Context, *runConfig) (session, error) {
	return func(_ context.Context, rc *runConfig) (session, error) {
		sz := rc.sizes
		c, err := startChain()
		if err != nil {
			return nil, err
		}
		t := &tunnelSession{chain: c, bulk: bulk, burst: sz.smallBurst}
		fail := func(err error) (session, error) {
			_ = t.close()
			return nil, err
		}
		// Session set-ups, one after another: what a relay does all day
		// before any byte flows, and where masque.dial_ms lands.
		for i := 0; i < sz.tunnelSessions; i++ {
			if err := dialOpenClose(c); err != nil {
				return fail(fmt.Errorf("session set-up %d: %w", i, err))
			}
		}
		if t.cl, err = c.dial(); err != nil {
			return fail(err)
		}
		if t.st, _, err = t.cl.Open(c.target.ln.Addr().String()); err != nil {
			return fail(err)
		}
		size, distinct, warmups := 64, 1024, sz.tunnelWarmups
		if bulk {
			size, distinct, warmups = sz.bulkBytes, 4, sz.bulkWarmups
		}
		rng := rand.New(rand.NewSource(int64(rc.seed)))
		for i := 0; i < distinct; i++ {
			p := make([]byte, size)
			rng.Read(p)
			t.payloads = append(t.payloads, p)
		}
		t.rbuf = make([]byte, size)
		for i := 0; i < warmups; i++ {
			if _, err := t.op(context.Background(), nil); err != nil {
				return fail(fmt.Errorf("warm-up %d: %w", i, err))
			}
		}
		return t, nil
	}
}

func dialOpenClose(c *chain) error {
	cl, err := c.dial()
	if err != nil {
		return err
	}
	st, _, err := cl.Open(c.target.ln.Addr().String())
	if err != nil {
		cl.Close()
		return err
	}
	return errors.Join(st.Close(), cl.Close())
}

func (t *tunnelSession) op(_ context.Context, tr *tracer) (opResult, error) {
	start := time.Now()
	err := tr.do("tunnel.op", func() error {
		if t.bulk {
			return t.echoBulk(tr, t.nextPayload())
		}
		for i := 0; i < t.burst; i++ {
			if err := t.echoSmall(tr, t.nextPayload()); err != nil {
				return err
			}
		}
		return nil
	})
	dur := time.Since(start)
	if err != nil {
		return opResult{}, err
	}
	// RejectCounts builds a map; looking once per op (and once more in
	// close) keeps the load generator out of the allocation figures.
	if err := t.chain.checkRejects(); err != nil {
		return opResult{}, err
	}
	work := float64(t.burst) // frames echoed
	if t.bulk {
		work = float64(len(t.rbuf)) / (1 << 20)
	}
	return opResult{dur: dur, work: work}, nil
}

func (t *tunnelSession) nextPayload() []byte {
	t.n++
	return t.payloads[t.n%len(t.payloads)]
}

var errEchoDiffers = errors.New("echoed bytes differ from the bytes sent")

func (t *tunnelSession) echoSmall(tr *tracer, payload []byte) error {
	if err := tr.do("tunnel.write", func() error { _, err := t.st.Write(payload); return err }); err != nil {
		return err
	}
	if err := tr.do("tunnel.read", func() error { _, err := io.ReadFull(t.st, t.rbuf); return err }); err != nil {
		return err
	}
	if !bytes.Equal(t.rbuf, payload) {
		return errEchoDiffers
	}
	return nil
}

// echoBulk writes the payload while a reader drains the echo: a 1 MiB
// write does not fit the tunnel's buffers, so reading after writing
// would deadlock.
func (t *tunnelSession) echoBulk(tr *tracer, payload []byte) error {
	readErr := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(t.st, t.rbuf)
		readErr <- err
	}()
	werr := tr.do("tunnel.write", func() error { _, err := t.st.Write(payload); return err })
	if werr != nil {
		t.cl.Close() // fails the stream, which unblocks the reader
	}
	if err := errors.Join(werr, <-readErr); err != nil {
		return err
	}
	if !bytes.Equal(t.rbuf, payload) {
		return errEchoDiffers
	}
	return nil
}

func (t *tunnelSession) close() error {
	var errs []error
	if t.st != nil {
		errs = append(errs, t.st.Close())
	}
	if t.cl != nil {
		errs = append(errs, t.cl.Close())
	}
	errs = append(errs, t.chain.checkRejects(), t.chain.close())
	return errors.Join(errs...)
}
