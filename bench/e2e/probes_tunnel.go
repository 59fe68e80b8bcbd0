package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"time"

	"github.com/relay-networks/privaterelay/internal/masque"
)

// tunnel times the relay's parts beside the whole: session set-up, the
// round trip through the chain against a bare TCP echo on the same
// loopback, the frame codec, the in-process plane hop and admission,
// and the UDP proxy leg.
func (p *probes) tunnel(context.Context) error {
	iters := p.rc.sizes.ledgerIters
	c, err := startChain()
	if err != nil {
		return err
	}
	var cl *masque.Client
	defer func() {
		if cl != nil {
			cl.Close()
		}
		_ = c.close() // the probe's verdict is its metrics; a late close error adds nothing
	}()
	target := c.target.ln.Addr().String()

	if err := p.p50("masque.dial_ms", 1e3, 64, func(int) error {
		return p.tr.do("masque.dial", func() error {
			one, err := c.dial()
			if err != nil {
				return err
			}
			return one.Close()
		})
	}); err != nil {
		return err
	}

	if cl, err = c.dial(); err != nil {
		return err
	}
	if err := p.p50("masque.open_stream_ms", 1e3, 64, func(int) error {
		return p.tr.do("masque.open_stream", func() error {
			st, _, err := cl.Open(target)
			if err != nil {
				return err
			}
			return st.Close()
		})
	}); err != nil {
		return err
	}

	// Round trips: through the relay, then bare.
	st, _, err := cl.Open(target)
	if err != nil {
		return err
	}
	ping, pong := bytes.Repeat([]byte{0xA5}, 64), make([]byte, 64)
	rtts, err := eachIter(iters, func(int) error { return echoOnce(st, ping, pong) })
	if err != nil {
		return err
	}
	p.out.set("masque.rtt_p50_us", median(rtts)*1e6, len(rtts))
	p.out.set("masque.rtt_p99_us", percentile(rtts, 99)*1e6, len(rtts))

	raw, err := net.Dial("tcp", target)
	if err != nil {
		return err
	}
	defer raw.Close()
	if err := masque.WriteSourcePreamble(raw, netip.MustParseAddr("172.224.224.1")); err != nil {
		return err
	}
	if err := p.p50("masque.loopback_raw_rtt_us", 1e6, iters, func(int) error { return echoOnce(raw, ping, pong) }); err != nil {
		return err
	}

	// Bulk: seconds per MiB through the relay over seconds per MiB bare.
	mib, back := make([]byte, 1<<20), make([]byte, 1<<20)
	relayBulk, err := eachIter(32, func(int) error { return echoConcurrent(st, mib, back) })
	if err != nil {
		return err
	}
	rawBulk, err := eachIter(32, func(int) error { return echoConcurrent(raw, mib, back) })
	if err != nil {
		return err
	}
	p.out.set("masque.loopback_raw_mib_s", 1/median(rawBulk), len(rawBulk))
	p.out.set("masque.relay_over_raw_ratio", median(relayBulk)/median(rawBulk), len(relayBulk))
	if err := st.Close(); err != nil {
		return err
	}

	if err := p.udpLeg(cl); err != nil {
		return err
	}
	if err := c.checkRejects(); err != nil {
		return err
	}
	p.out.set("masque.rejects", 0, 1)
	return p.inProcess(iters)
}

func echoOnce(rw io.ReadWriter, ping, pong []byte) error {
	if _, err := rw.Write(ping); err != nil {
		return err
	}
	_, err := io.ReadFull(rw, pong)
	return err
}

// echoConcurrent writes out while reading the echo into back.
func echoConcurrent(rw io.ReadWriter, out, back []byte) error {
	readErr := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(rw, back)
		readErr <- err
	}()
	_, werr := rw.Write(out)
	if werr != nil {
		if c, ok := rw.(io.Closer); ok {
			c.Close() // unblocks the reader
		}
	}
	return errors.Join(werr, <-readErr)
}

// udpLeg times a datagram round trip over the tunnel's UDP proxy.
func (p *probes) udpLeg(cl *masque.Client) error {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 64*1024)
		for {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			_, payload, _ := masque.ParseDatagramPreamble(buf[:n])
			_, _ = pc.WriteTo(payload, from) // a lost echo shows as a Recv timeout
		}
	}()
	defer func() {
		pc.Close()
		wg.Wait()
	}()
	flow, _, err := cl.OpenUDP(pc.LocalAddr().String())
	if err != nil {
		return err
	}
	defer flow.Close()
	ping := bytes.Repeat([]byte{0x5A}, 64)
	return p.p50("masque.udp_rtt_p50_us", 1e6, 2000, func(int) error {
		if err := flow.Send(ping); err != nil {
			return err
		}
		_, err := flow.Recv(3 * time.Second)
		return err
	})
}

// inProcess times the pieces a tunnelled frame passes through, without
// sockets: the codec, the serving plane's hop and admission.
func (p *probes) inProcess(iters int) error {
	var wire bytes.Buffer
	enc := masque.NewFrameEncoder(&wire)
	dec := masque.NewFrameReader(&wire)
	out := masque.Frame{Type: masque.FrameData, StreamID: 1, Payload: bytes.Repeat([]byte{0xA5}, 64)}
	var in masque.Frame
	ns, _, err := perIter(iters, func(int) error {
		if err := enc.WriteFrame(&out); err != nil {
			return err
		}
		return dec.ReadInto(&in)
	})
	if err != nil {
		return err
	}
	p.out.set("masque.frame_codec_ns", ns, iters)

	rs := masque.NewReservations(masque.Limits{Duration: 24 * time.Hour, DataCap: 1 << 50, BandwidthBps: 1 << 40, MaxSessions: 64}, nil)
	ns, _, err = perIter(iters, func(int) error {
		r, code := rs.Admit("bench")
		if code != masque.RejectNone {
			return fmt.Errorf("admission rejected: %s", code)
		}
		rs.EndSession(r)
		return nil
	})
	if err != nil {
		return err
	}
	p.out.set("masque.admit_ns", ns, iters)

	plane := masque.NewPlane(masque.PlaneConfig{Reservations: rs})
	defer plane.Shutdown()
	sess, code := plane.Open("bench")
	if code != masque.RejectNone {
		return fmt.Errorf("plane rejected the session: %s", code)
	}
	defer plane.Close(sess)
	f := masque.AcquireFrame()
	defer masque.ReleaseFrame(f)
	f.Type, f.StreamID = masque.FrameData, sess.ID()
	f.SetPayload(out.Payload)
	ns, _, err = perIter(iters, func(int) error {
		if code := plane.Relay(f); code != masque.RejectNone {
			return fmt.Errorf("plane rejected a frame: %s", code)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out.set("masque.plane_relay_ns", ns, iters)
	return nil
}
