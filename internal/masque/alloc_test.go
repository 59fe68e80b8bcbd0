//go:build !race

// Allocation-regression pins for the relay frame path. These run
// without the race detector (its instrumentation makes AllocsPerRun
// report noise); `make alloc` gives them their own non-race invocation.
package masque

import (
	"bytes"
	"io"
	"testing"
	"time"

	"github.com/relay-networks/privaterelay/internal/vclock"
)

// TestPlaneRelayZeroAlloc pins the steady-state frame path at zero
// allocations per relayed frame, with the full reservation machinery
// engaged: session lookup, expiry check, data-cap debit and GCRA
// bandwidth conformance.
func TestPlaneRelayZeroAlloc(t *testing.T) {
	rs := NewReservations(Limits{
		Duration:     time.Hour,
		DataCap:      1 << 40,
		BandwidthBps: 1 << 40,
		MaxSessions:  4,
	}, vclock.NewVirtualClock())
	p := NewPlane(PlaneConfig{Reservations: rs})
	defer p.Shutdown()

	s, code := p.Open("alloc-acct")
	if code != RejectNone {
		t.Fatalf("Open: %v", code)
	}
	defer p.Close(s)

	f := AcquireFrame()
	defer ReleaseFrame(f)
	f.Type = FrameData
	f.StreamID = s.ID()
	f.SetPayload(bytes.Repeat([]byte{0x5a}, 512))

	if code := p.Relay(f); code != RejectNone {
		t.Fatalf("warm-up Relay: %v", code)
	}
	bad := RejectNone
	allocs := testing.AllocsPerRun(1000, func() {
		if c := p.Relay(f); c != RejectNone {
			bad = c
		}
	})
	if bad != RejectNone {
		t.Fatalf("Relay rejected mid-measurement: %v", bad)
	}
	if allocs != 0 {
		t.Fatalf("Plane.Relay allocates %.1f allocs/op, want 0", allocs)
	}
	if got := p.Stats().FramesRelayed; got < 1001 {
		t.Fatalf("FramesRelayed = %d after 1001+ relays", got)
	}
}

// TestFrameCodecZeroAlloc pins the reusable encoder and reader — the
// two halves of the tunnel frame path — at zero allocations per frame
// once their buffers are warm.
func TestFrameCodecZeroAlloc(t *testing.T) {
	payload := bytes.Repeat([]byte{0xab}, 1024)
	out := &Frame{Type: FrameData, StreamID: 7, Payload: payload}

	var enc FrameEncoder
	enc.Reset(io.Discard)
	if err := enc.WriteFrame(out); err != nil { // warm the batch buffer
		t.Fatal(err)
	}
	var encErr error
	allocs := testing.AllocsPerRun(1000, func() {
		if err := enc.Append(out); err != nil {
			encErr = err
		}
		if err := enc.Flush(); err != nil {
			encErr = err
		}
	})
	if encErr != nil {
		t.Fatal(encErr)
	}
	if allocs != 0 {
		t.Fatalf("FrameEncoder allocates %.1f allocs/op, want 0", allocs)
	}

	var wire bytes.Buffer
	if err := WriteFrame(&wire, out); err != nil {
		t.Fatal(err)
	}
	data := wire.Bytes()
	rd := bytes.NewReader(data)
	fr := NewFrameReader(rd)
	in := AcquireFrame()
	defer ReleaseFrame(in)
	if err := fr.ReadInto(in); err != nil { // warm the payload storage
		t.Fatal(err)
	}
	var readErr error
	allocs = testing.AllocsPerRun(1000, func() {
		rd.Reset(data)
		if err := fr.ReadInto(in); err != nil {
			readErr = err
		}
	})
	if readErr != nil {
		t.Fatal(readErr)
	}
	if allocs != 0 {
		t.Fatalf("FrameReader.ReadInto allocates %.1f allocs/op, want 0", allocs)
	}
	if !bytes.Equal(in.Payload, payload) {
		t.Fatal("payload corrupted through codec round-trip")
	}
}

// TestStreamDeliverReadZeroAlloc pins the client's receive path: once a
// stream's buffer is warm, delivering a 16 KiB DATA payload and reading
// it back allocates nothing.
func TestStreamDeliverReadZeroAlloc(t *testing.T) {
	s := newStream(nil, 1)
	payload := bytes.Repeat([]byte{0x5a}, 16*1024)
	buf := make([]byte, len(payload))
	s.deliver(payload) // warm the receive buffer
	if _, err := s.Read(buf); err != nil {
		t.Fatal(err)
	}
	short := 0
	allocs := testing.AllocsPerRun(1000, func() {
		s.deliver(payload)
		if n, err := s.Read(buf); n != len(payload) || err != nil {
			short++
		}
	})
	if short != 0 {
		t.Fatalf("%d short or failed reads", short)
	}
	if allocs != 0 {
		t.Fatalf("deliver+Read allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestClientWriteDataZeroAlloc pins the client's send path: a 1 MiB
// Write, 64 DATA frames in 16 flushed bursts, allocates nothing once
// the encoder's buffer is warm.
func TestClientWriteDataZeroAlloc(t *testing.T) {
	c := connectedClient(&stubConn{okWrites: -1})
	p := bytes.Repeat([]byte{0xa5}, 1<<20)
	if _, err := c.writeData(1, p); err != nil { // warm the encoder
		t.Fatal(err)
	}
	var werr error
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.writeData(1, p); err != nil {
			werr = err
		}
	})
	if werr != nil {
		t.Fatal(werr)
	}
	if allocs != 0 {
		t.Fatalf("writeData allocates %.1f allocs/op, want 0", allocs)
	}
}
