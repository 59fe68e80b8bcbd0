package masque

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// connectedClient returns a Client whose tunnel is conn, as if Dial had
// completed, without the ingress handshake or a demux loop.
func connectedClient(conn net.Conn) *Client {
	c := &Client{conn: conn, nextID: 1, demux: newDemuxTable()}
	c.enc.Reset(conn)
	return c
}

// seeded returns n reproducible pseudo-random bytes.
func seeded(seed int64, n int) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// stubConn is a tunnel conn whose first okWrites writes succeed and are
// discarded; every later write fails. okWrites < 0 never fails.
type stubConn struct {
	net.Conn
	okWrites int
	writes   int
}

var errStubConn = errors.New("stub conn: write failed")

func (c *stubConn) Write(p []byte) (int, error) {
	if c.okWrites >= 0 && c.writes >= c.okWrites {
		return 0, errStubConn
	}
	c.writes++
	return len(p), nil
}

// TestClientWriteFramesNeverInterleave races two streams' multi-burst
// Writes on one tunnel. The peer must decode whole DATA frames only,
// each stream's bytes in order, and each Write's frames as one
// contiguous run: a Write keeps the tunnel across all of its flushes.
func TestClientWriteFramesNeverInterleave(t *testing.T) {
	local, peer := net.Pipe()
	defer peer.Close()
	c := connectedClient(local)
	const size = 1<<20 + 12345 // not a whole number of chunks or bursts
	want := map[uint32][]byte{1: seeded(1, size), 2: seeded(2, size)}

	type result struct {
		got  map[uint32][]byte
		runs []uint32 // the stream of each run of consecutive frames
		err  error
	}
	done := make(chan result, 1)
	go func() {
		r := result{got: map[uint32][]byte{}}
		fr := NewFrameReader(bufio.NewReader(peer))
		var f Frame
		for {
			if err := fr.ReadInto(&f); err != nil {
				if err != io.EOF { // io.ErrUnexpectedEOF: a torn frame
					r.err = err
				}
				done <- r
				return
			}
			if f.Type != FrameData || want[f.StreamID] == nil || len(f.Payload) == 0 || len(f.Payload) > dataChunk {
				r.err = fmt.Errorf("unexpected frame: %v on stream %d with %d bytes", f.Type, f.StreamID, len(f.Payload))
				done <- r
				return
			}
			if len(r.runs) == 0 || r.runs[len(r.runs)-1] != f.StreamID {
				r.runs = append(r.runs, f.StreamID)
			}
			r.got[f.StreamID] = append(r.got[f.StreamID], f.Payload...)
		}
	}()

	var wg sync.WaitGroup
	for _, id := range []uint32{1, 2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n, err := newStream(c, id).Write(want[id]); n != size || err != nil {
				t.Errorf("stream %d: Write = %d, %v; want %d, nil", id, n, err, size)
			}
		}()
	}
	wg.Wait()
	local.Close()
	r := <-done
	if r.err != nil {
		t.Fatalf("peer decode: %v", r.err)
	}
	if len(r.runs) != 2 {
		t.Fatalf("two Writes reached the wire as %d runs of frames %v, want 2", len(r.runs), r.runs)
	}
	for _, id := range []uint32{1, 2} {
		if !bytes.Equal(r.got[id], want[id]) {
			t.Fatalf("stream %d: peer got %d bytes, not the %d written", id, len(r.got[id]), size)
		}
	}
}

// TestClientWriteFailureIsFrameAligned breaks the tunnel after the
// first flush: Write reports exactly the first burst's payload bytes
// as written, with the conn's error.
func TestClientWriteFailureIsFrameAligned(t *testing.T) {
	c := connectedClient(&stubConn{okWrites: 1})
	n, err := c.writeData(1, seeded(3, 1<<20))
	if !errors.Is(err, errStubConn) {
		t.Fatalf("Write error = %v, want %v", err, errStubConn)
	}
	if n != burstChunks*dataChunk {
		t.Fatalf("Write = %d bytes after one flushed burst, want %d", n, burstChunks*dataChunk)
	}
}

// readAll reads s to its end in small reads and returns the bytes and
// the error that ended them.
func readAll(s *Stream, chunk int) ([]byte, error) {
	var got []byte
	buf := make([]byte, chunk)
	for {
		n, err := s.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			return got, err
		}
	}
}

// unread is the number of delivered bytes Read has not returned yet.
func (s *Stream) unread() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.rbuf) - s.roff
}

// TestStreamRecvBufferBoundedBySlowReader feeds frames faster than a
// reader drains them: the buffer fills to its bound, never holds more
// than the bound plus one frame, and hands over every byte in order.
func TestStreamRecvBufferBoundedBySlowReader(t *testing.T) {
	s := newStream(nil, 1)
	const frame = 24*1024 + 7 // the bound is not a whole number of frames
	payload := seeded(4, 40*frame)
	go func() {
		for off := 0; off < len(payload); off += frame {
			s.deliver(payload[off:min(len(payload), off+frame)])
		}
		s.closeRead()
	}()
	for s.unread() < streamRecvBound {
		runtime.Gosched()
	}

	var got []byte
	buf := make([]byte, 4096)
	peak := 0
	for {
		peak = max(peak, s.unread())
		n, err := s.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if peak > streamRecvBound+frame {
		t.Fatalf("%d bytes buffered, over the bound %d plus one %d-byte frame", peak, streamRecvBound, frame)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read %d bytes, not the %d delivered", len(got), len(payload))
	}
}

// TestStreamBytesBeforeEndAreRead delivers frames and then ends the
// stream: every delivered byte is read before io.EOF (CLOSE) or the
// tunnel's error (failure), and data after the end is dropped.
func TestStreamBytesBeforeEndAreRead(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(*Stream)
		want error
	}{
		{"close", (*Stream).closeRead, io.EOF},
		{"fail", func(s *Stream) { s.fail(ErrTunnelClosed) }, ErrTunnelClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStream(nil, 1)
			parts := [][]byte{seeded(5, 1000), seeded(6, 40000), seeded(7, 1)}
			for _, p := range parts {
				s.deliver(p)
			}
			tc.end(s)
			s.deliver([]byte("after the end"))
			got, err := readAll(s, 777)
			if !errors.Is(err, tc.want) {
				t.Fatalf("stream ended with %v, want %v", err, tc.want)
			}
			if want := bytes.Join(parts, nil); !bytes.Equal(got, want) {
				t.Fatalf("read %d bytes before the end, want the %d delivered", len(got), len(want))
			}
			if n, err := s.Read(make([]byte, 8)); n != 0 || !errors.Is(err, tc.want) {
				t.Fatalf("Read after the end = %d, %v; want 0, %v", n, err, tc.want)
			}
		})
	}
}

// waitClosed fails t unless ch is closed within a few seconds.
func waitClosed(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	select {
	case <-ch:
	case <-ctx.Done():
		t.Fatalf("%s: still blocked after the stream ended", what)
	}
}

// TestStreamEndWakesBlockedDeliver parks a deliver on a full buffer and
// ends the stream: closeRead, and the tunnel teardown's failAll, must
// both release it.
func TestStreamEndWakesBlockedDeliver(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(*demuxTable, *Stream)
	}{
		{"closeRead", func(_ *demuxTable, s *Stream) { s.closeRead() }},
		{"failAll", func(d *demuxTable, _ *Stream) { d.failAll(ErrTunnelClosed) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newDemuxTable()
			s := newStream(nil, 1)
			d.putStream(1, s)
			s.deliver(make([]byte, streamRecvBound))
			delivered := make(chan struct{})
			go func() {
				s.deliver([]byte("one frame over the bound"))
				close(delivered)
			}()
			for i := 0; i < 100; i++ {
				runtime.Gosched()
			}
			select {
			case <-delivered:
				t.Fatal("deliver returned while the buffer was full")
			default:
			}
			tc.end(d, s)
			waitClosed(t, delivered, "deliver")
			if got, _ := readAll(s, 4096); len(got) != streamRecvBound {
				t.Fatalf("read %d bytes, want the %d delivered before the end", len(got), streamRecvBound)
			}
		})
	}
}

// TestClientCloseWakesBlockedDemux fills a stream nobody reads until
// the demux loop blocks delivering to it; Client.Close must free the
// loop, which then exits.
func TestClientCloseWakesBlockedDemux(t *testing.T) {
	local, peer := net.Pipe()
	defer peer.Close()
	c := connectedClient(local)
	s := newStream(c, 1)
	c.demux.putStream(1, s)
	exited := make(chan struct{})
	go func() {
		c.run(bufio.NewReader(local), c.demux)
		close(exited)
	}()
	// The loop takes the second frame off the pipe, then blocks in
	// deliver: the first already filled the buffer to its bound.
	for i := 0; i < 2; i++ {
		if err := WriteFrame(peer, &Frame{Type: FrameData, StreamID: 1, Payload: make([]byte, streamRecvBound)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, exited, "demux loop")
	if _, err := readAll(s, 4096); !errors.Is(err, ErrTunnelClosed) {
		t.Fatalf("stream ended with %v, want %v", err, ErrTunnelClosed)
	}
}
