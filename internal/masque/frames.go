// Package masque implements the two-hop proxying protocol at the heart of
// iCloud Private Relay, modeled on the MASQUE CONNECT style (§2 of the
// paper): clients authenticate to an ingress relay, which blindly pipes an
// end-to-end encrypted tunnel to an egress relay; the egress unseals
// CONNECT requests, selects an egress address (rotating per connection
// attempt), and dials the target.
//
// The real service runs over HTTP/3 (QUIC) with an HTTP/2-over-TCP
// fallback. This implementation frames the same message flow over TCP —
// the architectural properties under study (two layers, operator
// separation, what each hop can see, per-connection egress rotation,
// stream multiplexing) all live above the transport.
//
// Visibility invariants enforced structurally:
//
//   - The ingress sees the client address and the egress address, but the
//     CONNECT payload naming the target is sealed with a key the ingress
//     does not hold — it forwards opaque bytes.
//   - The egress sees the target and the ingress address, never the
//     client address: no frame field carries it past the ingress.
package masque

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// FrameType enumerates protocol frames.
type FrameType uint8

// Frame types. FrameConnectUDP and FrameDatagram live in udp.go;
// FrameReserveOK (the admission grant) and FrameReject in
// reservations.go.
const (
	FrameAuth      FrameType = 1 // client → ingress: token + egress address
	FrameAuthErr   FrameType = 3 // ingress → client
	FrameConnect   FrameType = 4 // client → egress (sealed): target
	FrameConnectOK FrameType = 5 // egress → client: chosen egress address
	FrameConnectEr FrameType = 6 // egress → client: dial failure
	FrameData      FrameType = 7 // bidirectional stream data
	FrameClose     FrameType = 8 // stream close
)

// String names the frame type.
func (t FrameType) String() string {
	switch t {
	case FrameAuth:
		return "AUTH"
	case FrameAuthErr:
		return "AUTH_ERR"
	case FrameConnect:
		return "CONNECT"
	case FrameConnectOK:
		return "CONNECT_OK"
	case FrameConnectEr:
		return "CONNECT_ERR"
	case FrameData:
		return "DATA"
	case FrameClose:
		return "CLOSE"
	case FrameConnectUDP:
		return "CONNECT_UDP"
	case FrameDatagram:
		return "DATAGRAM"
	case FrameReserveOK:
		return "RESERVE_OK"
	case FrameReject:
		return "REJECT"
	default:
		return fmt.Sprintf("FRAME%d", uint8(t))
	}
}

// Frame is one protocol unit. StreamID multiplexes tunnel streams; frames
// before stream establishment use stream 0. On the in-process Plane
// StreamID carries the plane-wide session ID instead.
type Frame struct {
	Type     FrameType
	StreamID uint32
	Payload  []byte

	// buf is the retained payload storage of pooled/reused frames;
	// Payload aliases it after grow/SetPayload/ReadInto.
	buf []byte
	// pooled marks frames from AcquireFrame so ReleaseFrame never
	// recycles foreign frames (same provenance trick as dnswire).
	pooled bool
}

// maxFramePayload bounds frame sizes to keep a misbehaving peer from
// forcing unbounded allocations.
const maxFramePayload = 1 << 20

// frameHeaderLen is the fixed frame header: type(1) streamID(4) len(4).
const frameHeaderLen = 9

// ErrFrameTooLarge is returned for frames exceeding maxFramePayload.
var ErrFrameTooLarge = errors.New("masque: frame payload too large")

// WriteFrame serializes f to w: type(1) streamID(4) len(4) payload.
// It allocates per call; tunnel hot paths use a FrameEncoder instead.
func WriteFrame(w io.Writer, f *Frame) error {
	var e FrameEncoder
	e.Reset(w)
	if err := e.Append(f); err != nil {
		return err
	}
	return e.Flush()
}

// ReadFrame reads one freshly allocated frame from r. Tunnel hot paths
// use a FrameReader with a reused frame instead.
func ReadFrame(r io.Reader) (*Frame, error) {
	var fr FrameReader
	fr.Reset(r)
	f := &Frame{}
	if err := fr.ReadInto(f); err != nil {
		return nil, err
	}
	return f, nil
}

// FrameReader decodes frames from a stream with reusable header
// scratch. Paired with a reused (or pooled) Frame, the steady-state
// read path performs no allocations: the frame's payload storage grows
// once and is overwritten per frame.
type FrameReader struct {
	r   io.Reader
	hdr [frameHeaderLen]byte
}

// NewFrameReader returns a reader decoding from r (wrap the connection
// in a bufio.Reader first — the reader issues small header reads).
func NewFrameReader(r io.Reader) *FrameReader {
	fr := &FrameReader{}
	fr.Reset(r)
	return fr
}

// Reset points the reader at a new stream.
func (fr *FrameReader) Reset(r io.Reader) { fr.r = r }

// ReadInto decodes the next frame into f, reusing f's payload storage.
// On error f is left in an undefined state and must not be relayed.
func (fr *FrameReader) ReadInto(f *Frame) error {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return err
	}
	f.Type = FrameType(fr.hdr[0])
	f.StreamID = binary.BigEndian.Uint32(fr.hdr[1:5])
	n := binary.BigEndian.Uint32(fr.hdr[5:9])
	if n > maxFramePayload {
		return ErrFrameTooLarge
	}
	if n == 0 {
		f.Payload = nil
		return nil
	}
	buf := f.grow(int(n))
	_, err := io.ReadFull(fr.r, buf)
	return err
}

// maxEncoderRetain caps the batch buffer capacity an encoder keeps
// across flushes, mirroring maxPooledPayload for frames.
const maxEncoderRetain = 128 * 1024

// FrameEncoder serializes frames into one reusable buffer so a burst
// of frames — a chunked Stream.Write, an egress pump tick — reaches
// the connection in a single write instead of two writes per frame.
// Append batches; Flush hands the batch to the writer. The encoder is
// not safe for concurrent use; tunnel writers guard it with the
// tunnel's write mutex.
type FrameEncoder struct {
	w   io.Writer
	buf []byte
}

// NewFrameEncoder returns an encoder writing to w.
func NewFrameEncoder(w io.Writer) *FrameEncoder {
	e := &FrameEncoder{}
	e.Reset(w)
	return e
}

// Reset points the encoder at a new writer and drops any pending batch.
func (e *FrameEncoder) Reset(w io.Writer) {
	e.w = w
	e.buf = e.buf[:0]
}

// Append serializes f into the pending batch without writing.
func (e *FrameEncoder) Append(f *Frame) error {
	if len(f.Payload) > maxFramePayload {
		return ErrFrameTooLarge
	}
	e.buf = append(e.buf, byte(f.Type))
	e.buf = binary.BigEndian.AppendUint32(e.buf, f.StreamID)
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(f.Payload)))
	e.buf = append(e.buf, f.Payload...)
	return nil
}

// Buffered reports the pending batch size in bytes.
func (e *FrameEncoder) Buffered() int { return len(e.buf) }

// Flush writes the pending batch in one call and retains the buffer
// (up to maxEncoderRetain) for the next batch.
func (e *FrameEncoder) Flush() error {
	if len(e.buf) == 0 {
		return nil
	}
	_, err := e.w.Write(e.buf)
	if cap(e.buf) > maxEncoderRetain {
		e.buf = nil
	} else {
		e.buf = e.buf[:0]
	}
	return err
}

// WriteFrame appends f and flushes: the frame reaches the connection
// in one write. Use Append+Flush to batch several frames per write.
func (e *FrameEncoder) WriteFrame(f *Frame) error {
	if err := e.Append(f); err != nil {
		return err
	}
	return e.Flush()
}
