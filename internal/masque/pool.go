package masque

import "sync"

// Frame pooling for the relay. The steady-state frame path — tunnel
// read, demux, egress pump — runs in pooled frames whose payload
// storage is retained across uses, so a frame costs zero allocations
// once the pools are warm.
//
// Ownership rules mirror dnswire's message pool (relaylint poolcheck
// enforces the same acquire/release discipline for both):
//
//   - A frame returned by AcquireFrame is owned by exactly one
//     goroutine at a time. Handing it over a channel transfers
//     ownership to the receiver.
//   - ReleaseFrame recycles only frames that came from AcquireFrame;
//     anything else — a stack-built &Frame{...}, a frame from
//     ReadFrame — is a safe no-op.
//   - After ReleaseFrame the frame must not be touched; its payload
//     storage will be rewritten by the next owner.

// maxPooledPayload caps the payload capacity a recycled frame keeps.
// Frames that ballooned toward maxFramePayload drop their storage on
// release so one hostile burst cannot pin megabytes in the pool.
const maxPooledPayload = 64 * 1024

var framePool = sync.Pool{New: func() any { return new(Frame) }}

// AcquireFrame returns a pooled frame. Its Type, StreamID and Payload
// are zero; payload storage from a previous life is retained and
// reused by SetPayload / FrameReader.ReadInto.
func AcquireFrame() *Frame {
	f := framePool.Get().(*Frame)
	f.pooled = true
	return f
}

// ReleaseFrame returns f to the pool if it came from AcquireFrame
// (otherwise it is a no-op, see the ownership rules above).
func ReleaseFrame(f *Frame) {
	if f == nil || !f.pooled {
		return
	}
	f.pooled = false
	buf := f.buf
	if cap(buf) > maxPooledPayload {
		buf = nil
	}
	*f = Frame{buf: buf}
	framePool.Put(f)
}

// grow readies n bytes of payload storage, reusing retained capacity,
// and points Payload at it.
func (f *Frame) grow(n int) []byte {
	if cap(f.buf) < n {
		f.buf = make([]byte, n)
	}
	f.buf = f.buf[:n]
	f.Payload = f.buf
	return f.buf
}

// SetPayload copies p into the frame's retained storage. Use it when
// filling a pooled frame from a caller-owned buffer that will be
// reused after the frame changes hands.
func (f *Frame) SetPayload(p []byte) {
	copy(f.grow(len(p)), p)
}

// copyBufPool recycles the 32 KiB scratch buffers the ingress pipe and
// egress pumps copy tunnel bytes through, so long-lived tunnels do not
// each hold a private buffer allocation.
var copyBufPool = sync.Pool{New: func() any {
	b := make([]byte, 32*1024)
	return &b
}}

func acquireCopyBuf() *[]byte  { return copyBufPool.Get().(*[]byte) }
func releaseCopyBuf(b *[]byte) { copyBufPool.Put(b) }
