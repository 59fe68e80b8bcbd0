package masque

import (
	"sync/atomic"

	"github.com/relay-networks/privaterelay/internal/sharded"
)

// The in-process hop. The socket Ingress → Egress pair is the relay's
// only data path (§2's two hops, sealed CONNECTs, rotation). The Plane
// is that path's admission and per-frame charge with the transport
// removed: sessions are entries in a sharded table, each holding a
// reservation from the same registry type the ingress admits through,
// and Relay runs the ingress→egress hop for one frame synchronously.
// It is the 0 allocs/op path the alloc-regression test pins, and the
// one the benchmark times as the relay's per-frame cost without
// sockets in the way.

// PlaneConfig configures a plane.
type PlaneConfig struct {
	// Reservations is the admission registry; nil admits every account
	// under one unlimited registry, as an Ingress without one does.
	Reservations *Reservations
}

// PlaneSession is one session on the plane: an entry in the sharded
// session table plus its reservation handle.
type PlaneSession struct {
	id  uint32
	res *Reservation
}

// ID returns the plane-wide session ID (carried in Frame.StreamID).
func (s *PlaneSession) ID() uint32 { return s.id }

// PlaneStats is a point-in-time snapshot of plane counters.
type PlaneStats struct {
	Sessions      int
	FramesRelayed int64
	BytesRelayed  int64
	// Rejected counts frame- and admission-path rejections by code.
	Rejected map[RejectCode]int64
}

// rejectCodeCount sizes the per-code counter array; codes are dense
// starting at RejectNone.
const rejectCodeCount = int(RejectDraining) + 1

// Plane is the in-process relay hop. Build with NewPlane.
type Plane struct {
	rs       *Reservations
	sessions *sharded.Map[uint32, *PlaneSession]
	nextID   atomic.Uint32

	frames   atomic.Int64
	bytes    atomic.Int64
	rejected [rejectCodeCount]atomic.Int64
	closed   atomic.Bool
}

// NewPlane builds a plane.
func NewPlane(cfg PlaneConfig) *Plane {
	rs := cfg.Reservations
	if rs == nil {
		rs = NewReservations(Limits{}, nil)
	}
	return &Plane{rs: rs, sessions: sharded.New[uint32, *PlaneSession](0, sharded.HashUint32)}
}

// Open admits a session for account. On RejectNone the session is live
// in the table and must be balanced by Close. Any other code is a
// typed admission denial (and counted in the stats).
func (p *Plane) Open(account string) (*PlaneSession, RejectCode) {
	if p.closed.Load() {
		p.countReject(RejectDraining)
		return nil, RejectDraining
	}
	res, code := p.rs.Admit(account)
	if code != RejectNone {
		p.countReject(code)
		return nil, code
	}
	s := &PlaneSession{id: p.nextID.Add(1), res: res}
	p.sessions.Store(s.id, s)
	return s, RejectNone
}

// Close ends a session, removing it from the table and returning its
// reservation slot.
func (p *Plane) Close(s *PlaneSession) {
	if s == nil {
		return
	}
	p.sessions.Delete(s.id)
	p.rs.EndSession(s.res)
}

// Relay performs the ingress→egress hop for f synchronously: session
// lookup, the reservation's expiry and data-cap charge, then bandwidth
// conformance — rejected here, where the socket ingress paces instead.
// The caller keeps ownership of f. This is the steady-state frame path
// and performs zero allocations.
func (p *Plane) Relay(f *Frame) RejectCode {
	code := p.charge(f)
	if code != RejectNone {
		p.countReject(code)
		return code
	}
	p.frames.Add(1)
	p.bytes.Add(int64(len(f.Payload)))
	return RejectNone
}

// charge validates f against its session's reservation.
func (p *Plane) charge(f *Frame) RejectCode {
	s, ok := p.sessions.Load(f.StreamID)
	if !ok {
		return RejectNoReservation
	}
	n := int64(len(f.Payload))
	if code := s.res.debit(n, p.rs); code != RejectNone {
		return code
	}
	if s.res.limits.BandwidthBps > 0 {
		return s.res.AllowBandwidth(n, p.rs.NowNS())
	}
	return RejectNone
}

func (p *Plane) countReject(code RejectCode) {
	if int(code) < rejectCodeCount {
		p.rejected[code].Add(1)
	}
}

// Drain stops admitting sessions (typed RejectDraining) while live
// sessions keep relaying.
func (p *Plane) Drain() { p.rs.Drain() }

// Resume re-opens admission after Drain.
func (p *Plane) Resume() { p.rs.Resume() }

// Reload atomically replaces the reservation policy for future
// admissions.
func (p *Plane) Reload(limits Limits) { p.rs.Reload(limits) }

// Shutdown closes the plane: later Opens fail with RejectDraining.
// Live sessions keep relaying until their owners Close them.
func (p *Plane) Shutdown() { p.closed.Store(true) }

// Stats snapshots the plane counters.
func (p *Plane) Stats() PlaneStats {
	st := PlaneStats{
		Sessions:      p.sessions.Len(),
		FramesRelayed: p.frames.Load(),
		BytesRelayed:  p.bytes.Load(),
		Rejected:      make(map[RejectCode]int64),
	}
	for c := 0; c < rejectCodeCount; c++ {
		if n := p.rejected[c].Load(); n > 0 {
			st.Rejected[RejectCode(c)] = n
		}
	}
	return st
}
