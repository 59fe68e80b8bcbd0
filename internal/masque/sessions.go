package masque

import (
	"net"

	"github.com/relay-networks/privaterelay/internal/sharded"
)

// tunnelSession is one proxied connection's egress-side state: a TCP
// target or a UDP association, never both.
type tunnelSession struct {
	target net.Conn
	assoc  *udpAssoc
}

// tunnelSessions is the per-tunnel session table at the egress. It
// folds the two loose (map[uint32]…, *sync.Mutex) pairs the old
// handleConnect/handleConnectUDP signatures threaded around into one
// typed table; tunnels carry few streams, so it uses a small shard
// count rather than the plane-wide default.
type tunnelSessions struct {
	t *sharded.Map[uint32, tunnelSession]
}

func newTunnelSessions() *tunnelSessions {
	return &tunnelSessions{t: sharded.New[uint32, tunnelSession](8, sharded.HashUint32)}
}

func (ts *tunnelSessions) putStream(id uint32, target net.Conn) {
	ts.t.Store(id, tunnelSession{target: target})
}

func (ts *tunnelSessions) putAssoc(id uint32, a *udpAssoc) {
	ts.t.Store(id, tunnelSession{assoc: a})
}

func (ts *tunnelSessions) stream(id uint32) net.Conn {
	s, _ := ts.t.Load(id)
	return s.target
}

func (ts *tunnelSessions) assoc(id uint32) *udpAssoc {
	s, _ := ts.t.Load(id)
	return s.assoc
}

// close tears down the session with the given ID, closing whichever
// leg it holds.
func (ts *tunnelSessions) close(id uint32) {
	s, ok := ts.t.Delete(id)
	if !ok {
		return
	}
	if s.target != nil {
		s.target.Close()
	}
	if s.assoc != nil {
		s.assoc.conn.Close()
	}
}

// closeAll tears down every session (tunnel teardown), closing a copy
// of the table taken under the shard locks.
func (ts *tunnelSessions) closeAll() {
	for _, s := range ts.t.Values() {
		if s.target != nil {
			s.target.Close()
		}
		if s.assoc != nil {
			s.assoc.conn.Close()
		}
	}
}

// demuxEntry is one client-side stream handle: a TCP stream or a UDP
// flow, never both.
type demuxEntry struct {
	s *Stream
	u *UDPFlow
}

// demuxTable is the client's frame demultiplexer state, replacing the
// two mutex-guarded maps the demux loop used to consult per frame.
type demuxTable struct {
	t *sharded.Map[uint32, demuxEntry]
}

func newDemuxTable() *demuxTable {
	return &demuxTable{t: sharded.New[uint32, demuxEntry](8, sharded.HashUint32)}
}

func (d *demuxTable) putStream(id uint32, s *Stream) { d.t.Store(id, demuxEntry{s: s}) }
func (d *demuxTable) putFlow(id uint32, u *UDPFlow)  { d.t.Store(id, demuxEntry{u: u}) }
func (d *demuxTable) lookup(id uint32) demuxEntry {
	e, _ := d.t.Load(id)
	return e
}
func (d *demuxTable) drop(id uint32) { d.t.Delete(id) }

// failAll fails every open stream and flow with err (tunnel teardown),
// working on a copy of the table taken under the shard locks.
func (d *demuxTable) failAll(err error) {
	for _, e := range d.t.Values() {
		if e.s != nil {
			e.s.fail(err)
		}
		if e.u != nil {
			e.u.fail(err)
		}
	}
	// Rebuilding the table is unnecessary: entries fail idempotently and
	// the owning client is already marked closed.
}
