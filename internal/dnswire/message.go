package dnswire

import (
	"encoding/binary"
	"net/netip"

	"github.com/relay-networks/privaterelay/internal/iputil"
)

// Encode serializes the message, appending to buf (which may be nil).
// Names in questions and record owners are compressed; raw rdata is
// written as it is.
func (m *Message) Encode(buf []byte) ([]byte, error) {
	return m.encode(buf, make(map[string]int, 8))
}

// Encoder owns the scratch state for serializing messages — currently the
// name-compression map — so tight loops encode without a per-message map
// allocation. The zero value is ready to use. An Encoder is not safe for
// concurrent use; give each worker its own.
type Encoder struct {
	compress map[string]int
}

// Encode serializes m with name compression, appending to buf (which may
// be nil), reusing the encoder's compression map across calls.
func (e *Encoder) Encode(m *Message, buf []byte) ([]byte, error) {
	if e.compress == nil {
		e.compress = make(map[string]int, 8)
	} else {
		clear(e.compress)
	}
	return m.encode(buf, e.compress)
}

func (m *Message) encode(buf []byte, compress map[string]int) ([]byte, error) {
	base := len(buf)

	h := m.Header
	buf = binary.BigEndian.AppendUint16(buf, h.ID)
	var flags uint16
	if h.Response {
		flags |= 1 << 15
	}
	flags |= uint16(h.OpCode&0xF) << 11
	if h.Authoritative {
		flags |= 1 << 10
	}
	if h.Truncated {
		flags |= 1 << 9
	}
	if h.RecursionDesired {
		flags |= 1 << 8
	}
	if h.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(h.RCode & 0xF)
	buf = binary.BigEndian.AppendUint16(buf, flags)
	nAdd := len(m.Additionals)
	if m.Edns != nil {
		nAdd++
	}
	for _, n := range [...]int{len(m.Questions), len(m.Answers), len(m.Authorities), nAdd} {
		if n > 0xFFFF {
			return nil, ErrTooManyRecords
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(n))
	}

	var err error
	for _, q := range m.Questions {
		if buf, err = appendName(buf, q.Name, compress, base); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	}
	for _, sec := range [][]Record{m.Answers, m.Authorities, m.Additionals} {
		for i := range sec {
			if buf, err = appendRecord(buf, &sec[i], compress, base); err != nil {
				return nil, err
			}
		}
	}
	if m.Edns != nil {
		if buf, err = appendOPT(buf, m.Edns); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// appendRecord appends one resource record. Only its owner name is
// compressed.
func appendRecord(buf []byte, r *Record, compress map[string]int, base int) ([]byte, error) {
	var err error
	if buf, err = appendName(buf, r.Name, compress, base); err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(r.Type))
	buf = binary.BigEndian.AppendUint16(buf, uint16(r.Class))
	buf = binary.BigEndian.AppendUint32(buf, r.TTL)
	rdlenAt := len(buf)
	buf = append(buf, 0, 0)
	switch r.Type {
	case TypeA:
		if !r.Addr.Is4() {
			return nil, ErrBadRData
		}
		b := r.Addr.As4()
		buf = append(buf, b[:]...)
	case TypeAAAA:
		if !r.Addr.Is6() || r.Addr.Is4In6() {
			return nil, ErrBadRData
		}
		b := r.Addr.As16()
		buf = append(buf, b[:]...)
	default:
		if len(r.Data) > 0xFFFF {
			return nil, ErrBadRData
		}
		buf = append(buf, r.Data...)
	}
	binary.BigEndian.PutUint16(buf[rdlenAt:], uint16(len(buf)-rdlenAt-2))
	return buf, nil
}

// Decode parses a complete DNS message.
func Decode(msg []byte) (*Message, error) {
	m := new(Message)
	if err := DecodeInto(msg, m); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeInto parses a complete DNS message into m, reusing m's question
// and record slices (and its EDNS structs) from a previous decode so
// steady-state decode loops stop allocating per message. Answers always
// decode into the message-owned storage (see GrowAnswers) — which a
// pooled message brings along from its previous life — never into a
// slice a caller assigned to m.Answers. On error m's contents are
// undefined. Like Decode, it never retains references into msg: the OPT
// record is parsed in place, and every record kept gets its own copy of
// its raw rdata.
func DecodeInto(msg []byte, m *Message) error {
	if len(msg) < 12 {
		return ErrTruncatedMessage
	}
	edns := m.Edns // scratch from a previous decode, if any
	*m = Message{
		pooled:      m.pooled,
		stripe:      m.stripe,
		Questions:   m.Questions[:0],
		Authorities: m.Authorities[:0],
		Additionals: m.Additionals[:0],
		answerBuf:   m.answerBuf[:0],
	}
	m.Header.ID = binary.BigEndian.Uint16(msg[0:2])
	flags := binary.BigEndian.Uint16(msg[2:4])
	m.Header.Response = flags&(1<<15) != 0
	m.Header.OpCode = OpCode(flags >> 11 & 0xF)
	m.Header.Authoritative = flags&(1<<10) != 0
	m.Header.Truncated = flags&(1<<9) != 0
	m.Header.RecursionDesired = flags&(1<<8) != 0
	m.Header.RecursionAvailable = flags&(1<<7) != 0
	m.Header.RCode = RCode(flags & 0xF)

	qd := int(binary.BigEndian.Uint16(msg[4:6]))
	an := int(binary.BigEndian.Uint16(msg[6:8]))
	ns := int(binary.BigEndian.Uint16(msg[8:10]))
	ar := int(binary.BigEndian.Uint16(msg[10:12]))

	// One per-message name memo, living on this frame: every repeated
	// (compression-pointed) name after the first decode is a cache hit,
	// and uncached names assemble in the memo's scratch instead of a
	// strings.Builder — the decode loop's remaining allocations are one
	// string per *distinct* name plus the record slices' steady state.
	var names nameCache

	off := 12
	var err error
	for i := 0; i < qd; i++ {
		var q Question
		q.Name, off, err = decodeNameCached(msg, off, &names)
		if err != nil {
			return err
		}
		if off+4 > len(msg) {
			return ErrTruncatedMessage
		}
		q.Type = Type(binary.BigEndian.Uint16(msg[off:]))
		q.Class = Class(binary.BigEndian.Uint16(msg[off+2:]))
		off += 4
		m.Questions = append(m.Questions, q)
	}
	for si := 0; si < 3; si++ {
		var n int
		var dest *[]Record
		switch si {
		case 0:
			n, dest = an, &m.answerBuf
		case 1:
			n, dest = ns, &m.Authorities
		default:
			n, dest = ar, &m.Additionals
		}
		for i := 0; i < n; i++ {
			var r Record
			r, off, err = decodeRecord(msg, off, &names)
			if err != nil {
				return err
			}
			if si == 2 && r.Type == TypeOPT {
				if edns == nil {
					edns = new(EDNS)
				}
				if err := decodeOPTInto(&r, edns); err != nil {
					return err
				}
				// Merge the extended rcode bits into the header rcode.
				m.Header.RCode |= RCode(edns.ExtendedRCode) << 4
				m.Edns = edns
				continue
			}
			r.Data = append([]byte(nil), r.Data...)
			*dest = append(*dest, r)
		}
	}
	m.Answers = m.answerBuf
	return nil
}

// decodeRecord parses one RR starting at off, returning it and the offset
// just past it. A non-address record's Data aliases msg; the caller
// copies it if it keeps the record.
func decodeRecord(msg []byte, off int, names *nameCache) (Record, int, error) {
	var r Record
	var err error
	r.Name, off, err = decodeNameCached(msg, off, names)
	if err != nil {
		return r, 0, err
	}
	if off+10 > len(msg) {
		return r, 0, ErrTruncatedMessage
	}
	r.Type = Type(binary.BigEndian.Uint16(msg[off:]))
	r.Class = Class(binary.BigEndian.Uint16(msg[off+2:]))
	r.TTL = binary.BigEndian.Uint32(msg[off+4:])
	rdlen := int(binary.BigEndian.Uint16(msg[off+8:]))
	off += 10
	if off+rdlen > len(msg) {
		return r, 0, ErrTruncatedMessage
	}
	rdata := msg[off : off+rdlen]
	switch r.Type {
	case TypeA:
		if rdlen != 4 {
			return r, 0, ErrBadRData
		}
		r.Addr = netip.AddrFrom4([4]byte(rdata))
	case TypeAAAA:
		if rdlen != 16 {
			return r, 0, ErrBadRData
		}
		r.Addr = netip.AddrFrom16([16]byte(rdata))
	default:
		r.Data = rdata
	}
	return r, off + rdlen, nil
}

// NewQuery builds a standard recursive query for (name, type) with a fresh
// random-ish ID derived from the name. Callers that need a specific ID can
// overwrite Header.ID.
func NewQuery(id uint16, name string, qtype Type) *Message {
	return &Message{
		Header: Header{
			ID:               id,
			OpCode:           OpCodeQuery,
			RecursionDesired: true,
		},
		Questions: []Question{{Name: CanonicalName(name), Type: qtype, Class: ClassIN}},
	}
}

// WithECS attaches an EDNS0 Client Subnet option for subnet to the query
// and returns it for chaining.
func (m *Message) WithECS(subnet netip.Prefix) *Message {
	m.SetECS(subnet)
	return m
}

// SetECS sets the EDNS0 Client Subnet option for subnet, rewriting the
// message's existing EDNS/ClientSubnet structs in place when present.
// Scan workers reuse one query message across millions of subnets by
// mutating only the prefix (and Header.ID) per query, so the steady
// state allocates nothing.
func (m *Message) SetECS(subnet netip.Prefix) {
	if m.Edns == nil {
		m.Edns = &EDNS{UDPSize: 1232}
	}
	cs := m.Edns.ClientSubnet
	if cs == nil {
		cs = new(ClientSubnet)
		m.Edns.ClientSubnet = cs
	}
	subnet = iputil.CanonicalPrefix(subnet)
	cs.SourcePrefixLen = uint8(subnet.Bits())
	cs.ScopePrefixLen = 0
	cs.Addr = subnet.Addr()
}
