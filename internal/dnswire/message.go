package dnswire

import (
	"encoding/binary"
	"net/netip"

	"github.com/relay-networks/privaterelay/internal/iputil"
)

// Encode serializes the message, appending to buf (which may be nil).
// Names in questions and record owners are compressed; rdata names are
// compressed where RFC 1035 permits (NS, CNAME, PTR, SOA).
func (m *Message) Encode(buf []byte) ([]byte, error) {
	return m.encode(buf, make(map[string]int, 8))
}

// EncodeUncompressed serializes the message without name compression —
// kept for the compression ablation benchmark and interop testing.
func (m *Message) EncodeUncompressed(buf []byte) ([]byte, error) {
	return m.encode(buf, nil)
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
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Questions)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Answers)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Authorities)))
	nAdd := len(m.Additionals)
	if m.Edns != nil {
		nAdd++
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(nAdd))

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

// appendRecord appends one resource record.
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
		if !r.A.Is4() {
			return nil, ErrBadRData
		}
		b := r.A.As4()
		buf = append(buf, b[:]...)
	case TypeAAAA:
		if !r.AAAA.Is6() || r.AAAA.Is4In6() {
			return nil, ErrBadRData
		}
		b := r.AAAA.As16()
		buf = append(buf, b[:]...)
	case TypeNS:
		if buf, err = appendName(buf, r.NS, compress, base); err != nil {
			return nil, err
		}
	case TypeCNAME:
		if buf, err = appendName(buf, r.CNAME, compress, base); err != nil {
			return nil, err
		}
	case TypePTR:
		if buf, err = appendName(buf, r.PTR, compress, base); err != nil {
			return nil, err
		}
	case TypeTXT:
		for _, s := range r.TXT {
			if len(s) > 255 {
				return nil, ErrBadRData
			}
			buf = append(buf, byte(len(s)))
			buf = append(buf, s...)
		}
	case TypeSOA:
		if r.SOA == nil {
			return nil, ErrBadRData
		}
		if buf, err = appendName(buf, r.SOA.MName, compress, base); err != nil {
			return nil, err
		}
		if buf, err = appendName(buf, r.SOA.RName, compress, base); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint32(buf, r.SOA.Serial)
		buf = binary.BigEndian.AppendUint32(buf, r.SOA.Refresh)
		buf = binary.BigEndian.AppendUint32(buf, r.SOA.Retry)
		buf = binary.BigEndian.AppendUint32(buf, r.SOA.Expire)
		buf = binary.BigEndian.AppendUint32(buf, r.SOA.Minimum)
	default:
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
// undefined. Like Decode, it never retains references into msg.
func DecodeInto(msg []byte, m *Message) error {
	if len(msg) < 12 {
		return ErrTruncatedMessage
	}
	edns := m.Edns // scratch from a previous decode, if any
	*m = Message{
		pooled:      m.pooled,
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
			*dest = append(*dest, r)
		}
	}
	m.Answers = m.answerBuf
	return nil
}

// decodeRecord parses one RR starting at off, returning it and the offset
// just past it.
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
		var b [4]byte
		copy(b[:], rdata)
		r.A = netip.AddrFrom4(b)
	case TypeAAAA:
		if rdlen != 16 {
			return r, 0, ErrBadRData
		}
		var b [16]byte
		copy(b[:], rdata)
		r.AAAA = netip.AddrFrom16(b)
	case TypeNS:
		if r.NS, _, err = decodeNameCached(msg, off, names); err != nil {
			return r, 0, err
		}
	case TypeCNAME:
		if r.CNAME, _, err = decodeNameCached(msg, off, names); err != nil {
			return r, 0, err
		}
	case TypePTR:
		if r.PTR, _, err = decodeNameCached(msg, off, names); err != nil {
			return r, 0, err
		}
	case TypeTXT:
		for p := 0; p < rdlen; {
			l := int(rdata[p])
			if p+1+l > rdlen {
				return r, 0, ErrBadRData
			}
			r.TXT = append(r.TXT, string(rdata[p+1:p+1+l]))
			p += 1 + l
		}
	case TypeSOA:
		soa := &SOAData{}
		p := off
		if soa.MName, p, err = decodeNameCached(msg, p, names); err != nil {
			return r, 0, err
		}
		if soa.RName, p, err = decodeNameCached(msg, p, names); err != nil {
			return r, 0, err
		}
		if p+20 > off+rdlen {
			return r, 0, ErrBadRData
		}
		soa.Serial = binary.BigEndian.Uint32(msg[p:])
		soa.Refresh = binary.BigEndian.Uint32(msg[p+4:])
		soa.Retry = binary.BigEndian.Uint32(msg[p+8:])
		soa.Expire = binary.BigEndian.Uint32(msg[p+12:])
		soa.Minimum = binary.BigEndian.Uint32(msg[p+16:])
		r.SOA = soa
	default:
		r.Data = append([]byte(nil), rdata...)
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
