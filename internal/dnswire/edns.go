package dnswire

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"github.com/relay-networks/privaterelay/internal/iputil"
)

// EDNS option codes.
const (
	OptionClientSubnet uint16 = 8 // RFC 7871
)

// Address families used inside the ECS option (RFC 7871 §6, per the
// IANA Address Family Numbers registry).
const (
	ecsFamilyIPv4 uint16 = 1
	ecsFamilyIPv6 uint16 = 2
)

// EDNS carries the decoded OPT pseudo-record (RFC 6891).
type EDNS struct {
	UDPSize       uint16
	ExtendedRCode uint8 // high 8 bits of the 12-bit rcode
	Version       uint8
	DNSSECOK      bool
	ClientSubnet  *ClientSubnet
	// UnknownOptions preserves options the toolkit does not interpret,
	// as (code, data) pairs in arrival order.
	UnknownOptions []RawOption
}

// RawOption is an uninterpreted EDNS0 option.
type RawOption struct {
	Code uint16
	Data []byte
}

// ClientSubnet is the RFC 7871 EDNS0 Client Subnet option. In queries,
// SourcePrefixLen states how many bits of Addr are meaningful and
// ScopePrefixLen must be zero. In responses, ScopePrefixLen states for how
// large a prefix the answer is valid — the scan uses it to skip redundant
// queries (§7 of the paper).
type ClientSubnet struct {
	SourcePrefixLen uint8
	ScopePrefixLen  uint8
	Addr            netip.Addr
}

// Prefix returns the client subnet as a prefix of SourcePrefixLen bits.
func (cs *ClientSubnet) Prefix() netip.Prefix {
	return netip.PrefixFrom(iputil.Canonical(cs.Addr), int(cs.SourcePrefixLen)).Masked()
}

// ScopePrefix returns the prefix for which the carrying response is valid.
// Per RFC 7871 a scope of zero means "valid for all client subnets".
func (cs *ClientSubnet) ScopePrefix() netip.Prefix {
	return netip.PrefixFrom(iputil.Canonical(cs.Addr), int(cs.ScopePrefixLen)).Masked()
}

// String renders the option in dig-like "subnet/source/scope" form.
func (cs *ClientSubnet) String() string {
	return fmt.Sprintf("%s/%d/%d", iputil.Canonical(cs.Addr), cs.SourcePrefixLen, cs.ScopePrefixLen)
}

// appendECS appends the wire form of the option (without the option
// code/length preamble) to buf.
func appendECS(buf []byte, cs *ClientSubnet) ([]byte, error) {
	addr := iputil.Canonical(cs.Addr)
	family := ecsFamilyIPv4
	addrLen := 4
	if addr.Is6() {
		family = ecsFamilyIPv6
		addrLen = 16
	}
	maxBits := addrLen * 8
	if int(cs.SourcePrefixLen) > maxBits || int(cs.ScopePrefixLen) > maxBits {
		return nil, ErrBadOption
	}
	buf = binary.BigEndian.AppendUint16(buf, family)
	buf = append(buf, cs.SourcePrefixLen, cs.ScopePrefixLen)
	// RFC 7871: address is truncated to the minimum octets covering
	// SourcePrefixLen bits, with trailing bits zeroed.
	nOctets := (int(cs.SourcePrefixLen) + 7) / 8
	masked := netip.PrefixFrom(addr, int(cs.SourcePrefixLen)).Masked().Addr()
	if addr.Is4() {
		b := masked.As4()
		buf = append(buf, b[:nOctets]...)
	} else {
		b := masked.As16()
		buf = append(buf, b[:nOctets]...)
	}
	return buf, nil
}

// decodeECSInto decodes an ECS option body into cs, overwriting it.
func decodeECSInto(data []byte, cs *ClientSubnet) error {
	if len(data) < 4 {
		return ErrBadOption
	}
	family := binary.BigEndian.Uint16(data[:2])
	source := data[2]
	scope := data[3]
	addrBytes := data[4:]
	nOctets := (int(source) + 7) / 8
	if len(addrBytes) != nOctets {
		return ErrBadOption
	}
	var addr netip.Addr
	switch family {
	case ecsFamilyIPv4:
		if source > 32 || scope > 32 {
			return ErrBadOption
		}
		var b [4]byte
		copy(b[:], addrBytes)
		addr = netip.AddrFrom4(b)
	case ecsFamilyIPv6:
		if source > 128 || scope > 128 {
			return ErrBadOption
		}
		var b [16]byte
		copy(b[:], addrBytes)
		addr = netip.AddrFrom16(b)
	default:
		return ErrBadOption
	}
	*cs = ClientSubnet{SourcePrefixLen: source, ScopePrefixLen: scope, Addr: addr}
	return nil
}

// appendOPT appends the full OPT pseudo-RR for e to buf.
func appendOPT(buf []byte, e *EDNS) ([]byte, error) {
	buf = append(buf, 0) // root name
	buf = binary.BigEndian.AppendUint16(buf, uint16(TypeOPT))
	size := e.UDPSize
	if size == 0 {
		size = 1232 // widely deployed EDNS buffer default
	}
	buf = binary.BigEndian.AppendUint16(buf, size) // class = requestor UDP size
	ttl := uint32(e.ExtendedRCode)<<24 | uint32(e.Version)<<16
	if e.DNSSECOK {
		ttl |= 1 << 15
	}
	buf = binary.BigEndian.AppendUint32(buf, ttl)
	rdlenAt := len(buf)
	buf = append(buf, 0, 0)
	if e.ClientSubnet != nil {
		buf = binary.BigEndian.AppendUint16(buf, OptionClientSubnet)
		lenAt := len(buf)
		buf = append(buf, 0, 0)
		var err error
		buf, err = appendECS(buf, e.ClientSubnet)
		if err != nil {
			return nil, err
		}
		binary.BigEndian.PutUint16(buf[lenAt:], uint16(len(buf)-lenAt-2))
	}
	for _, opt := range e.UnknownOptions {
		buf = binary.BigEndian.AppendUint16(buf, opt.Code)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(opt.Data)))
		buf = append(buf, opt.Data...)
	}
	binary.BigEndian.PutUint16(buf[rdlenAt:], uint16(len(buf)-rdlenAt-2))
	return buf, nil
}

// decodeOPTInto decodes the OPT pseudo-RR whose fixed fields have already
// been read into rec by the record parser, overwriting e and reusing its
// ClientSubnet struct as scratch when present.
func decodeOPTInto(rec *Record, e *EDNS) error {
	cs := e.ClientSubnet // scratch from a previous decode, if any
	*e = EDNS{
		UDPSize:       uint16(rec.Class),
		ExtendedRCode: uint8(rec.TTL >> 24),
		Version:       uint8(rec.TTL >> 16),
		DNSSECOK:      rec.TTL&(1<<15) != 0,
	}
	data := rec.Data
	for len(data) > 0 {
		if len(data) < 4 {
			return ErrBadOption
		}
		code := binary.BigEndian.Uint16(data[:2])
		olen := int(binary.BigEndian.Uint16(data[2:4]))
		if len(data) < 4+olen {
			return ErrBadOption
		}
		body := data[4 : 4+olen]
		if code == OptionClientSubnet {
			if cs == nil {
				cs = new(ClientSubnet)
			}
			if err := decodeECSInto(body, cs); err != nil {
				return err
			}
			e.ClientSubnet = cs
		} else {
			e.UnknownOptions = append(e.UnknownOptions, RawOption{Code: code, Data: append([]byte(nil), body...)})
		}
		data = data[4+olen:]
	}
	return nil
}
