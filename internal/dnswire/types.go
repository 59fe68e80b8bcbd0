// Package dnswire implements the DNS wire format used by the measurement
// toolkit: message header, questions, resource records, domain-name
// compression, EDNS0, and the EDNS0 Client Subnet option defined in
// RFC 7871. The measurement reads only addresses and the ECS scope, so
// A and AAAA rdata decode into an address, the OPT record into EDNS, and
// every other type (NS, CNAME, SOA, TXT, PTR, ...) round-trips as raw
// rdata.
//
// The codec follows the decode/append style popularized by gopacket and
// dnsmessage: parsing never retains references into the input buffer beyond
// the returned structures, and serialization appends to a caller-provided
// slice so buffers can be reused across queries in tight scan loops.
package dnswire

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
)

// Type is a DNS RR type code.
type Type uint16

// Resource record types used by the toolkit.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypePTR   Type = 12
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeOPT   Type = 41
	TypeANY   Type = 255
)

// String returns the conventional mnemonic for t.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypePTR:
		return "PTR"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	case TypeOPT:
		return "OPT"
	case TypeANY:
		return "ANY"
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// Class is a DNS class code. Only IN is used in practice.
type Class uint16

// DNS classes.
const (
	ClassIN  Class = 1
	ClassANY Class = 255
)

// String returns the mnemonic for c.
func (c Class) String() string {
	switch c {
	case ClassIN:
		return "IN"
	case ClassANY:
		return "ANY"
	}
	return fmt.Sprintf("CLASS%d", uint16(c))
}

// RCode is a DNS response code, including EDNS0-extended values.
type RCode uint16

// Response codes relevant to the blocking study (§4.1 of the paper).
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

// String returns the mnemonic for rc.
func (rc RCode) String() string {
	switch rc {
	case RCodeNoError:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImp:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	}
	return fmt.Sprintf("RCODE%d", uint16(rc))
}

// OpCode is a DNS operation code.
type OpCode uint8

// OpCodeQuery is the standard query opcode; the toolkit uses no other.
const OpCodeQuery OpCode = 0

// Errors returned by the codec.
var (
	ErrTruncatedMessage = errors.New("dnswire: truncated message")
	ErrNameTooLong      = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong     = errors.New("dnswire: label exceeds 63 octets")
	ErrPointerLoop      = errors.New("dnswire: compression pointer loop")
	ErrBadRData         = errors.New("dnswire: malformed rdata")
	ErrBadOption        = errors.New("dnswire: malformed EDNS0 option")
	ErrTooManyRecords   = errors.New("dnswire: section exceeds 65535 entries")
)

// Header is the fixed 12-octet DNS message header.
type Header struct {
	ID                 uint16
	Response           bool
	OpCode             OpCode
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode // low 4 bits; extended bits live in the OPT RR
}

// Question is a single entry of the question section.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// String renders the question in dig-like presentation format.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", q.Name, q.Class, q.Type)
}

// Record is a decoded resource record. A and AAAA rdata decode into
// Addr; every other type keeps its raw rdata in Data. Names inside raw
// rdata are not decompressed: a compressed NS or CNAME target is only
// meaningful against the message it was decoded from.
type Record struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32

	Addr netip.Addr // TypeA (IPv4) and TypeAAAA (IPv6)
	Data []byte     // every other type: raw rdata
}

// Message is a complete DNS message. The OPT pseudo-record, if present in
// the additional section, is surfaced as Edns and excluded from Additionals.
type Message struct {
	Header      Header
	Questions   []Question
	Answers     []Record
	Authorities []Record
	Additionals []Record
	Edns        *EDNS

	// answerBuf is the message-owned answer storage; Answers aliases it
	// after GrowAnswers and DecodeInto. A pooled message keeps it across
	// pool lives (see ReleaseMessage), so the steady state assembles and
	// decodes responses without allocating a record slice.
	answerBuf []Record

	// ednsSpare keeps a pooled message's EDNS scratch while Edns is nil
	// (see DropEDNS), so a response without an OPT record does not cost
	// the next owner a fresh EDNS and ClientSubnet.
	ednsSpare *EDNS

	// pooled marks messages that came from AcquireMessage, so
	// ReleaseMessage never recycles a message it does not own.
	pooled bool
	// stripe is the acquire-counter stripe msgPool dealt the message.
	stripe uint8
}

// CanonicalName lowercases a domain name and guarantees a trailing dot,
// the canonical form used for zone lookups and compression maps.
func CanonicalName(name string) string {
	name = strings.ToLower(name)
	if name == "" {
		return "."
	}
	if !strings.HasSuffix(name, ".") {
		name += "."
	}
	return name
}
