package colstore

// The binary sidecar codec. A sidecar file is the columnar dataset laid
// out verbatim: a fixed header carrying the row counts, the source-text
// fingerprint and a section-offset table, the eight column sections each
// 8-byte aligned, and a row-count/checksum footer. Loading is
// near-zero-copy: on little-endian hosts the column slices alias the
// file buffer directly (the sections are aligned by construction), so a
// load costs one read plus a checksum sweep — no per-row parsing.
//
// The canonical text format (core.WriteCanonical) stays the interchange
// and golden surface; the sidecar is a cache over it. The header's
// SourceInfo pins which text bytes the sidecar was built from, so a
// consumer can detect staleness without parsing the text. Torn,
// truncated or bit-flipped sidecars are rejected with a typed
// *CorruptError — callers quarantine and rebuild from the text, exactly
// like the checkpoint machinery.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"unsafe"

	"github.com/relay-networks/privaterelay/internal/bgp"
)

const (
	// magic and endMagic frame a sidecar file ("CLS1" / "1END" little-
	// endian). The version rides in the magic: an incompatible layout
	// gets a new magic and old readers reject it as corrupt-by-format.
	magic    uint32 = 0x31534C43 // "CLS1"
	endMagic uint32 = 0x444E4531 // "1END"

	// headerFixed is the byte length of the fixed header before the
	// domain string: magic, hdrLen, three row counts, source fingerprint,
	// domain length, and the eight section offsets.
	headerFixed = 4 + 4 + 3*8 + 8 + 4 + 4 + numSections*8

	// footerLen is totalRows + payload CRC + end magic.
	footerLen = 8 + 4 + 4

	// numSections is the column count of the on-disk layout.
	numSections = 8
)

// SourceInfo fingerprints the canonical text a sidecar was built from:
// its byte length and CRC-32C. A sidecar is valid for exactly one text
// file content; any text rewrite makes it stale.
type SourceInfo struct {
	Size int64
	CRC  uint32
}

// Fingerprint returns the SourceInfo of a canonical text body.
func Fingerprint(text []byte) SourceInfo {
	return SourceInfo{Size: int64(len(text)), CRC: crc32.Checksum(text, crcTable)}
}

// crcTable is the Castagnoli polynomial — hardware-accelerated on the
// platforms the scans run on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt tags every sidecar-integrity failure, mirroring
// core.ErrCheckpointCorrupt for the text artifacts. Match with
// errors.Is; the concrete *CorruptError carries the detail.
var ErrCorrupt = errors.New("colstore: sidecar corrupt")

// CorruptError reports a sidecar that failed decoding: truncated,
// misframed, or failing its checksum.
type CorruptError struct {
	// Path is the offending file ("" when decoded from memory).
	Path string
	// Reason describes the failure.
	Reason string
}

// Error implements error.
func (e *CorruptError) Error() string {
	msg := "colstore: sidecar corrupt"
	if e.Path != "" {
		msg += " " + e.Path
	}
	return msg + ": " + e.Reason
}

// Is reports target equivalence so errors.Is(err, ErrCorrupt) matches
// any CorruptError.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

func corrupt(format string, args ...any) error {
	return &CorruptError{Reason: fmt.Sprintf(format, args...)}
}

// hostLittle reports whether the host stores integers little-endian —
// the layout the codec writes — so loads can alias the file buffer
// instead of byte-swapping.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// pad8 returns n rounded up to the next multiple of 8.
func pad8(n int) int { return (n + 7) &^ 7 }

// allZero reports whether every byte of b is zero. Padding bytes must
// be: it is what makes encoding a bijection (decode∘encode = id and
// encode∘decode = id on accepted files).
func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// sectionSizes returns the byte length of each column section (before
// alignment padding) for a dataset with the given row counts.
func sectionSizes(v4, v6, srv int) [numSections]int {
	return [numSections]int{
		4 * v4,  // V4Addr
		4 * v4,  // V4ASN
		8 * v6,  // V6Hi
		8 * v6,  // V6Lo
		4 * v6,  // V6ASN
		4 * srv, // SrvClient
		4 * srv, // SrvOp
		8 * srv, // SrvCount
	}
}

// AppendBinary appends the sidecar encoding of d to buf and returns the
// extended slice. src fingerprints the canonical text d was parsed
// from; pass the zero SourceInfo for a sidecar with no text anchor.
// The encoding is a pure function of (d, src): byte-identical across
// runs, hosts and endianness.
func (d *Dataset) AppendBinary(buf []byte, src SourceInfo) []byte {
	v4, v6, srv := len(d.V4Addr), len(d.V6Hi), len(d.SrvClient)
	sizes := sectionSizes(v4, v6, srv)
	hdrLen := pad8(headerFixed + len(d.Domain))
	total := hdrLen
	var offs [numSections]uint64
	for i, sz := range sizes {
		offs[i] = uint64(total)
		total += pad8(sz)
	}
	start := len(buf)
	buf = append(buf, make([]byte, total+footerLen)...)
	out := buf[start:]

	le := binary.LittleEndian
	le.PutUint32(out[0:], magic)
	le.PutUint32(out[4:], uint32(hdrLen))
	le.PutUint64(out[8:], uint64(v4))
	le.PutUint64(out[16:], uint64(v6))
	le.PutUint64(out[24:], uint64(srv))
	le.PutUint64(out[32:], uint64(src.Size))
	le.PutUint32(out[40:], src.CRC)
	le.PutUint32(out[44:], uint32(len(d.Domain)))
	for i, off := range offs {
		le.PutUint64(out[48+8*i:], off)
	}
	copy(out[headerFixed:], d.Domain)

	putU32s := func(off uint64, vals []uint32) {
		b := out[off:]
		for i, v := range vals {
			le.PutUint32(b[4*i:], v)
		}
	}
	putASNs := func(off uint64, vals []bgp.ASN) {
		b := out[off:]
		for i, v := range vals {
			le.PutUint32(b[4*i:], uint32(v))
		}
	}
	putU64s := func(off uint64, vals []uint64) {
		b := out[off:]
		for i, v := range vals {
			le.PutUint64(b[8*i:], v)
		}
	}
	putU32s(offs[0], d.V4Addr)
	putASNs(offs[1], d.V4ASN)
	putU64s(offs[2], d.V6Hi)
	putU64s(offs[3], d.V6Lo)
	putASNs(offs[4], d.V6ASN)
	putASNs(offs[5], d.SrvClient)
	putASNs(offs[6], d.SrvOp)
	{
		b := out[offs[7]:]
		for i, v := range d.SrvCount {
			le.PutUint64(b[8*i:], uint64(v))
		}
	}

	le.PutUint64(out[total:], uint64(v4+v6+srv))
	le.PutUint32(out[total+8:], crc32.Checksum(out[:total], crcTable))
	le.PutUint32(out[total+12:], endMagic)
	return buf
}

// DecodeBinary decodes a sidecar produced by AppendBinary. On
// little-endian hosts the returned dataset's columns alias data — treat
// both as immutable for the dataset's lifetime. Any framing, length or
// checksum violation returns a *CorruptError (errors.Is ErrCorrupt);
// a valid file never partially decodes.
func DecodeBinary(data []byte) (*Dataset, SourceInfo, error) {
	var src SourceInfo
	if len(data) < headerFixed+footerLen {
		return nil, src, corrupt("short file: %d bytes", len(data))
	}
	le := binary.LittleEndian
	if got := le.Uint32(data[0:]); got != magic {
		return nil, src, corrupt("bad magic %#x", got)
	}
	hdrLen := int(le.Uint32(data[4:]))
	v4 := le.Uint64(data[8:])
	v6 := le.Uint64(data[16:])
	srv := le.Uint64(data[24:])
	// Each v4 row occupies 8 payload bytes across its sections, each v6
	// row 20, each serving row 16 — counts beyond those densities are
	// corrupt, and rejecting them here keeps a forged header from
	// driving huge allocations or integer overflow below.
	if limit := uint64(len(data)); v4 > limit/8 || v6 > limit/20 || srv > limit/16 {
		return nil, src, corrupt("implausible row counts %d/%d/%d for a %d-byte file", v4, v6, srv, len(data))
	}
	src.Size = int64(le.Uint64(data[32:]))
	src.CRC = le.Uint32(data[40:])
	domLen := int(le.Uint32(data[44:]))
	if hdrLen != pad8(headerFixed+domLen) || hdrLen > len(data) {
		return nil, src, corrupt("header length %d inconsistent with domain length %d", hdrLen, domLen)
	}

	if !allZero(data[headerFixed+domLen : hdrLen]) {
		return nil, src, corrupt("nonzero header padding")
	}

	sizes := sectionSizes(int(v4), int(v6), int(srv))
	want := hdrLen
	var offs [numSections]int
	for i, sz := range sizes {
		off := le.Uint64(data[48+8*i:])
		if off != uint64(want) {
			return nil, src, corrupt("section %d at offset %d, want %d", i, off, want)
		}
		offs[i] = want
		// Row counts are bounded by the file size, so these int sums
		// cannot overflow; still, bound-check before touching padding.
		if want+pad8(sz)+footerLen > len(data) {
			return nil, src, corrupt("file is %d bytes, truncated inside section %d", len(data), i)
		}
		want += pad8(sz)
		if !allZero(data[offs[i]+sz : want]) {
			return nil, src, corrupt("nonzero padding after section %d", i)
		}
	}
	if len(data) != want+footerLen {
		return nil, src, corrupt("file is %d bytes, layout wants %d (truncated write?)", len(data), want+footerLen)
	}
	rows := le.Uint64(data[want:])
	if rows != v4+v6+srv {
		return nil, src, corrupt("footer declares %d rows, header %d", rows, v4+v6+srv)
	}
	if got := le.Uint32(data[want+12:]); got != endMagic {
		return nil, src, corrupt("bad end magic %#x", got)
	}
	if got, sum := le.Uint32(data[want+8:]), crc32.Checksum(data[:want], crcTable); got != sum {
		return nil, src, corrupt("payload checksum %#x, computed %#x", got, sum)
	}

	d := &Dataset{
		Domain:    string(data[headerFixed : headerFixed+domLen]),
		V4Addr:    u32View(data[offs[0]:], int(v4)),
		V4ASN:     asnView(data[offs[1]:], int(v4)),
		V6Hi:      u64View(data[offs[2]:], int(v6)),
		V6Lo:      u64View(data[offs[3]:], int(v6)),
		V6ASN:     asnView(data[offs[4]:], int(v6)),
		SrvClient: asnView(data[offs[5]:], int(srv)),
		SrvOp:     asnView(data[offs[6]:], int(srv)),
		SrvCount:  i64View(data[offs[7]:], int(srv)),
	}
	return d, src, nil
}

// The *View helpers turn a section of the file buffer into a typed
// column. On little-endian hosts with the expected alignment they alias
// the buffer (zero copy); otherwise they decode into a fresh slice.
// Section offsets are multiples of 8 by construction, so as long as the
// buffer base is 8-aligned (any heap []byte of this size is) the alias
// path always taken on amd64/arm64.

func aligned(b []byte, align uintptr) bool {
	return uintptr(unsafe.Pointer(&b[0]))%align == 0
}

func u32View(b []byte, n int) []uint32 {
	if n == 0 {
		return nil
	}
	if hostLittle && aligned(b, 4) {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

func asnView(b []byte, n int) []bgp.ASN {
	if n == 0 {
		return nil
	}
	if hostLittle && aligned(b, 4) {
		return unsafe.Slice((*bgp.ASN)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]bgp.ASN, n)
	for i := range out {
		out[i] = bgp.ASN(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func u64View(b []byte, n int) []uint64 {
	if n == 0 {
		return nil
	}
	if hostLittle && aligned(b, 8) {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

func i64View(b []byte, n int) []int64 {
	if n == 0 {
		return nil
	}
	if hostLittle && aligned(b, 8) {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
