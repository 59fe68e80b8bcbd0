package core

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/colstore"
)

// Dataset persistence: the paper publishes its collected ingress address
// datasets for other researchers. The canonical text is the one text
// format: a `# canonical <domain>` header, then `A addr,asn` rows and
// `S client,operator,count` rows, each section in the columns' sorted
// order, so line-oriented diffing tools compare two months directly.

// ReadCanonical parses the output of WriteCanonical back into sorted
// columns: the address set and the per-client-AS serving statistics.
// Scanner counters are not part of the canonical surface (they are
// path-dependent). The `# canonical <domain>` header restores Domain;
// other comment lines are ignored, so canonical bodies embedded in
// framed files (relayd's dataset generations) parse with the same
// reader. Rows must arrive in canonical order, as WriteCanonical emits
// them: a row equal to its predecessor is a duplicate and one below it
// is out of order, and both are rejected with their line number like
// any malformed line.
func ReadCanonical(r io.Reader) (*colstore.Dataset, error) {
	cs := &colstore.Dataset{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	bad := func(format string, args ...any) error {
		return fmt.Errorf("core: canonical line %d: %s", line, fmt.Sprintf(format, args...))
	}
	var lastAddr netip.Addr
	var lastClient, lastOp bgp.ASN
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(strings.TrimPrefix(text, "#"))
			if len(fields) == 2 && fields[0] == "canonical" {
				cs.Domain = fields[1]
			}
			continue
		}
		tag, rest, ok := strings.Cut(text, " ")
		if !ok {
			return nil, bad("want `TAG payload`")
		}
		switch tag {
		case "A":
			addrStr, asnStr, ok := strings.Cut(rest, ",")
			if !ok {
				return nil, bad("want A addr,asn")
			}
			addr, err := netip.ParseAddr(addrStr)
			if err != nil {
				return nil, bad("%v", err)
			}
			if addr.Zone() != "" {
				return nil, bad("zoned address %s", addr)
			}
			asn, err := parseASN(asnStr)
			if err != nil {
				return nil, bad("%v", err)
			}
			if lastAddr.IsValid() {
				if err := orderErr(addr.Compare(lastAddr)); err != nil {
					return nil, bad("address %s: %v", addr, err)
				}
			}
			lastAddr = addr
			cs.AppendAddr(addr, asn)
		case "S":
			parts := strings.Split(rest, ",")
			if len(parts) != 3 {
				return nil, bad("want S client,operator,count")
			}
			client, err := parseASN(parts[0])
			if err != nil {
				return nil, bad("%v", err)
			}
			op, err := parseASN(parts[1])
			if err != nil {
				return nil, bad("%v", err)
			}
			count, err := strconv.ParseInt(parts[2], 10, 64)
			if err != nil {
				return nil, bad("%v", err)
			}
			if len(cs.SrvClient) > 0 {
				c := cmp.Or(cmp.Compare(client, lastClient), cmp.Compare(op, lastOp))
				if err := orderErr(c); err != nil {
					return nil, bad("serving %d,%d: %v", client, op, err)
				}
			}
			lastClient, lastOp = client, op
			cs.AppendServing(client, op, count)
		default:
			return nil, bad("unknown tag %q", tag)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return cs, nil
}

// parseASN parses a decimal AS number.
func parseASN(s string) (bgp.ASN, error) {
	n, err := strconv.ParseUint(s, 10, 32)
	return bgp.ASN(n), err
}

// orderErr judges a row against its predecessor in the same section.
func orderErr(c int) error {
	switch {
	case c == 0:
		return errors.New("duplicate row")
	case c < 0:
		return errors.New("row out of canonical order")
	}
	return nil
}

// WriteCanonical serializes a scan's *result* — the address set and the
// per-client-AS serving statistics — straight from its sorted columns,
// and nothing volatile. Two runs that discovered the same network state
// produce byte-identical canonical output even when their paths differed
// (retries, faults, checkpoint resumes, worker interleavings), so it is
// the comparison artifact for equivalence and resume tests and for
// published datasets.
func WriteCanonical(w io.Writer, cs *colstore.Dataset) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# canonical %s\n", cs.Domain)
	cs.ForEachAddr(func(addr netip.Addr, as bgp.ASN) bool {
		fmt.Fprintf(bw, "A %s,%d\n", addr, uint32(as))
		return true
	})
	for i := range cs.SrvClient {
		fmt.Fprintf(bw, "S %d,%d,%d\n", uint32(cs.SrvClient[i]), uint32(cs.SrvOp[i]), cs.SrvCount[i])
	}
	return bw.Flush()
}

// ErrCheckpointCorrupt tags every integrity failure of resumable
// state: a scan journal with a bad magic or header, a whole frame that
// fails its CRC or does not decode, a journal for a different scan —
// and, in relayd, a diff file with a missing footer or an unparseable
// row. Callers branch on it with errors.Is to quarantine the file and
// rebuild instead of resuming a partial state.
var ErrCheckpointCorrupt = errors.New("checkpoint corrupt")

// CorruptError is the typed error for a file that failed integrity
// checks. It matches ErrCheckpointCorrupt under errors.Is.
type CorruptError struct {
	// Path is the offending file ("" when parsed from a reader).
	Path string
	// Line is the 1-based line of the failure in a text format (0 for
	// whole-file problems and for the binary journal, whose Reason
	// carries the byte offset).
	Line int
	// Reason describes the failure.
	Reason string
}

// Error implements error.
func (e *CorruptError) Error() string {
	msg := "core: checkpoint corrupt"
	if e.Path != "" {
		msg += " " + e.Path
	}
	if e.Line > 0 {
		msg += fmt.Sprintf(" line %d", e.Line)
	}
	return msg + ": " + e.Reason
}

// Is reports target equivalence so errors.Is(err, ErrCheckpointCorrupt)
// matches any CorruptError.
func (e *CorruptError) Is(target error) bool { return target == ErrCheckpointCorrupt }
