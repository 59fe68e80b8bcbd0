package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"strconv"
	"strings"

	"github.com/relay-networks/privaterelay/internal/bgp"
)

// Dataset persistence: the paper publishes its collected ingress address
// datasets for other researchers. The format is a line-oriented CSV —
// `address,asn` rows preceded by `# key value` metadata comments — that
// diffing tools and spreadsheets both handle.

// Save serializes the dataset.
func (ds *Dataset) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# domain %s\n", ds.Domain)
	fmt.Fprintf(bw, "# queries %d\n", ds.Stats.QueriesSent)
	fmt.Fprintf(bw, "# skipped %d\n", ds.Stats.SubnetsSkipped)
	fmt.Fprintf(bw, "# timeouts %d\n", ds.Stats.Timeouts)
	// Stable order: sorted addresses.
	addrs := make([]netip.Addr, 0, len(ds.Addresses))
	for a := range ds.Addresses {
		addrs = append(addrs, a)
	}
	sortAddrs(addrs)
	for _, a := range addrs {
		fmt.Fprintf(bw, "%s,%d\n", a, uint32(ds.Addresses[a]))
	}
	return bw.Flush()
}

// ReadDataset parses a dataset written by Save. Serving statistics are
// not persisted (they are derivable only during the scan); the address
// set and metadata round-trip.
func ReadDataset(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	ds := &Dataset{
		Addresses: make(map[netip.Addr]bgp.ASN),
		Serving:   make(map[bgp.ASN]*ServingStats),
	}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(strings.TrimPrefix(text, "#"))
			if len(fields) != 2 {
				continue
			}
			switch fields[0] {
			case "domain":
				ds.Domain = fields[1]
			case "queries":
				ds.Stats.QueriesSent, _ = strconv.ParseInt(fields[1], 10, 64)
			case "skipped":
				ds.Stats.SubnetsSkipped, _ = strconv.ParseInt(fields[1], 10, 64)
			case "timeouts":
				ds.Stats.Timeouts, _ = strconv.ParseInt(fields[1], 10, 64)
			}
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("core: dataset line %d: want addr,asn", line)
		}
		addr, err := netip.ParseAddr(parts[0])
		if err != nil {
			return nil, fmt.Errorf("core: dataset line %d: %w", line, err)
		}
		asn, err := strconv.ParseUint(parts[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("core: dataset line %d: %w", line, err)
		}
		ds.Addresses[addr] = bgp.ASN(asn)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ds, nil
}

// ReadCanonical parses the output of WriteCanonical back into a
// Dataset: the address set and the per-client-AS serving statistics.
// Scanner counters are not part of the canonical surface (they are
// path-dependent) and come back zero. The `# canonical <domain>` header
// restores Domain; other comment lines are ignored, so canonical bodies
// embedded in framed files (relayd's dataset generations) parse with
// the same reader.
func ReadCanonical(r io.Reader) (*Dataset, error) {
	ds := &Dataset{
		Addresses: make(map[netip.Addr]bgp.ASN),
		Serving:   make(map[bgp.ASN]*ServingStats),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(strings.TrimPrefix(text, "#"))
			if len(fields) == 2 && fields[0] == "canonical" {
				ds.Domain = fields[1]
			}
			continue
		}
		tag, rest, ok := strings.Cut(text, " ")
		if !ok {
			return nil, fmt.Errorf("core: canonical line %d: want `TAG payload`", line)
		}
		switch tag {
		case "A":
			addrStr, asnStr, ok := strings.Cut(rest, ",")
			if !ok {
				return nil, fmt.Errorf("core: canonical line %d: want A addr,asn", line)
			}
			addr, err := netip.ParseAddr(addrStr)
			if err != nil {
				return nil, fmt.Errorf("core: canonical line %d: %w", line, err)
			}
			asn, err := strconv.ParseUint(asnStr, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("core: canonical line %d: %w", line, err)
			}
			ds.Addresses[addr] = bgp.ASN(asn)
		case "S":
			parts := strings.Split(rest, ",")
			if len(parts) != 3 {
				return nil, fmt.Errorf("core: canonical line %d: want S client,operator,count", line)
			}
			nums := make([]int64, 3)
			for i, p := range parts {
				n, err := strconv.ParseInt(p, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("core: canonical line %d: %w", line, err)
				}
				nums[i] = n
			}
			client := bgp.ASN(nums[0])
			st, ok := ds.Serving[client]
			if !ok {
				st = &ServingStats{SubnetsByOperator: make(map[bgp.ASN]int64)}
				ds.Serving[client] = st
			}
			st.SubnetsByOperator[bgp.ASN(nums[1])] = nums[2]
		default:
			return nil, fmt.Errorf("core: canonical line %d: unknown tag %q", line, tag)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ds, nil
}

// WriteCanonical serializes the scan's *result* — the address set and the
// per-client-AS serving statistics, both sorted — and nothing volatile.
// Two runs that discovered the same network state produce byte-identical
// canonical output even when their paths differed (retries, faults,
// checkpoint resumes, worker interleavings), so it is the comparison
// artifact for equivalence and resume tests and for published datasets.
func (ds *Dataset) WriteCanonical(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# canonical %s\n", ds.Domain)
	addrs := make([]netip.Addr, 0, len(ds.Addresses))
	for a := range ds.Addresses {
		addrs = append(addrs, a)
	}
	sortAddrs(addrs)
	for _, a := range addrs {
		fmt.Fprintf(bw, "A %s,%d\n", a, uint32(ds.Addresses[a]))
	}
	clients := make([]bgp.ASN, 0, len(ds.Serving))
	for as := range ds.Serving {
		clients = append(clients, as)
	}
	slices.Sort(clients)
	for _, client := range clients {
		ops := ds.Serving[client].SubnetsByOperator
		opList := make([]bgp.ASN, 0, len(ops))
		for op := range ops {
			opList = append(opList, op)
		}
		slices.Sort(opList)
		for _, op := range opList {
			fmt.Fprintf(bw, "S %d,%d,%d\n", uint32(client), uint32(op), ops[op])
		}
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
