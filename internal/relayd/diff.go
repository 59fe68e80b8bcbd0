package relayd

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/relay-networks/privaterelay/internal/atomicio"
	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/colstore"
	"github.com/relay-networks/privaterelay/internal/core"
)

// Incremental diff datasets. Each month-over-month transition of the
// ingress population becomes one generation file recording which
// ingresses appeared, which vanished, and which stayed but moved AS.
// Generation numbers are derived, not counted: gen N is the transition
// months[N-1] → months[N], so a crash can never fork the sequence —
// rebuilding from the same canonical datasets always reproduces the
// same bytes, which is exactly what the chaos test asserts.

// DiffEntry is one address-level change between two dataset
// generations.
type DiffEntry struct {
	Addr netip.Addr
	// OldASN is set for vanished and moved entries.
	OldASN bgp.ASN
	// NewASN is set for appeared and moved entries.
	NewASN bgp.ASN
}

// DatasetDiff is the month-over-month change set between two canonical
// datasets of the same domain.
type DatasetDiff struct {
	Domain   string
	Gen      int
	From, To bgp.Month
	Appeared []DiffEntry // in To, not in From
	Vanished []DiffEntry // in From, not in To
	MovedAS  []DiffEntry // in both, origin AS changed
}

// ComputeDiff builds the change set from two datasets' sorted columns:
// a single streaming two-pointer merge per family, no hashing, no
// post-sort — the merge emits changes already in canonical address
// order, so the per-kind slices come out sorted and the result is a pure
// function of the inputs.
func ComputeDiff(gen int, from, to bgp.Month, a, b *colstore.Dataset) *DatasetDiff {
	d := &DatasetDiff{Domain: b.Domain, Gen: gen, From: from, To: to}
	colstore.Diff(a, b, func(c colstore.Change) bool {
		switch c.Kind {
		case colstore.Appeared:
			d.Appeared = append(d.Appeared, DiffEntry{Addr: c.Addr, NewASN: c.NewAS})
		case colstore.Vanished:
			d.Vanished = append(d.Vanished, DiffEntry{Addr: c.Addr, OldASN: c.OldAS})
		case colstore.MovedAS:
			d.MovedAS = append(d.MovedAS, DiffEntry{Addr: c.Addr, OldASN: c.OldAS, NewASN: c.NewAS})
		}
		return true
	})
	return d
}

// Write renders the diff in its canonical on-disk form:
//
//	# diff v1
//	# gen 000002
//	# domain mask.icloud.com.
//	# from 2022-01
//	# to 2022-02
//	+ addr,asn
//	- addr,asn
//	~ addr,oldasn,newasn
//	# end 3
//
// Rows sort within each section by address; the footer pins the row
// count so truncated writes are detectable, same as checkpoints.
func (d *DatasetDiff) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# diff v1\n# gen %06d\n# domain %s\n# from %s\n# to %s\n",
		d.Gen, d.Domain, d.From, d.To)
	for _, e := range d.Appeared {
		fmt.Fprintf(bw, "+ %s,%d\n", e.Addr, e.NewASN)
	}
	for _, e := range d.Vanished {
		fmt.Fprintf(bw, "- %s,%d\n", e.Addr, e.OldASN)
	}
	for _, e := range d.MovedAS {
		fmt.Fprintf(bw, "~ %s,%d,%d\n", e.Addr, e.OldASN, e.NewASN)
	}
	fmt.Fprintf(bw, "# end %d\n", len(d.Appeared)+len(d.Vanished)+len(d.MovedAS))
	return bw.Flush()
}

// ReadDiff parses a canonical diff file, rejecting truncated or
// malformed content. The header must open the file, and the month
// headers must be present: Write always emits them, and a zero month
// has no valid text form.
func ReadDiff(r io.Reader) (*DatasetDiff, error) {
	d := &DatasetDiff{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line, rows, sawEnd := 0, 0, false
	sawFrom, sawTo := false, false
	bad := func(format string, args ...any) error {
		return &core.CorruptError{Line: line, Reason: fmt.Sprintf(format, args...)}
	}
	parseMonth := func(s string) (bgp.Month, error) {
		y, m, ok := strings.Cut(s, "-")
		if !ok {
			return bgp.Month{}, fmt.Errorf("bad month %q", s)
		}
		year, err1 := strconv.Atoi(y)
		mo, err2 := strconv.Atoi(m)
		if err1 != nil || err2 != nil || mo < 1 || mo > 12 {
			return bgp.Month{}, fmt.Errorf("bad month %q", s)
		}
		return bgp.Month{Year: year, M: mo}, nil
	}
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" && line > 1 {
			continue
		}
		if sawEnd {
			return nil, bad("content after footer")
		}
		switch {
		case line == 1:
			if text != "# diff v1" {
				return nil, bad("missing diff header")
			}
		case strings.HasPrefix(text, "# gen "):
			g, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(text, "# gen ")))
			if err != nil {
				return nil, bad("bad gen: %v", err)
			}
			d.Gen = g
		case strings.HasPrefix(text, "# domain "):
			d.Domain = strings.TrimPrefix(text, "# domain ")
		case strings.HasPrefix(text, "# from "):
			m, err := parseMonth(strings.TrimPrefix(text, "# from "))
			if err != nil {
				return nil, bad("%v", err)
			}
			d.From, sawFrom = m, true
		case strings.HasPrefix(text, "# to "):
			m, err := parseMonth(strings.TrimPrefix(text, "# to "))
			if err != nil {
				return nil, bad("%v", err)
			}
			d.To, sawTo = m, true
		case strings.HasPrefix(text, "# end "):
			want, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(text, "# end ")))
			if err != nil {
				return nil, bad("bad footer: %v", err)
			}
			if want != rows {
				return nil, bad("row count %d, footer says %d", rows, want)
			}
			sawEnd = true
		case strings.HasPrefix(text, "+ "), strings.HasPrefix(text, "- "), strings.HasPrefix(text, "~ "):
			e, err := parseDiffRow(text)
			if err != nil {
				return nil, bad("%v", err)
			}
			rows++
			switch text[0] {
			case '+':
				d.Appeared = append(d.Appeared, e)
			case '-':
				d.Vanished = append(d.Vanished, e)
			case '~':
				d.MovedAS = append(d.MovedAS, e)
			}
		default:
			return nil, bad("unrecognized line %q", text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if line == 0 {
		return nil, bad("empty diff file")
	}
	if !sawEnd {
		return nil, bad("missing footer (truncated write?)")
	}
	if !sawFrom || !sawTo {
		return nil, bad("missing month header")
	}
	return d, nil
}

func parseDiffRow(text string) (DiffEntry, error) {
	var e DiffEntry
	fields := strings.Split(text[2:], ",")
	addr, err := netip.ParseAddr(fields[0])
	if err != nil {
		return e, fmt.Errorf("bad addr %q", fields[0])
	}
	e.Addr = addr
	asns := make([]bgp.ASN, 0, 2)
	for _, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return e, fmt.Errorf("bad asn %q", f)
		}
		asns = append(asns, bgp.ASN(n))
	}
	switch {
	case text[0] == '+' && len(asns) == 1:
		e.NewASN = asns[0]
	case text[0] == '-' && len(asns) == 1:
		e.OldASN = asns[0]
	case text[0] == '~' && len(asns) == 2:
		e.OldASN, e.NewASN = asns[0], asns[1]
	default:
		return e, fmt.Errorf("wrong field count for %q", text)
	}
	return e, nil
}

// domainSlug flattens a DNS name into a filesystem-safe directory name:
// "mask.icloud.com." → "mask_icloud_com".
func domainSlug(domain string) string {
	return strings.ReplaceAll(strings.TrimSuffix(domain, "."), ".", "_")
}

// diffPath locates generation gen of domain's diff sequence under dir.
func diffPath(dir, domain string, gen int) string {
	return filepath.Join(dir, "diffs", domainSlug(domain), fmt.Sprintf("gen-%06d.diff", gen))
}

// WriteDiffFile persists the diff atomically and durably under dir.
func WriteDiffFile(dir string, d *DatasetDiff) error {
	path := diffPath(dir, d.Domain, d.Gen)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return atomicio.WriteFile(path, d.Write)
}

// LoadDiffFile reads generation gen back; a corrupt file reports
// core.ErrCheckpointCorrupt with the path attached, mirroring
// LoadCheckpoint.
func LoadDiffFile(dir, domain string, gen int) (*DatasetDiff, error) {
	path := diffPath(dir, domain, gen)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := ReadDiff(f)
	if err != nil {
		if corrupt, ok := errAsCorrupt(err); ok {
			corrupt.Path = path
			return nil, corrupt
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

func errAsCorrupt(err error) (*core.CorruptError, bool) {
	if corrupt, ok := err.(*core.CorruptError); ok {
		c := *corrupt
		return &c, true
	}
	return nil, false
}
