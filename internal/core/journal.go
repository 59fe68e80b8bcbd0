package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/netip"
	"os"
	"slices"

	"github.com/relay-networks/privaterelay/internal/atomicio"
	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/faults"
)

// The scan checkpoint is an append-only journal (DESIGN.md §8):
//
//	magic(8) | frame(header) | frame(batch)*
//	frame  = len u32le | payload | crc32c(len|payload) u32le
//	header = universe total, domain
//	batch  = what one completed work batch added to the scan state
//
// Payload integers are minimal uvarints, so a payload has exactly one
// encoding and decode→encode is the identity. An *incomplete* trailing
// frame is a torn append and is truncated away on load; a *complete*
// frame that fails its CRC or does not decode, a bad magic or a bad
// header is corruption: a *CorruptError for the caller to quarantine.

const journalMagic = "PRJRNL01"

// crcTable is the Castagnoli polynomial, as in internal/colstore.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxUniverse bounds the header's universe total: IPv4 holds 2^24 /24s.
const maxUniverse = 1 << 24

// Scan counters, indexed so the journal, the Checkpoint's named view
// and the shard merge loop over one table.
const (
	cQueries = iota
	cSkipped
	cRetries
	cDeferrals
	cTermErrors // subnets lost to non-retryable errors
	cTimeoutAttempts
	cServFailAttempts
	cRefusedAttempts
	cTruncatedAttempts
	cStaleAttempts
	nCounters
)

var counterNames = [nCounters]string{
	"queries", "skipped", "retries", "deferrals", "termerrors",
	"timeoutattempts", "servfailattempts", "refusedattempts",
	"truncatedattempts", "staleattempts",
}

type scanCounters [nCounters]int64

func (c *scanCounters) add(o *scanCounters) {
	for i, v := range o {
		c[i] += v
	}
}

// doneRange is an inclusive run of completed universe indices.
type doneRange struct{ lo, hi int64 }

type addrEntry struct {
	addr netip.Addr
	as   bgp.ASN
}

type servingDelta struct {
	client, op bgp.ASN
	n          int64
}

// journalFrame is a batch payload in decoded form: the delta a worker
// collects per batch (slices reused), what the decoder yields on
// replay, and — holding a whole Checkpoint — a compacted journal.
type journalFrame struct {
	done     []doneRange
	addrs    []addrEntry
	serving  []servingDelta
	ledger   []SubnetFault
	counters scanCounters
}

func (fr *journalFrame) reset() {
	fr.done, fr.addrs, fr.serving, fr.ledger = fr.done[:0], fr.addrs[:0], fr.serving[:0], fr.ledger[:0]
	fr.counters = scanCounters{}
}

// markDone records a completed universe index; consecutive indices
// extend the last run (a pass-1 batch is one run).
func (fr *journalFrame) markDone(idx int64) {
	if n := len(fr.done); n > 0 && fr.done[n-1].hi+1 == idx {
		fr.done[n-1].hi = idx
		return
	}
	fr.done = append(fr.done, doneRange{idx, idx})
}

// doneCount is the number of indices the frame marks done.
func (fr *journalFrame) doneCount() int64 {
	var n int64
	for _, r := range fr.done {
		n += r.hi - r.lo + 1
	}
	return n
}

// serve counts one served /24 for (client, op). Workers sweep ascending
// subnets, so the last entry almost always matches.
func (fr *journalFrame) serve(client, op bgp.ASN) {
	for i := len(fr.serving) - 1; i >= 0; i-- {
		if s := &fr.serving[i]; s.client == client && s.op == op {
			s.n++
			return
		}
	}
	fr.serving = append(fr.serving, servingDelta{client, op, 1})
}

// fault returns the batch's ledger delta for subnet; a subnet's
// attempts are consecutive, so only the last entry can match.
func (fr *journalFrame) fault(subnet netip.Prefix) *SubnetFault {
	if n := len(fr.ledger); n == 0 || fr.ledger[n-1].Subnet != subnet {
		fr.ledger = append(fr.ledger, SubnetFault{Subnet: subnet})
	}
	return &fr.ledger[len(fr.ledger)-1]
}

func appendAddr(b []byte, a netip.Addr) []byte {
	a16 := a.As16() // IPv4 comes back 4-in-6 mapped: its bytes are the last four
	if a.Is4() {
		return append(append(b, 4), a16[12:]...)
	}
	return append(append(b, 16), a16[:]...)
}

// appendPayload encodes the frame's payload onto b.
func (fr *journalFrame) appendPayload(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(fr.done)))
	for _, r := range fr.done {
		b = binary.AppendUvarint(b, uint64(r.lo))
		b = binary.AppendUvarint(b, uint64(r.hi-r.lo))
	}
	b = binary.AppendUvarint(b, uint64(len(fr.addrs)))
	for _, a := range fr.addrs {
		b = appendAddr(b, a.addr)
		b = binary.AppendUvarint(b, uint64(a.as))
	}
	b = binary.AppendUvarint(b, uint64(len(fr.serving)))
	for _, s := range fr.serving {
		b = binary.AppendUvarint(b, uint64(s.client))
		b = binary.AppendUvarint(b, uint64(s.op))
		b = binary.AppendUvarint(b, uint64(s.n))
	}
	b = binary.AppendUvarint(b, uint64(len(fr.ledger)))
	for i := range fr.ledger {
		e := &fr.ledger[i]
		b = appendAddr(b, e.Subnet.Addr())
		b = append(b, byte(e.Subnet.Bits()))
		for _, n := range [...]int32{e.Timeouts, e.ServFails, e.Refused, e.Truncated, e.Stale, e.Attempts} {
			b = binary.AppendUvarint(b, uint64(n))
		}
		rec := byte(0)
		if e.Recovered {
			rec = 1
		}
		b = append(b, byte(e.LastKind), rec)
	}
	for _, c := range fr.counters {
		b = binary.AppendUvarint(b, uint64(c))
	}
	return b
}

// sealFrame closes the frame opened at b[start:] with four placeholder
// bytes: it fills in the payload length and appends the CRC.
func sealFrame(b []byte, start int) []byte {
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[start:], crcTable))
}

// appendTo encodes the frame, envelope included, onto b.
func (fr *journalFrame) appendTo(b []byte) []byte {
	return sealFrame(fr.appendPayload(append(b, 0, 0, 0, 0)), len(b))
}

// journalHeader identifies the scan a journal belongs to.
type journalHeader struct {
	domain string
	total  int64
}

// appendTo encodes the file prologue: magic plus the header frame.
func (h journalHeader) appendTo(b []byte) []byte {
	b = append(b, journalMagic...)
	start := len(b)
	b = binary.AppendUvarint(append(b, 0, 0, 0, 0), uint64(h.total))
	b = binary.AppendUvarint(b, uint64(len(h.domain)))
	return sealFrame(append(b, h.domain...), start)
}

// payloadReader decodes a payload with a sticky failure flag, so the
// decoders read straight through and check once.
type payloadReader struct {
	b   []byte
	bad bool
}

func (r *payloadReader) take(n int) []byte {
	if r.bad || n > len(r.b) {
		r.bad = true
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *payloadReader) byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// uvarint reads a uvarint no larger than max, rejecting a padded
// encoding (trailing zero group): it would break decode→encode identity.
func (r *payloadReader) uvarint(max uint64) uint64 {
	v, n := binary.Uvarint(r.b)
	if r.bad || n <= 0 || (n > 1 && r.b[n-1] == 0) || v > max {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads an element count. Elements take at least a byte each, so
// a larger count than bytes remain is malformed.
func (r *payloadReader) count() int { return int(r.uvarint(uint64(len(r.b)))) }

func (r *payloadReader) addr() netip.Addr {
	switch n := r.byte(); n {
	case 4, 16:
		if a, ok := netip.AddrFromSlice(r.take(int(n))); ok {
			return a
		}
	}
	r.bad = true
	return netip.Addr{}
}

// decodePayload fills fr from a batch payload, reporting false for
// anything appendPayload cannot have written. total bounds the done
// indices.
func (fr *journalFrame) decodePayload(payload []byte, total int64) bool {
	fr.reset()
	r := &payloadReader{b: payload}
	for n := r.count(); n > 0 && !r.bad; n-- {
		lo, span := int64(r.uvarint(maxUniverse)), int64(r.uvarint(maxUniverse))
		if lo+span >= total {
			r.bad = true
		}
		fr.done = append(fr.done, doneRange{lo, lo + span})
	}
	for n := r.count(); n > 0 && !r.bad; n-- {
		fr.addrs = append(fr.addrs, addrEntry{r.addr(), bgp.ASN(r.uvarint(math.MaxUint32))})
	}
	for n := r.count(); n > 0 && !r.bad; n-- {
		client, op := r.uvarint(math.MaxUint32), r.uvarint(math.MaxUint32)
		fr.serving = append(fr.serving, servingDelta{bgp.ASN(client), bgp.ASN(op), int64(r.uvarint(math.MaxUint64))})
	}
	for n := r.count(); n > 0 && !r.bad; n-- {
		a := r.addr()
		e := SubnetFault{Subnet: netip.PrefixFrom(a, int(r.byte()))}
		if !r.bad && !e.Subnet.IsValid() {
			r.bad = true
		}
		for _, dst := range [...]*int32{&e.Timeouts, &e.ServFails, &e.Refused, &e.Truncated, &e.Stale, &e.Attempts} {
			*dst = int32(r.uvarint(math.MaxInt32))
		}
		e.LastKind = faults.Kind(r.byte())
		rec := r.byte()
		if e.LastKind > faults.KindStale || rec > 1 {
			r.bad = true
		}
		e.Recovered = rec == 1
		fr.ledger = append(fr.ledger, e)
	}
	for i := range fr.counters {
		fr.counters[i] = int64(r.uvarint(math.MaxUint64))
	}
	return !r.bad && len(r.b) == 0
}

func decodeHeader(payload []byte) (journalHeader, bool) {
	r := &payloadReader{b: payload}
	total := int64(r.uvarint(maxUniverse))
	domain := string(r.take(r.count()))
	return journalHeader{domain: domain, total: total}, !r.bad && len(r.b) == 0
}

// nextFrame splits the leading frame off data. whole is false when data
// ends before the frame does (a torn append); err reports a whole frame
// whose CRC does not match.
func nextFrame(data []byte) (payload []byte, size int, whole bool, err error) {
	if len(data) < 4 {
		return nil, 0, false, nil
	}
	n := uint64(binary.LittleEndian.Uint32(data))
	if uint64(len(data)) < n+8 {
		return nil, 0, false, nil
	}
	size = int(n) + 8
	if got, want := binary.LittleEndian.Uint32(data[size-4:]), crc32.Checksum(data[:size-4], crcTable); got != want {
		return nil, 0, true, fmt.Errorf("crc %08x, frame says %08x", want, got)
	}
	return data[4 : size-4], size, true, nil
}

// journalReader iterates the whole frames of a journal image.
type journalReader struct {
	journalHeader
	data []byte
	off  int          // end of the last whole frame read: the valid length so far
	fr   journalFrame // reused by next
}

func corruptAt(off int, format string, args ...any) error {
	return &CorruptError{Reason: fmt.Sprintf("journal offset %d: ", off) + fmt.Sprintf(format, args...)}
}

// newJournalReader parses the prologue. A nil reader with a nil error
// means the image ends inside its magic or header frame: the scan died
// creating the file. Errors, here and in next, are *CorruptError.
func newJournalReader(data []byte) (*journalReader, error) {
	if m := min(len(data), len(journalMagic)); string(data[:m]) != journalMagic[:m] {
		return nil, corruptAt(0, "not a scan journal (bad magic)")
	}
	if len(data) < len(journalMagic) {
		return nil, nil
	}
	off := len(journalMagic)
	payload, size, whole, err := nextFrame(data[off:])
	if !whole {
		return nil, nil
	}
	if err != nil {
		return nil, corruptAt(off, "header: %v", err)
	}
	hdr, ok := decodeHeader(payload)
	if !ok {
		return nil, corruptAt(off, "header does not decode")
	}
	return &journalReader{journalHeader: hdr, data: data, off: off + size}, nil
}

// next decodes the following batch frame (valid until the next call);
// nil, nil once the whole frames are exhausted — bytes past jr.off are
// then a torn append.
func (jr *journalReader) next() (*journalFrame, error) {
	payload, size, whole, err := nextFrame(jr.data[jr.off:])
	if !whole {
		return nil, nil
	}
	if err != nil {
		return nil, corruptAt(jr.off, "%v", err)
	}
	if !jr.fr.decodePayload(payload, jr.total) {
		return nil, corruptAt(jr.off, "frame passes its CRC but does not decode")
	}
	jr.off += size
	return &jr.fr, nil
}

// apply folds one batch frame into the shard: a live worker's sealed
// batch and a replayed journal frame alike. Done marks are not shard
// state; replay sets them in its bitmap.
func (sh *scanShard) apply(fr *journalFrame) {
	for _, a := range fr.addrs {
		sh.addrs[a.addr] = a.as
	}
	for _, s := range fr.serving {
		sh.serving[servingKey{s.client, s.op}] += s.n
	}
	for _, e := range fr.ledger {
		sh.appendFault(e)
	}
	sh.counters.add(&fr.counters)
}

// journalReplay is a journal file replayed into scan state.
type journalReplay struct {
	journalHeader
	shard *scanShard
	done  *bitset
	valid int64 // bytes of whole frames; 0 when no header survived
	torn  int64 // bytes past valid: the torn tail
}

// replayJournal loads path. A missing file is os.ErrNotExist; integrity
// failures are *CorruptError carrying the path.
func replayJournal(path string) (*journalReplay, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rp := &journalReplay{shard: newScanShard(), done: newBitset(0)}
	jr, err := newJournalReader(data)
	if jr != nil {
		rp.journalHeader = jr.journalHeader
		rp.done = newBitset(jr.total)
		var fr *journalFrame
		for fr, err = jr.next(); fr != nil; fr, err = jr.next() {
			rp.shard.apply(fr)
			for _, r := range fr.done {
				for i := r.lo; i <= r.hi; i++ {
					rp.done.set(i)
				}
			}
		}
		rp.valid = int64(jr.off)
	}
	rp.torn = int64(len(data)) - rp.valid
	var corrupt *CorruptError
	if errors.As(err, &corrupt) {
		corrupt.Path = path
	}
	if err != nil {
		return nil, err
	}
	return rp, nil
}

// journalWriter is the live scan's end of the journal. The collector
// goroutine owns it while a pass runs, Scan between passes.
type journalWriter struct {
	f         *atomicio.AppendFile
	every     int64 // completed /24s per group commit
	sinceSync int64
	err       error // first append/fsync failure; sticky, stops the scan

	frames, bytes, syncs int64
}

// openJournal readies cc.Path for a scan of (domain, total) and returns
// what there is to resume: on Resume with a journal of this scan there,
// its replay (the file cut back to its last whole frame), otherwise
// nothing (the file holding just a fresh header). A journal of another
// scan is corrupt, like any file that cannot be resumed.
func openJournal(cc *CheckpointConfig, domain string, total int64) (*journalWriter, *journalReplay, error) {
	rp := &journalReplay{shard: newScanShard()}
	if cc.Resume {
		switch loaded, err := replayJournal(cc.Path); {
		case err == nil:
			rp = loaded
		case !errors.Is(err, os.ErrNotExist):
			return nil, nil, err
		}
		if rp.valid > 0 && (rp.domain != domain || rp.total != total) {
			return nil, nil, &CorruptError{Path: cc.Path, Reason: fmt.Sprintf(
				"journal is for %s over %d subnets, scan wants %s over %d", rp.domain, rp.total, domain, total)}
		}
	}
	f, err := atomicio.OpenAppend(cc.Path)
	if err != nil {
		return nil, nil, err
	}
	j := &journalWriter{f: f, every: cc.Every}
	if j.every <= 0 {
		j.every = 1 << 15
	}
	if rp.valid == 0 {
		rp.done = newBitset(total)
		if err = f.Truncate(0); err == nil {
			f.Append(journalHeader{domain, total}.appendTo(nil))
			err = j.sync()
		}
	} else if rp.torn > 0 {
		err = f.Truncate(rp.valid)
	}
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("core: checkpoint %s: %w", cc.Path, err)
	}
	return j, rp, nil
}

// append journals one batch frame that completed done /24s.
func (j *journalWriter) append(frame []byte, done int64) {
	if j.err != nil {
		return
	}
	j.f.Append(frame)
	j.frames++
	j.bytes += int64(len(frame))
	if j.sinceSync += done; j.sinceSync >= j.every {
		j.err = j.sync()
	}
}

// sync is the group commit.
func (j *journalWriter) sync() error {
	j.sinceSync = 0
	j.syncs++
	return j.f.Sync()
}

// Checkpoint is scan progress in memory — what a journal's frames add
// up to. LoadCheckpoint replays a journal into one; WriteFile writes
// one back as a compacted journal.
type Checkpoint struct {
	Domain        string
	UniverseTotal int64
	Addresses     map[netip.Addr]bgp.ASN
	Serving       map[bgp.ASN]map[bgp.ASN]int64
	Ledger        map[netip.Prefix]*SubnetFault
	// Counters holds the scan counters by name (see counterNames).
	Counters map[string]int64
	// DoneRanges are inclusive [start, end] runs of completed universe
	// indices.
	DoneRanges [][2]int64
}

// LoadCheckpoint replays the journal at path. A missing file surfaces
// as os.ErrNotExist; an integrity failure as a *CorruptError carrying
// the path (errors.Is ErrCheckpointCorrupt) so callers can quarantine
// the file. A torn tail is not a failure: the state up to the last
// whole frame comes back.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	rp, err := replayJournal(path)
	if err != nil {
		return nil, err
	}
	ck := &Checkpoint{
		Domain:        rp.domain,
		UniverseTotal: rp.total,
		Addresses:     rp.shard.addrs,
		Serving:       rp.shard.servingMap(),
		Ledger:        ledgerOf([]*scanShard{rp.shard}),
		Counters:      make(map[string]int64, nCounters),
	}
	for i, name := range counterNames {
		ck.Counters[name] = rp.shard.counters[i]
	}
	rp.done.ranges(func(lo, hi int64) { ck.DoneRanges = append(ck.DoneRanges, [2]int64{lo, hi}) })
	return ck, nil
}

// WriteFile writes the checkpoint as a compacted journal — the header
// and one frame holding the whole state, rows sorted — atomically and
// durably (temp file, fsync, rename, directory fsync).
func (ck *Checkpoint) WriteFile(path string) error {
	if ck.UniverseTotal < 0 || ck.UniverseTotal > maxUniverse {
		return fmt.Errorf("core: checkpoint universe %d outside the IPv4 /24 space", ck.UniverseTotal)
	}
	var fr journalFrame
	for _, r := range ck.DoneRanges {
		if r[0] < 0 || r[1] < r[0] || r[1] >= ck.UniverseTotal {
			return fmt.Errorf("core: checkpoint done range %d-%d outside the %d-subnet universe", r[0], r[1], ck.UniverseTotal)
		}
		fr.done = append(fr.done, doneRange{r[0], r[1]})
	}
	for a, as := range ck.Addresses {
		fr.addrs = append(fr.addrs, addrEntry{a, as})
	}
	slices.SortFunc(fr.addrs, func(a, b addrEntry) int { return a.addr.Compare(b.addr) })
	for client, ops := range ck.Serving {
		for op, n := range ops {
			fr.serving = append(fr.serving, servingDelta{client, op, n})
		}
	}
	slices.SortFunc(fr.serving, func(a, b servingDelta) int {
		return cmp.Or(cmp.Compare(a.client, b.client), cmp.Compare(a.op, b.op))
	})
	for _, e := range ck.Ledger {
		fr.ledger = append(fr.ledger, *e)
	}
	slices.SortFunc(fr.ledger, func(a, b SubnetFault) int { return a.Subnet.Addr().Compare(b.Subnet.Addr()) })
	for i, name := range counterNames {
		fr.counters[i] = ck.Counters[name]
	}
	image := fr.appendTo(journalHeader{ck.Domain, ck.UniverseTotal}.appendTo(nil))
	return atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(image)
		return err
	})
}
