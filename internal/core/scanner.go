// Package core implements the paper's primary contribution: ECS-based
// enumeration of iCloud Private Relay ingress relays (§3, §4.1), the
// resulting ingress address dataset with client-AS attribution (Tables 1
// and 2), and a passive relay-traffic classifier built from the datasets
// (§6's suggestion to network operators).
//
// The scanner iterates /24 client subnets over the routed IPv4 space,
// attaches each as an EDNS0 Client Subnet option to A queries for the
// relay domains, and collects the returned ingress addresses. Two ethics
// measures from §7 are implemented faithfully: unrouted space is never
// queried, and answers whose ECS scope covers more than a /24 suppress
// all further queries inside that scope.
//
// The paper's headline scan ran ~40 hours against a rate-limited
// authoritative; the orchestration here is built to survive that:
// per-attempt classification of timeouts, SERVFAIL, REFUSED, truncation
// and stale responses, capped exponential backoff with deterministic
// jitter, a shared circuit breaker, a per-subnet failure ledger,
// deferred-subnet retry passes, and a checkpoint journal a killed scan
// resumes from with bit-identical results.
package core

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/colstore"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/faults"
	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/vclock"
)

// CheckpointConfig enables the scan journal so a killed scan restarts
// where it left off.
type CheckpointConfig struct {
	// Path is the journal file: an append-only sequence of CRC-framed
	// batch deltas (see journal.go).
	Path string
	// Every is how many newly completed /24s trigger a group commit —
	// one buffered write plus one fsync (default 1<<15). A kill loses at
	// most the batches since the last commit.
	Every int64
	// Resume replays Path if it exists and skips its completed subnets;
	// otherwise the scan starts a fresh journal there.
	Resume bool
}

// ScanConfig configures one ECS enumeration scan.
type ScanConfig struct {
	// Exchanger carries queries to the authoritative server.
	Exchanger dnsserver.Exchanger
	// Domain is the service domain to enumerate (mask.icloud.com for the
	// QUIC plane, mask-h2.icloud.com for the TCP fallback).
	Domain string
	// QType is the record type to query (default TypeA). AAAA scans are
	// supported but futile by design: the authoritative answers IPv6
	// with scope 0, so one vantage sees one record set (§3).
	QType dnswire.Type
	// Universe lists the routed IPv4 prefixes to cover. Unrouted space
	// is implicitly skipped by not being listed.
	Universe []netip.Prefix
	// Attribution resolves discovered addresses and client subnets to
	// origin ASes.
	Attribution *bgp.Table
	// RespectScope enables the §7 optimization: answers with a scope
	// shorter than /24 suppress further queries inside the scope.
	// The paper's scan always enables this; disabling it is the ablation.
	RespectScope bool
	// Concurrency is the number of parallel query workers (default 8).
	Concurrency int
	// Retries is the number of in-pass re-attempts after a retryable
	// failure (timeout, SERVFAIL, REFUSED, truncation, stale ID) before
	// the subnet is deferred to a later pass. The zero value makes none;
	// negative values count as zero. MonthScan sets 1.
	Retries int
	// QPS rate-limits the client side; zero disables limiting.
	QPS float64

	// Backoff paces re-attempts; the zero value disables backoff sleeps.
	Backoff BackoffConfig
	// Breaker trips on sustained SERVFAIL/REFUSED; zero Threshold
	// disables it.
	Breaker BreakerConfig
	// MaxPasses bounds the deferred-subnet retry passes (default 1: the
	// pre-resilience single sweep).
	MaxPasses int
	// Clock drives backoff, breaker cooldowns and inter-pass waits
	// (default wall clock; tests use a vclock.VirtualClock).
	Clock vclock.Clock
	// Checkpoint journals progress for kill/resume (nil disables).
	// Workers record the same way either way; with a journal each batch
	// is additionally encoded as a delta frame.
	Checkpoint *CheckpointConfig
}

// MonthScan is the paper's monthly ECS scan (§3) of domain over w as of
// month: the one configuration relayd, the report and ecsscan run. The
// queries go in memory to the month's authoritative server unless
// transport is non-nil (ecsscan's loopback UDP client). A non-nil
// profile puts a fault injector over the transport and adds the one
// resilience policy — 4 in-pass retries, 10 passes, 50 ms backoff, a
// 16-failure breaker — with injector and policy on clock (nil: wall).
// Callers set only what is theirs: workers, pacing, journal, wrappers.
func MonthScan(w *netsim.World, month bgp.Month, domain string, transport dnsserver.Exchanger, profile *faults.Profile, clock vclock.Clock) ScanConfig {
	if transport == nil {
		srv := dnsserver.NewAuthServer(w, month, nil)
		transport = &dnsserver.MemTransport{Handler: srv, Source: netip.MustParseAddr("198.51.100.53")}
	}
	cfg := ScanConfig{
		Exchanger:    transport,
		Domain:       domain,
		Universe:     w.RoutedV4Prefixes(),
		Attribution:  w.Table,
		RespectScope: true,
		Retries:      1,
		Clock:        clock,
	}
	if profile != nil {
		// Blackouts attribute through the table's memoized index, the
		// snapshot the scan itself attributes with: no per-scan copy.
		cfg.Exchanger = faults.NewInjector(transport, profile, clock, w.Table.Index().Origin)
		cfg.Retries, cfg.MaxPasses = 4, 10
		cfg.Backoff = BackoffConfig{Base: 50 * time.Millisecond}
		cfg.Breaker = BreakerConfig{Threshold: 16, Cooldown: 2 * time.Second}
	}
	return cfg
}

// ScanStats counts scanner activity.
type ScanStats struct {
	QueriesSent    int64 // query attempts sent; independent of Concurrency on a lossless transport, bar scope-0 races
	SubnetsTotal   int64 // /24s in the universe
	SubnetsSkipped int64 // suppressed by a covering scope
	Timeouts       int64 // subnets lost after every pass, last fault a timeout
	Errors         int64 // subnets lost to non-retryable errors or other faults

	// Per-attempt fault observations; these reconcile 1:1 against an
	// injecting fault plane's counters.
	TimeoutAttempts   int64
	ServFailAttempts  int64
	RefusedAttempts   int64
	TruncatedAttempts int64
	StaleAttempts     int64

	Retries        int64 // re-attempts beyond each subnet's first query
	Deferrals      int64 // subnet deferrals to a later pass
	BreakerTrips   int64
	Passes         int64
	ResumedSubnets int64 // skipped because the checkpoint marked them done
	FailedSubnets  int64 // subnets unrecovered after all passes

	// Ledger is the per-subnet failure ledger: every /24 that met at
	// least one fault, with per-kind counts and recovery status.
	Ledger map[netip.Prefix]*SubnetFault

	// Journal activity of this run (zero without a Checkpoint). Like the
	// counters above these describe the path, not the result: frames and
	// bytes appended, group commits (fsyncs), and the bytes of a torn
	// tail dropped when resuming.
	CheckpointFrames    int64
	CheckpointBytes     int64
	CheckpointSyncs     int64
	CheckpointTornBytes int64

	Elapsed time.Duration
}

// FaultAttempts sums the per-attempt fault observations.
func (s *ScanStats) FaultAttempts() int64 {
	return s.TimeoutAttempts + s.ServFailAttempts + s.RefusedAttempts +
		s.TruncatedAttempts + s.StaleAttempts
}

// Dataset is the result of one scan: the ingress addresses with their
// origin ASes and the per-client-AS served /24 counts, as sorted columns
// (the only in-memory dataset shape), plus the counters of the scan that
// produced them.
type Dataset struct {
	colstore.Dataset
	// Stats holds scanner counters.
	Stats ScanStats
}

// ErrNoExchanger is returned for scans without a transport.
var ErrNoExchanger = errors.New("core: scan config has no exchanger")

// workBatchSize is how many /24s a worker processes per journal frame,
// and the most pending refs one later-pass work unit carries.
const workBatchSize = 64

// addrKey32 packs a (canonical) IPv4 address for range comparison.
func addrKey32(addr netip.Addr) (uint32, bool) {
	if addr.Is4In6() {
		addr = addr.Unmap()
	}
	if !addr.Is4() {
		return 0, false
	}
	a4 := addr.As4()
	return uint32(a4[0])<<24 | uint32(a4[1])<<16 | uint32(a4[2])<<8 | uint32(a4[3]), true
}

// spanRange returns p's inclusive IPv4 address range.
func spanRange(p netip.Prefix) (lo, hi uint32, ok bool) {
	lo, ok = addrKey32(p.Addr())
	if !ok {
		return 0, 0, false
	}
	bits := p.Bits()
	if bits < 0 || bits > 32 {
		return 0, 0, false
	}
	mask := ^uint32(0) >> uint(bits) // host bits (bits==32 → 0)
	if bits == 0 {
		mask = ^uint32(0)
	}
	lo &^= mask
	return lo, lo | mask, true
}

// subnetRef is one /24 to scan: its prefix, its stable index in the
// universe enumeration (for the checkpoint bitmap) and its cumulative
// attempt count, carried across passes so retry randomness and backoff
// keep progressing instead of replaying.
type subnetRef struct {
	p        netip.Prefix
	idx      int64
	attempts int32
}

// scanShard is one accumulator: a worker's private shard for the whole
// scan, or the state a resumed journal replays into. Workers never
// share mutable state on the steady-state path.
type scanShard struct {
	addrs   map[netip.Addr]bgp.ASN
	serving map[bgp.ASN]*opCounts // client AS → operator → /24s
	// faults is the shard's failure ledger in the order it was written:
	// one entry per run of consecutive faults of a /24, so recording a
	// fault is a compare with the last entry, not a map probe. A /24
	// deferred to a later pass may own several entries; ledgerOf folds
	// them. Entries are carved from chunks of faultChunkLen, so a
	// faulted /24 costs no heap object of its own.
	faults   [][]SubnetFault
	counters scanCounters
}

// faultChunkLen is how many ledger entries one chunk holds.
const faultChunkLen = 256

func newScanShard() *scanShard {
	return &scanShard{
		addrs:   make(map[netip.Addr]bgp.ASN),
		serving: make(map[bgp.ASN]*opCounts),
	}
}

// opCounts is one client AS's served-/24 counters, one entry per
// operator in first-served order. A client AS sees only a handful of
// operators, so a bump is a short scan of a dense list, not a map
// probe.
type opCounts []opCount

type opCount struct {
	op bgp.ASN
	n  int64
}

// add counts n more /24s served by op.
func (c *opCounts) add(op bgp.ASN, n int64) {
	for i := range *c {
		if e := &(*c)[i]; e.op == op {
			e.n += n
			return
		}
	}
	*c = append(*c, opCount{op, n})
}

// servingOf returns client's per-operator counters, creating them on
// first sight.
func (sh *scanShard) servingOf(client bgp.ASN) *opCounts {
	ops := sh.serving[client]
	if ops == nil {
		ops = new(opCounts)
		sh.serving[client] = ops
	}
	return ops
}

// servingMap copies the shard's serving counters out as nested maps.
func (sh *scanShard) servingMap() map[bgp.ASN]map[bgp.ASN]int64 {
	out := make(map[bgp.ASN]map[bgp.ASN]int64, len(sh.serving))
	for client, ops := range sh.serving {
		m := make(map[bgp.ASN]int64, len(*ops))
		for _, e := range *ops {
			m[e.op] = e.n
		}
		out[client] = m
	}
	return out
}

// fault returns the ledger entry for subnet's current run of faults:
// the last entry when it is subnet's, else a new, empty one.
func (sh *scanShard) fault(subnet netip.Prefix) *SubnetFault {
	if n := len(sh.faults); n > 0 {
		last := sh.faults[n-1]
		if e := &last[len(last)-1]; e.Subnet == subnet {
			return e
		}
	}
	return sh.appendFault(SubnetFault{Subnet: subnet})
}

// appendFault adds a copy of e to the ledger and returns it.
func (sh *scanShard) appendFault(e SubnetFault) *SubnetFault {
	n := len(sh.faults)
	if n == 0 || len(sh.faults[n-1]) == faultChunkLen {
		sh.faults = append(sh.faults, make([]SubnetFault, 0, faultChunkLen))
		n++
	}
	chunk := append(sh.faults[n-1], e)
	sh.faults[n-1] = chunk
	return &chunk[len(chunk)-1]
}

// ledgerOf folds the shards' ledger entries into one entry per /24, in
// shard order and, within a shard, in the order they were written. The
// map adopts the entries; it needs no copies.
func ledgerOf(shards []*scanShard) map[netip.Prefix]*SubnetFault {
	n := 0
	for _, sh := range shards {
		for _, chunk := range sh.faults {
			n += len(chunk)
		}
	}
	ledger := make(map[netip.Prefix]*SubnetFault, n)
	for _, sh := range shards {
		for _, chunk := range sh.faults {
			for i := range chunk {
				e := &chunk[i]
				if have, ok := ledger[e.Subnet]; ok {
					have.merge(e)
				} else {
					ledger[e.Subnet] = e
				}
			}
		}
	}
	return ledger
}

// absorb folds another shard's addresses, serving counts and counters
// into sh; ledgerOf folds the ledgers.
func (sh *scanShard) absorb(o *scanShard) {
	for addr, as := range o.addrs {
		sh.addrs[addr] = as
	}
	for clientAS, ops := range o.serving {
		dst := sh.servingOf(clientAS)
		for _, e := range *ops {
			dst.add(e.op, e.n)
		}
	}
	sh.counters.add(&o.counters)
}

// workerAux is a worker's private lookup state, persisted across passes
// (unlike the per-pass scanWorker): the answer-address origin memo, the
// galloping attribution cursor, the scope memo and the pacer grant.
// Nothing in it is shared, so the steady-state loop never touches
// cross-worker memory for lookups.
type workerAux struct {
	// origins4/origins memoize attribution of answer addresses (IPv4 in
	// an open-addressing table keyed by the packed address, IPv6 and
	// 0.0.0.0 in a map). Answers repeat heavily (one fleet of ~1.6k
	// addresses serves the whole universe), so after warm-up every A
	// record resolves with one multiply-shift and, almost always, one
	// slot compare instead of a routing-index search.
	origins4 originTable
	origins  map[netip.Addr]bgp.ASN
	// cursor resolves each subnet's own client AS. Worker subnet
	// sequences ascend, so the cursor's gallop replaces a full binary
	// search with a few neighbor probes.
	cursor bgp.Cursor
	// Scope memo (see scanWorker.setScope): the range of the last answer
	// scope narrower than /24 in the current unit, and its operator.
	// Reset at every unit start; empty when scopeLo > scopeHi.
	scopeLo, scopeHi uint32
	scopeOp          bgp.ASN
	// Route-range accounting memo (see scanWorker.account): the address
	// range of the last covering client route, its client AS and the
	// per-operator counters it resolved to in the worker's shard (nil =
	// no memo).
	accLo, accHi uint32
	accClient    bgp.ASN
	accOps       *opCounts
	// grant is the worker's outstanding pacer tranche.
	grant pacerGrant

	// Journal mode only (nil otherwise): delta collects what the batch
	// in progress adds to the shard, and journalled is the shard's
	// counters as of the last sealed frame.
	delta      *journalFrame
	journalled scanCounters
}

// foldAddr attributes one answer address and enters it into the shard's
// address ledger, memoizing both: after this worker's first sight of an
// address, later folds are a single inlined table probe with no
// writes (the memo is only ever filled alongside a ledger write, so a
// hit proves the address is already in this worker's shard).
func (w *scanWorker) foldAddr(addr netip.Addr) bgp.ASN {
	if addr.Is4() {
		a4 := addr.As4()
		// 0.0.0.0 cannot enter origins4 (its key marks an empty slot)
		// and takes the map path below.
		if key := uint32(a4[0])<<24 | uint32(a4[1])<<16 | uint32(a4[2])<<8 | uint32(a4[3]); key != 0 {
			s := w.aux.origins4.find(key)
			if s.key != 0 {
				return s.as
			}
			as, _ := w.st.idx.Origin(addr)
			w.aux.origins4.fill(s, key, as)
			w.firstSight(addr, as)
			return as
		}
	}
	if as, ok := w.aux.origins[addr]; ok {
		return as
	}
	as, _ := w.st.idx.Origin(addr)
	w.aux.origins[addr] = as
	w.firstSight(addr, as)
	return as
}

// firstSight enters an address this worker has not met into its shard
// and, in journal mode, into the batch delta — so the address is
// journalled no later than the first done bit that depends on it.
func (w *scanWorker) firstSight(addr netip.Addr, as bgp.ASN) {
	w.sh.addrs[addr] = as
	if d := w.aux.delta; d != nil {
		d.addrs = append(d.addrs, addrEntry{addr, as})
	}
}

// account attributes one served /24 to the subnet's own client AS under
// the given operator. Consecutive subnets overwhelmingly share one
// covering client route (routes span 4–1024 /24s), so the last route's
// address range and its per-operator counters are memoized in the
// worker aux: the steady state is one range check and one counter
// bump.
func (w *scanWorker) account(subnet netip.Prefix, operator bgp.ASN) {
	aux := w.aux
	a, ok := addrKey32(subnet.Addr())
	if !ok || aux.accOps == nil || a < aux.accLo || a > aux.accHi {
		route, clientAS, routed := aux.cursor.CoveringPrefix(subnet)
		if !routed {
			return
		}
		aux.accClient, aux.accOps = clientAS, w.sh.servingOf(clientAS)
		var spanned bool
		if aux.accLo, aux.accHi, spanned = spanRange(route); !spanned {
			aux.accLo, aux.accHi = 1, 0 // empty range: never hits
		}
	}
	aux.accOps.add(operator, 1)
	if aux.delta != nil {
		aux.delta.serve(aux.accClient, operator)
	}
}

// skipCovered handles a subnet suppressed by a covering scope: the
// covering answer serves it too, so it is accounted to its own client AS
// under the operator recorded with the scope entry — the accounting a
// direct query would have produced, without sending one.
func (w *scanWorker) skipCovered(subnet netip.Prefix, operator bgp.ASN) {
	w.sh.counters[cSkipped]++
	w.account(subnet, operator)
}

// record folds one successful response into the shard.
func (w *scanWorker) record(subnet netip.Prefix, resp *dnswire.Message) {
	if resp.Header.RCode != dnswire.RCodeNoError || len(resp.Answers) == 0 {
		return
	}
	st, cfg := w.st, w.st.cfg
	var operator bgp.ASN
	for i := range resp.Answers {
		if rec := &resp.Answers[i]; rec.Type == dnswire.TypeA || rec.Type == dnswire.TypeAAAA {
			operator = w.foldAddr(rec.Addr) // all records of one answer share an AS (§4.1)
		}
	}

	if cfg.RespectScope && resp.Edns != nil && resp.Edns.ClientSubnet != nil {
		cs := resp.Edns.ClientSubnet
		switch {
		case cs.ScopePrefixLen == 0:
			// A scope of zero declares the answer valid for the entire
			// address space — nothing more can be learned from further
			// ECS queries. Exactly one worker wins the publication; a
			// loser's subnet would have been skipped had the scan run
			// sequentially, so it counts as skipped.
			op := operator
			if !st.global.CompareAndSwap(nil, &op) {
				w.sh.counters[cSkipped]++
			}
		case cs.ScopePrefixLen < 24:
			w.setScope(cs.ScopePrefix(), operator)
		}
	}
	w.account(subnet, operator)
}

// setScope makes scope the worker's scope memo. A unit is swept in
// ascending order and scopes, covering routes over disjoint allocations,
// never nest: the last scope met is the only one a later /24 of the unit
// can fall in. The unit's earlier deferrals inside the scope — a tail of
// w.deferred — are settled as skipped and done, not re-queried.
func (w *scanWorker) setScope(scope netip.Prefix, op bgp.ASN) {
	lo, hi, ok := spanRange(scope)
	if !ok {
		return
	}
	aux := w.aux
	aux.scopeLo, aux.scopeHi, aux.scopeOp = lo, hi, op
	for n := len(w.deferred); n > w.unitStart; n-- {
		ref := w.deferred[n-1]
		if a, _ := addrKey32(ref.p.Addr()); a < lo || a > hi {
			break
		}
		w.deferred = w.deferred[:n-1]
		w.skipCovered(ref.p, op)
		if aux.delta != nil {
			aux.delta.markDone(ref.idx)
		}
	}
}

// attemptOutcome classifies one exchange.
type attemptOutcome int8

const (
	outcomeOK attemptOutcome = iota
	outcomeTimeout
	outcomeServFail
	outcomeRefused
	outcomeTruncated
	outcomeStale
	outcomeError // non-retryable transport error
)

func classify(resp *dnswire.Message, err error, wantID uint16) attemptOutcome {
	switch {
	case errors.Is(err, dnsserver.ErrTimeout):
		return outcomeTimeout
	case err != nil:
		return outcomeError
	case resp.Header.ID != wantID:
		return outcomeStale
	case resp.Header.RCode == dnswire.RCodeServFail:
		return outcomeServFail
	case resp.Header.RCode == dnswire.RCodeRefused:
		return outcomeRefused
	case resp.Header.Truncated && len(resp.Answers) == 0:
		return outcomeTruncated
	default:
		return outcomeOK
	}
}

// scanState carries the shared scan machinery across passes.
type scanState struct {
	cfg     *ScanConfig
	idx     *bgp.Index // flattened attribution snapshot (nil-safe)
	clock   vclock.Clock
	global  atomic.Pointer[bgp.ASN] // set once by the first scope-0 answer
	limiter *tokenBucket
	breaker *circuitBreaker
	auxes   []*workerAux // per-worker lookup state, persistent across passes

	// Journal mode state (nil without a Checkpoint). The collector
	// goroutine owns journal while a pass runs; resumed is the done
	// bitmap the journal replayed to, read-only from then on.
	journal *journalWriter
	resumed *bitset

	scanErr error
	errOnce sync.Once
}

func (st *scanState) fail(err error) {
	st.errOnce.Do(func() { st.scanErr = err })
}

// scanWorker is one worker's per-pass view.
type scanWorker struct {
	st       *scanState
	sh       *scanShard // the worker's shard, persistent across passes
	aux      *workerAux // persistent lookup state (memos, cursor, grant)
	deferred []subnetRef
	// unitStart is len(deferred) at the current unit's start.
	unitStart int

	// Journal mode only: the /24s processed since the last frame, and
	// the collector's channels for frames and recycled frame buffers.
	unsealed  int
	results   chan<- batchResult
	frameFree <-chan []byte

	// query is the worker's reusable query message: built once, then only
	// the transaction ID and ECS prefix are re-stamped per subnet. Safe
	// because Exchangers never retain the query past the call and the
	// question section is immutable across subnets.
	query *dnswire.Message
}

// outcomeFault maps a retryable outcome to its fault kind and attempt
// counter. outcomeOK and outcomeError never reach the fault ledger:
// successes carry no fault and terminal transport errors are accounted
// in cTermErrors.
var outcomeFault = [...]struct {
	kind    faults.Kind
	counter int
}{
	outcomeTimeout:   {faults.KindTimeout, cTimeoutAttempts},
	outcomeServFail:  {faults.KindServFail, cServFailAttempts},
	outcomeRefused:   {faults.KindRefused, cRefusedAttempts},
	outcomeTruncated: {faults.KindTruncate, cTruncatedAttempts},
	outcomeStale:     {faults.KindStale, cStaleAttempts},
}

// ledgerFail records one failed attempt for the subnet.
func (w *scanWorker) ledgerFail(subnet netip.Prefix, out attemptOutcome) {
	f := outcomeFault[out]
	w.sh.fault(subnet).note(f.kind)
	w.sh.counters[f.counter]++
	if d := w.aux.delta; d != nil {
		d.fault(subnet).note(f.kind)
	}
}

// processSubnet runs one subnet to completion, deferral or terminal
// failure. It reports whether the subnet is done (success, scope-skip or
// terminal error); deferred subnets are appended to w.deferred with
// their attempt count advanced.
func (w *scanWorker) processSubnet(ctx context.Context, ref subnetRef) bool {
	st, cfg, sh := w.st, w.st.cfg, w.sh
	if cfg.RespectScope {
		if op := st.global.Load(); op != nil {
			w.skipCovered(ref.p, *op)
			return true
		}
		if a, ok := addrKey32(ref.p.Addr()); ok && w.aux.scopeLo <= a && a <= w.aux.scopeHi {
			w.skipCovered(ref.p, w.aux.scopeOp)
			return true
		}
	}

	key := iputil.HashPrefix(ref.p)
	for inPass := 0; ; inPass++ {
		admitted, probe := st.breaker.acquire(ctx)
		if !admitted {
			w.defer_(ref)
			return false
		}
		st.limiter.wait(ctx, &w.aux.grant)

		// A fresh transaction ID per attempt: a late response to attempt
		// N cannot satisfy attempt N+1. The query message itself is the
		// worker's reusable one — only the ID and ECS prefix change.
		id := uint16(iputil.Mix(key, uint64(ref.attempts)))
		if w.query == nil {
			w.query = dnswire.NewQuery(id, cfg.Domain, cfg.QType)
		}
		q := w.query
		q.Header.ID = id
		q.SetECS(ref.p)
		resp, err := cfg.Exchanger.Exchange(ctx, q)
		sh.counters[cQueries]++
		if ref.attempts > 0 {
			sh.counters[cRetries]++
		}
		ref.attempts++

		out := classify(resp, err, id)
		switch out {
		case outcomeOK:
			st.breaker.success(probe)
			w.record(ref.p, resp)
			// record copies everything it keeps; the pooled response can
			// go back for the next exchange.
			dnswire.ReleaseMessage(resp)
			return true
		case outcomeError:
			if ctx.Err() != nil {
				// Cancellation is not a subnet failure: leave the subnet
				// incomplete so a checkpoint resume redoes it.
				st.fail(ctx.Err())
				w.defer_(ref)
				return false
			}
			// Non-retryable transport error: the subnet is lost, the scan
			// carries on.
			sh.counters[cTermErrors]++
			return true
		case outcomeServFail, outcomeRefused:
			st.breaker.serverFailure(probe)
		default:
			// Timeouts, truncation and stale responses do not feed the
			// breaker, but a failed half-open probe must re-open it.
			if probe {
				st.breaker.serverFailure(true)
			}
		}
		// Failure responses (ServFail, Refused, truncated, stale) carry
		// nothing worth keeping; timeouts have no response at all.
		dnswire.ReleaseMessage(resp)
		w.ledgerFail(ref.p, out)

		if inPass >= cfg.Retries || ctx.Err() != nil {
			w.defer_(ref)
			return false
		}
		retryIdx := int(ref.attempts) - 1
		if d := cfg.Backoff.Delay(retryIdx, iputil.Mix(key, uint64(retryIdx)^0xBACC0FF)); d > 0 {
			if st.clock.Sleep(ctx, d) != nil {
				w.defer_(ref)
				return false
			}
		}
	}
}

// defer_ pushes the subnet to the next pass. Recovery status is not
// tracked here: whether a ledgered subnet ultimately recovered is
// decided at finalize time from the still-pending set, which also
// covers subnets the breaker deferred before any attempt and subnets a
// later pass completed via a covering scope.
func (w *scanWorker) defer_(ref subnetRef) {
	w.sh.counters[cDeferrals]++
	w.deferred = append(w.deferred, ref)
}

// batchResult is one batch's journal frame on its way to the
// collector, with the number of /24s it completes.
type batchResult struct {
	frame []byte
	done  int64
}

// sealBatch encodes what the worker's last workBatchSize /24s (or, at
// pass end, its remainder) added to its shard as one journal frame in
// buf, and starts the next batch's delta.
func (w *scanWorker) sealBatch(buf []byte) batchResult {
	d := w.aux.delta
	for i, v := range w.sh.counters {
		d.counters[i] = v - w.aux.journalled[i]
	}
	w.aux.journalled = w.sh.counters
	br := batchResult{frame: d.appendTo(buf[:0]), done: d.doneCount()}
	d.reset()
	return br
}

// universeSize counts the /24s the scan will cover.
func universeSize(universe []netip.Prefix) int64 {
	var total int64
	for _, p := range universe {
		if p.Addr().Is4() {
			total += int64(iputil.SubnetCount(p, 24))
		}
	}
	return total
}

// Scan runs the enumeration and returns the dataset.
//
// The steady-state path is contention-free: each worker takes whole
// work units (a universe prefix on the first pass, up to workBatchSize
// pending /24s after), accumulates into a private shard (merged once at
// the end), skips covered /24s with its own scope memo, and paces itself
// on an atomic token bucket. Because a unit's skips depend only on the
// unit, the dataset's columns, SubnetsTotal, SubnetsSkipped and
// QueriesSent are deterministic — identical for any Concurrency — on a
// lossless deterministic transport. The one exception is a scope-0
// answer (AAAA): the first one suppresses every later query scan-wide,
// so workers racing it may send a few more queries. Under a fault plane
// the columns stay identical once every subnet recovers (MaxPasses
// permitting): faults change the path, not the dataset.
func Scan(ctx context.Context, cfg ScanConfig) (*Dataset, error) {
	if cfg.Exchanger == nil {
		return nil, ErrNoExchanger
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.QType == 0 {
		cfg.QType = dnswire.TypeA
	}
	if cfg.MaxPasses <= 0 {
		cfg.MaxPasses = 1
	}
	if cfg.Backoff.Cap <= 0 {
		cfg.Backoff.Cap = 64 * cfg.Backoff.Base
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.WallClock{}
	}
	start := cfg.Clock.Now()
	ds := &Dataset{Dataset: colstore.Dataset{Domain: dnswire.CanonicalName(cfg.Domain)}}
	var idx *bgp.Index
	if cfg.Attribution != nil {
		// Table.Index is memoized: the flattened snapshot is built once
		// per table, not once per scan.
		idx = cfg.Attribution.Index()
	}

	st := &scanState{
		cfg:     &cfg,
		idx:     idx,
		clock:   cfg.Clock,
		limiter: newTokenBucket(cfg.QPS, pacerBatch, cfg.Clock),
		breaker: newCircuitBreaker(cfg.Breaker, cfg.Clock),
	}

	total := universeSize(cfg.Universe)
	ds.Stats.SubnetsTotal = total

	shards := make([]*scanShard, cfg.Concurrency)
	st.auxes = make([]*workerAux, cfg.Concurrency)
	for i := range shards {
		shards[i] = newScanShard()
		st.auxes[i] = &workerAux{
			origins4: newOriginTable(),
			origins:  make(map[netip.Addr]bgp.ASN),
			cursor:   idx.Cursor(),
		}
	}

	// Journal mode: replay prior progress into one more shard for the
	// final merge, and give every worker a batch delta to fill.
	if cfg.Checkpoint != nil {
		j, resumed, err := openJournal(cfg.Checkpoint, ds.Domain, total)
		if err != nil {
			return nil, err
		}
		defer j.f.Close()
		st.journal, st.resumed = j, resumed.done
		shards = append(shards, resumed.shard)
		ds.Stats.ResumedSubnets = resumed.done.count()
		ds.Stats.CheckpointTornBytes = resumed.torn
		for _, aux := range st.auxes {
			aux.delta = new(journalFrame)
		}
	}

	var pending []subnetRef
	for pass := 1; ; pass++ {
		ds.Stats.Passes++
		pending = st.runPass(ctx, shards, pending)
		if len(pending) == 0 || pass >= cfg.MaxPasses || ctx.Err() != nil || (st.journal != nil && st.journal.err != nil) {
			break
		}
		// Inter-pass backoff: give outages room to clear before the
		// next sweep over the deferred set.
		if d := cfg.Backoff.Delay(pass+2, iputil.Mix(uint64(pass)^0x9A55, uint64(pass+2)^0xBACC0FF)); d > 0 {
			if st.clock.Sleep(ctx, d) != nil {
				break
			}
		} else if cfg.Backoff.Base <= 0 && st.breaker != nil {
			// Breaker without backoff: still let the cooldown elapse.
			_ = st.clock.Sleep(ctx, st.breaker.cfg.Cooldown)
		}
	}

	// Merge the other worker shards (and, on a resume, the replayed one)
	// into the first, then lay the result out as sorted columns — the
	// tree's one map-to-columns step. A one-worker scan merges nothing.
	merged := shards[0]
	for _, sh := range shards[1:] {
		merged.absorb(sh)
	}
	ledger := ledgerOf(shards)
	for addr, as := range merged.addrs {
		ds.AppendAddr(addr, as)
	}
	for clientAS, ops := range merged.serving {
		for _, e := range *ops {
			ds.AppendServing(clientAS, e.op, e.n)
		}
	}
	if err := ds.Normalize(); err != nil {
		return nil, fmt.Errorf("core: scan %s: %w", ds.Domain, err)
	}
	c := &merged.counters
	ds.Stats.QueriesSent = c[cQueries]
	ds.Stats.SubnetsSkipped = c[cSkipped]
	ds.Stats.Retries = c[cRetries]
	ds.Stats.Deferrals = c[cDeferrals]
	ds.Stats.TimeoutAttempts = c[cTimeoutAttempts]
	ds.Stats.ServFailAttempts = c[cServFailAttempts]
	ds.Stats.RefusedAttempts = c[cRefusedAttempts]
	ds.Stats.TruncatedAttempts = c[cTruncatedAttempts]
	ds.Stats.StaleAttempts = c[cStaleAttempts]
	ds.Stats.BreakerTrips = st.breaker.tripCount()
	ds.Stats.Ledger = ledger
	ds.Stats.Errors = c[cTermErrors]

	// Recovery is decided here, not during the scan: a subnet is
	// unrecovered iff it is still pending when the passes end. Everything
	// else in the ledger — including subnets a later pass completed via a
	// covering scope — recovered.
	unrecovered := make(map[netip.Prefix]bool, len(pending))
	for _, ref := range pending {
		unrecovered[ref.p] = true
		if _, ok := ledger[ref.p]; !ok {
			// Deferred before any attempt (breaker denial, cancellation).
			ledger[ref.p] = &SubnetFault{Subnet: ref.p}
		}
	}
	for p, e := range ledger {
		if !unrecovered[p] {
			e.Recovered = true
			continue
		}
		e.Recovered = false
		ds.Stats.FailedSubnets++
		if e.LastKind == faults.KindTimeout && e.Timeouts > 0 {
			ds.Stats.Timeouts++
		} else {
			ds.Stats.Errors++
		}
	}

	// Final group commit — at scan end and on cancellation alike — so
	// every batch the workers finished is durable, and resuming a
	// finished scan replays everything and queries nothing.
	var journalErr error
	if j := st.journal; j != nil {
		if j.err == nil {
			j.err = j.sync()
		}
		journalErr = j.err
		ds.Stats.CheckpointFrames, ds.Stats.CheckpointBytes = j.frames, j.bytes
		ds.Stats.CheckpointSyncs = j.syncs
	}

	ds.Stats.Elapsed = cfg.Clock.Now().Sub(start)
	// Unrecovered subnets are not an error — like the pre-resilience
	// scanner, losses live in Stats (Timeouts, Errors, FailedSubnets,
	// Ledger) and the dataset carries everything collected.
	switch {
	case st.scanErr != nil:
		return ds, st.scanErr
	case ctx.Err() != nil:
		return ds, ctx.Err()
	case journalErr != nil:
		return ds, fmt.Errorf("core: checkpoint %s: %w", cfg.Checkpoint.Path, journalErr)
	}
	return ds, nil
}

// cancelled reports whether done, a context's Done channel, is closed.
// The scan worker asks before every subnet; on a cancelCtx ctx.Err()
// takes the context's mutex, the receive does not.
func cancelled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// workUnit is one channel send: on pass 1 a universe prefix, whose /24s
// the worker enumerates itself from universe index first; afterwards
// refs, at most workBatchSize pending /24s. A scope memo lives for one
// unit, so what a unit skips does not depend on which worker ran it.
type workUnit struct {
	prefix netip.Prefix
	first  int64
	refs   []subnetRef
}

// run works through units until work closes, then seals its last frame.
func (w *scanWorker) run(ctx context.Context, work <-chan workUnit) {
	done := ctx.Done()
	step := func(ref subnetRef) bool {
		if cancelled(done) {
			w.st.fail(ctx.Err())
			return false
		}
		finished := w.processSubnet(ctx, ref)
		if w.results != nil {
			if finished {
				w.aux.delta.markDone(ref.idx)
			}
			if w.unsealed++; w.unsealed == workBatchSize {
				w.seal()
			}
		}
		return true
	}
	for u := range work {
		w.aux.scopeLo, w.aux.scopeHi = 1, 0
		w.unitStart = len(w.deferred)
		if u.refs == nil {
			// Resumed /24s were completed by an earlier run.
			i := u.first - 1
			iputil.Subnets(u.prefix, 24, func(s netip.Prefix) bool {
				i++
				return w.st.resumed.get(i) || step(subnetRef{p: s, idx: i})
			})
		}
		for _, ref := range u.refs {
			if !step(ref) {
				break
			}
		}
	}
	if w.unsealed > 0 {
		w.seal()
	}
}

// seal hands the frame of the worker's unsealed /24s to the collector.
func (w *scanWorker) seal() {
	var buf []byte
	select {
	case buf = <-w.frameFree:
	default:
	}
	w.results <- w.sealBatch(buf)
	w.unsealed = 0
}

// runPass sweeps one source of work — the universe when pending is nil
// (pass 1), the deferred set afterwards — and returns the subnets still
// pending.
func (st *scanState) runPass(ctx context.Context, shards []*scanShard, pending []subnetRef) []subnetRef {
	cfg := st.cfg
	work := make(chan workUnit, 2*cfg.Concurrency)

	// Journal mode: workers hand each frame to the collector, the
	// journal's only writer, so frames land in receive order — a worker's
	// own frames stay in order, which is all replay needs. Frame buffers
	// cycle back through frameFree, which holds two per worker so neither
	// side waits on the other in the steady state.
	var results chan batchResult
	var frameFree chan []byte
	var collectorDone chan struct{}
	if st.journal != nil {
		results = make(chan batchResult, 2*cfg.Concurrency)
		frameFree = make(chan []byte, 2*cfg.Concurrency)
		collectorDone = make(chan struct{})
		go func() {
			defer close(collectorDone)
			for br := range results {
				st.journal.append(br.frame, br.done)
				select {
				case frameFree <- br.frame:
				default:
				}
			}
		}()
	}

	workers := make([]*scanWorker, cfg.Concurrency)
	var wg sync.WaitGroup
	wg.Add(cfg.Concurrency)
	for i := range workers {
		w := &scanWorker{st: st, sh: shards[i], aux: st.auxes[i], results: results, frameFree: frameFree}
		workers[i] = w
		go func() {
			defer wg.Done()
			w.run(ctx, work)
			// Hand unused pacer slots back so the pacer's timeline
			// reflects exactly the queries sent.
			st.limiter.release(&w.aux.grant)
		}()
	}

	// Feed the pass: one unit per universe prefix, in universe order, or
	// the sorted pending set in sub-slices. Workers drain work even when
	// cancelled, so a send never blocks for good.
	done := ctx.Done()
	if pending == nil {
		idx := int64(0)
		for _, p := range cfg.Universe {
			if cancelled(done) {
				break
			}
			if p.Addr().Is4() {
				work <- workUnit{prefix: p, first: idx}
				idx += int64(iputil.SubnetCount(p, 24))
			}
		}
	}
	for len(pending) > 0 && !cancelled(done) {
		n := min(len(pending), workBatchSize)
		work <- workUnit{refs: pending[:n:n]}
		pending = pending[n:]
	}
	close(work)
	wg.Wait()
	if results != nil {
		close(results)
		<-collectorDone
	}

	var deferred []subnetRef
	for _, w := range workers {
		deferred = append(deferred, w.deferred...)
		w.deferred = nil
	}
	// Deterministic next-pass order regardless of worker interleaving.
	slices.SortFunc(deferred, func(a, b subnetRef) int { return int(a.idx - b.idx) })
	return deferred
}

// tokenBucket is a lock-free client-side pacer: the bucket state is one
// atomic timestamp (the next free send slot in nanoseconds) advanced by
// compare-and-swap, so pacing never serializes workers on a mutex and
// the sleep happens outside any shared critical section. It reads and
// sleeps on the scan's injected clock, so paced chaos runs on a
// VirtualClock cost no wall time.
//
// Grants are batched: one CAS claims a tranche of batch consecutive
// send slots into the caller's pacerGrant, and the following batch-1
// waits are served from the grant without touching shared state. Each
// slot is still slept to individually — the tranche pre-books the
// timeline, it does not burst — so the long-run rate is exactly QPS.
// Unused slots must be handed back with release so the booked timeline
// matches the queries actually sent.
type tokenBucket struct {
	interval int64 // nanoseconds per query; 0 disables pacing
	batch    int64 // send slots claimed per CAS
	clock    vclock.Clock
	next     atomic.Int64
}

// pacerBatch is the scan's tranche size: large enough to cut
// cross-worker contention on the pacer's atomic timestamp, small enough
// that a drained pass hands back few booked slots.
const pacerBatch = 16

// newTokenBucket paces at qps in tranches of batch slots; Scan always
// passes pacerBatch, the equivalence tests sweep other sizes.
func newTokenBucket(qps float64, batch int, clock vclock.Clock) *tokenBucket {
	if qps <= 0 {
		return &tokenBucket{clock: clock}
	}
	return &tokenBucket{
		interval: int64(float64(time.Second) / qps),
		batch:    int64(batch),
		clock:    clock,
	}
}

// pacerGrant is a worker's outstanding tranche of send slots: base is
// the timestamp of the next unused slot, left counts slots remaining.
type pacerGrant struct {
	base int64
	left int64
}

// wait blocks until the caller's next send slot. Slots come from g when
// it still holds any, otherwise one CAS claims the next tranche.
func (b *tokenBucket) wait(ctx context.Context, g *pacerGrant) {
	if b.interval == 0 {
		return
	}
	if g.left > 0 {
		slot := g.base
		g.base += b.interval
		g.left--
		if wait := slot - b.clock.Now().UnixNano(); wait > 0 {
			_ = b.clock.Sleep(ctx, time.Duration(wait))
		}
		return
	}
	for {
		now := b.clock.Now().UnixNano()
		next := b.next.Load()
		target := next
		if now > target {
			target = now
		}
		if b.next.CompareAndSwap(next, target+b.interval*b.batch) {
			g.base = target + b.interval
			g.left = b.batch - 1
			if wait := target - now; wait > 0 {
				_ = b.clock.Sleep(ctx, time.Duration(wait))
			}
			return
		}
	}
}

// release returns g's unused slots to the bucket, so pauses between
// passes (or a drained work queue) don't leave booked-but-unsent slots
// inflating the pacer's timeline.
func (b *tokenBucket) release(g *pacerGrant) {
	if g.left > 0 && b.interval != 0 {
		b.next.Add(-g.left * b.interval)
	}
	g.base, g.left = 0, 0
}
