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
// and stale responses, exponential backoff with decorrelated jitter, a
// shared circuit breaker, a per-subnet failure ledger, deferred-subnet
// retry passes, and a checkpoint journal a killed scan resumes from with
// bit-identical results.
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
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/faults"
	"github.com/relay-networks/privaterelay/internal/iputil"
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
	// the subnet is deferred to a later pass (default 1).
	Retries int
	// QPS rate-limits the client side; zero disables limiting.
	QPS float64
	// PacerBatch is how many send-slots a worker claims from the pacer
	// per CAS (default 16). Larger tranches cut cross-worker contention
	// on the pacer's atomic timestamp; each slot is still slept to
	// individually, so the long-run rate stays exactly QPS. Unused slots
	// are returned when a pass drains.
	PacerBatch int

	// Backoff paces re-attempts; the zero value disables backoff sleeps.
	Backoff BackoffConfig
	// Breaker trips on sustained SERVFAIL/REFUSED; zero Threshold
	// disables it.
	Breaker BreakerConfig
	// RetryBudget caps the retries each worker may spend per pass
	// (0 = unlimited). Once exhausted, failing subnets defer immediately.
	RetryBudget int64
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

// ScanStats counts scanner activity.
type ScanStats struct {
	QueriesSent    int64 // individual query attempts sent
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

// Dataset is the result of one scan: the ingress addresses with AS
// attribution, and per-client-AS serving statistics.
type Dataset struct {
	Domain string
	// Addresses maps each discovered ingress address to its origin AS.
	Addresses map[netip.Addr]bgp.ASN
	// Serving maps each client AS to its per-operator served /24 counts.
	Serving map[bgp.ASN]*ServingStats
	// Stats holds scanner counters.
	Stats ScanStats
}

// ServingStats accumulates how a client AS's subnets are served.
type ServingStats struct {
	// SubnetsByOperator counts served /24s per ingress operator AS.
	SubnetsByOperator map[bgp.ASN]int64
}

// TotalSubnets sums served /24s over operators.
func (s *ServingStats) TotalSubnets() int64 {
	var n int64
	for _, c := range s.SubnetsByOperator {
		n += c
	}
	return n
}

// Operators returns the set of operators serving this AS.
func (s *ServingStats) Operators() []bgp.ASN {
	out := make([]bgp.ASN, 0, len(s.SubnetsByOperator))
	for as := range s.SubnetsByOperator {
		out = append(out, as)
	}
	slices.Sort(out)
	return out
}

// ErrNoExchanger is returned for scans without a transport.
var ErrNoExchanger = errors.New("core: scan config has no exchanger")

// workBatchSize is how many /24s travel per channel send. One send per
// subnet made the channel the second hottest lock in the scan; batching
// cuts channel operations by the batch factor.
const workBatchSize = 64

// scopeSpan is one published suppression scope as an inclusive IPv4
// address range, with the operator AS of the covering answer so skipped
// subnets can be accounted without re-querying.
type scopeSpan struct {
	lo, hi uint32
	op     bgp.ASN
	pfx    netip.Prefix
}

// skipIndex is the scope-suppression index behind an epoch-published
// read path. The published snapshot is a sorted, immutable []scopeSpan:
// scopes come from covering-route answers over disjoint allocations, so
// spans never nest and a lookup is a binary search — seeded by a
// per-worker hint, since each worker sweeps the universe in ascending
// order. Lookups load the snapshot from an atomic.Pointer without any
// lock; inserts — rare, one per answer scope shorter than /24 —
// serialize on a small mutex, build the successor slice and publish it.
type skipIndex struct {
	mu   sync.Mutex
	snap atomic.Pointer[[]scopeSpan]
}

// addrKey32 packs a (canonical) IPv4 address for span comparison.
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

// lookup reports the covering scope's operator, lock-free. hint is the
// caller's last matching span position; span facts are stable across
// snapshots (spans are only ever added, never moved relative to the
// addresses they cover... a hinted span either still covers addr or the
// bounds check fails and the search runs), so a stale hint can only
// cost the binary search, never a wrong answer.
func (s *skipIndex) lookup(addr netip.Addr, hint *int) (bgp.ASN, bool) {
	sp := s.snap.Load()
	if sp == nil {
		return 0, false
	}
	spans := *sp
	a, ok := addrKey32(addr)
	if !ok {
		return 0, false
	}
	if h := *hint; h >= 0 && h < len(spans) && spans[h].lo <= a && a <= spans[h].hi {
		return spans[h].op, true
	}
	// Rightmost span with lo <= a.
	lo, hi := 0, len(spans)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if spans[mid].lo <= a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 || a > spans[lo-1].hi {
		return 0, false
	}
	*hint = lo - 1
	return spans[lo-1].op, true
}

// insert publishes a new snapshot containing p. It reports whether p was
// newly inserted, giving exactly-once semantics per scope prefix; a
// prefix overlapping an existing span is not fresh (scopes are disjoint
// covering routes, so an overlap is the same scope re-answered).
func (s *skipIndex) insert(p netip.Prefix, op bgp.ASN) bool {
	lo, hi, ok := spanRange(p)
	if !ok {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var spans []scopeSpan
	if cur := s.snap.Load(); cur != nil {
		spans = *cur
	}
	// Insertion point: first span starting after lo.
	j, n := 0, len(spans)
	for j < n {
		mid := int(uint(j+n) >> 1)
		if spans[mid].lo <= lo {
			j = mid + 1
		} else {
			n = mid
		}
	}
	i := j
	if i > 0 && spans[i-1].hi >= lo {
		return false
	}
	if i < len(spans) && spans[i].lo <= hi {
		return false
	}
	next := make([]scopeSpan, 0, len(spans)+1)
	next = append(next, spans[:i]...)
	next = append(next, scopeSpan{lo: lo, hi: hi, op: op, pfx: p})
	next = append(next, spans[i:]...)
	s.snap.Store(&next)
	return true
}

// subnetRef is one /24 work unit: its prefix, its stable index in the
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
	addrs    map[netip.Addr]bgp.ASN
	serving  map[bgp.ASN]map[bgp.ASN]int64 // client AS → operator → /24s
	ledger   map[netip.Prefix]*SubnetFault
	counters scanCounters
}

func newScanShard() *scanShard {
	return &scanShard{
		addrs:   make(map[netip.Addr]bgp.ASN),
		serving: make(map[bgp.ASN]map[bgp.ASN]int64),
		ledger:  make(map[netip.Prefix]*SubnetFault),
	}
}

// servingOf returns client's per-operator counter map, creating it on
// first sight.
func (sh *scanShard) servingOf(client bgp.ASN) map[bgp.ASN]int64 {
	ops := sh.serving[client]
	if ops == nil {
		ops = make(map[bgp.ASN]int64)
		sh.serving[client] = ops
	}
	return ops
}

// absorb folds another shard into sh.
func (sh *scanShard) absorb(o *scanShard) {
	for addr, as := range o.addrs {
		sh.addrs[addr] = as
	}
	for clientAS, ops := range o.serving {
		dst := sh.servingOf(clientAS)
		for op, n := range ops {
			dst[op] += n
		}
	}
	for _, e := range o.ledger {
		mergeLedgerEntry(sh.ledger, e)
	}
	sh.counters.add(&o.counters)
}

// workerAux is a worker's private lookup state, persisted across passes
// (unlike the per-pass scanWorker): the answer-address origin memo, the
// galloping attribution cursor, the scope-index search hint and the
// pacer grant. Nothing in it is shared, so the steady-state loop never
// touches cross-worker memory for lookups.
type workerAux struct {
	// origins4/origins memoize attribution of answer addresses (IPv4
	// keyed by packed uint32 — far cheaper to probe than a netip.Addr
	// map). Answers repeat heavily (one fleet of ~1700 addresses serves
	// the whole universe), so after warm-up every record resolves with
	// one small inlined map probe instead of a routing-index search.
	origins4 map[uint32]bgp.ASN
	origins  map[netip.Addr]bgp.ASN
	// cursor resolves each subnet's own client AS. Worker subnet
	// sequences ascend, so the cursor's gallop replaces a full binary
	// search with a few neighbor probes.
	cursor bgp.Cursor
	// skipHint seeds the scope-span binary search with the last hit.
	skipHint int
	// Route-range accounting memo (see scanWorker.account): the address
	// range of the last covering client route, its client AS and the
	// per-operator counter map it resolved to in the worker's shard (nil
	// = no memo).
	accLo, accHi uint32
	accClient    bgp.ASN
	accOps       map[bgp.ASN]int64
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
// address, later folds are a single inlined uint32 probe with no
// writes (the memo is only ever filled alongside a ledger write, so a
// hit proves the address is already in this worker's shard).
func (w *scanWorker) foldAddr(addr netip.Addr) bgp.ASN {
	if addr.Is4() {
		a4 := addr.As4()
		key := uint32(a4[0])<<24 | uint32(a4[1])<<16 | uint32(a4[2])<<8 | uint32(a4[3])
		if as, ok := w.aux.origins4[key]; ok {
			return as
		}
		as, _ := w.st.idx.Origin(addr)
		w.aux.origins4[key] = as
		w.firstSight(addr, as)
		return as
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
// address range and its per-operator counter map are memoized in the
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
	aux.accOps[operator]++
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
	for _, rec := range resp.Answers {
		var addr netip.Addr
		switch rec.Type {
		case dnswire.TypeA:
			addr = rec.A
		case dnswire.TypeAAAA:
			addr = rec.AAAA
		default:
			continue
		}
		operator = w.foldAddr(addr) // all records of one answer share an AS (§4.1)
	}

	// Publish scope suppression. Exactly one worker wins the publication
	// per scope; a loser's subnet would have been skipped had the scan run
	// sequentially, so it counts as skipped — that keeps SubnetsSkipped
	// independent of worker interleaving (the server answers every subnet
	// inside a scope identically, per ECS semantics).
	fresh := true
	if cfg.RespectScope && resp.Edns != nil && resp.Edns.ClientSubnet != nil {
		cs := resp.Edns.ClientSubnet
		switch {
		case cs.ScopePrefixLen == 0:
			// A scope of zero declares the answer valid for the entire
			// address space — nothing more can be learned from further
			// ECS queries.
			op := operator
			fresh = st.global.CompareAndSwap(nil, &op)
		case cs.ScopePrefixLen < 24:
			fresh = st.skip.insert(cs.ScopePrefix(), operator)
		}
	}
	if !fresh {
		w.sh.counters[cSkipped]++
	}
	w.account(subnet, operator)
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
	skip    skipIndex
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
	budget   int64      // remaining retry budget this pass (<0 = unlimited)
	deferred []subnetRef

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
	e := w.sh.ledger[subnet]
	if e == nil {
		e = &SubnetFault{Subnet: subnet}
		w.sh.ledger[subnet] = e
	}
	e.note(f.kind)
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
		if op, ok := st.skip.lookup(ref.p.Addr(), &w.aux.skipHint); ok {
			w.skipCovered(ref.p, op)
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

		if inPass >= cfg.Retries || !w.spendBudget() || ctx.Err() != nil {
			w.defer_(ref)
			return false
		}
		if d := cfg.Backoff.delay(key, int(ref.attempts)-1); d > 0 {
			if st.clock.Sleep(ctx, d) != nil {
				w.defer_(ref)
				return false
			}
		}
	}
}

// spendBudget consumes one unit of the worker's per-pass retry budget.
func (w *scanWorker) spendBudget() bool {
	if w.budget < 0 {
		return true
	}
	if w.budget == 0 {
		return false
	}
	w.budget--
	return true
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

// sealBatch encodes what the finished batch added to the worker's shard
// as one journal frame in buf, and starts the next batch's delta.
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
// The steady-state path is contention-free: each worker accumulates into
// a private shard (merged once at the end), consults an epoch-published
// snapshot of the scope index without locking, and paces itself on an
// atomic token bucket. Dataset.Addresses, Dataset.Serving, SubnetsTotal
// and SubnetsSkipped are deterministic — identical for any Concurrency —
// on a lossless deterministic transport; only QueriesSent may vary, when
// racing workers query subnets a covering scope was about to suppress.
// Under a fault plane the same holds for Addresses and Serving once
// every subnet recovers (MaxPasses permitting): faults change the path,
// not the dataset.
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
	if cfg.Clock == nil {
		cfg.Clock = vclock.WallClock{}
	}
	start := cfg.Clock.Now()
	ds := &Dataset{
		Domain:    dnswire.CanonicalName(cfg.Domain),
		Addresses: make(map[netip.Addr]bgp.ASN),
		Serving:   make(map[bgp.ASN]*ServingStats),
	}
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
		limiter: newTokenBucket(cfg.QPS, cfg.PacerBatch, cfg.Clock),
		breaker: newCircuitBreaker(cfg.Breaker, cfg.Clock),
	}

	total := universeSize(cfg.Universe)
	ds.Stats.SubnetsTotal = total

	shards := make([]*scanShard, cfg.Concurrency)
	st.auxes = make([]*workerAux, cfg.Concurrency)
	for i := range shards {
		shards[i] = newScanShard()
		st.auxes[i] = &workerAux{
			origins4: make(map[uint32]bgp.ASN),
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
		var deferred []subnetRef
		if pass == 1 {
			deferred = st.runPass(ctx, shards, nil, true)
		} else {
			deferred = st.runPass(ctx, shards, pending, false)
		}
		pending = deferred
		if len(pending) == 0 || pass >= cfg.MaxPasses || ctx.Err() != nil || (st.journal != nil && st.journal.err != nil) {
			break
		}
		// Inter-pass backoff: give outages room to clear before the
		// next sweep over the deferred set.
		if d := cfg.Backoff.delay(uint64(pass)^0x9A55, pass+2); d > 0 {
			if st.clock.Sleep(ctx, d) != nil {
				break
			}
		} else if cfg.Backoff.Base <= 0 && st.breaker != nil {
			// Breaker without backoff: still let the cooldown elapse.
			_ = st.clock.Sleep(ctx, st.breaker.cfg.Cooldown)
		}
	}

	// Merge the worker shards (and, on a resume, the replayed one).
	merged := newScanShard()
	for _, sh := range shards {
		merged.absorb(sh)
	}
	ds.Addresses = merged.addrs
	for clientAS, ops := range merged.serving {
		st2 := &ServingStats{SubnetsByOperator: ops}
		ds.Serving[clientAS] = st2
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
	ds.Stats.Ledger = merged.ledger
	ds.Stats.Errors = c[cTermErrors]

	// Recovery is decided here, not during the scan: a subnet is
	// unrecovered iff it is still pending when the passes end. Everything
	// else in the ledger — including subnets a later pass completed via a
	// covering scope — recovered.
	unrecovered := make(map[netip.Prefix]bool, len(pending))
	for _, ref := range pending {
		unrecovered[ref.p] = true
		if _, ok := merged.ledger[ref.p]; !ok {
			// Deferred before any attempt (breaker denial, cancellation).
			merged.ledger[ref.p] = &SubnetFault{Subnet: ref.p}
		}
	}
	for p, e := range merged.ledger {
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

// runPass sweeps one source of work — the streamed universe on pass 1,
// the deferred set afterwards — and returns the subnets still pending.
func (st *scanState) runPass(ctx context.Context, shards []*scanShard, pending []subnetRef, first bool) []subnetRef {
	cfg := st.cfg
	work := make(chan []subnetRef, 2*cfg.Concurrency)

	// Journal mode: workers hand each batch's frame to the collector,
	// the journal's only writer, so frames land in receive order — a
	// worker's own batches stay in order, which is all replay needs.
	// Frame buffers cycle back through frameFree like batch slices do
	// through free below; both channels hold two per worker so neither
	// side waits on the other in the steady state.
	ckpt := st.journal != nil
	var results chan batchResult
	var frameFree chan []byte
	var collectorDone chan struct{}
	if ckpt {
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

	// free recycles drained batch slices back to the producer, so the
	// steady state reuses a fixed set of batch buffers instead of
	// allocating one per channel send.
	free := make(chan []subnetRef, 4*cfg.Concurrency)

	workers := make([]*scanWorker, cfg.Concurrency)
	var wg sync.WaitGroup
	wg.Add(cfg.Concurrency)
	for i := 0; i < cfg.Concurrency; i++ {
		w := &scanWorker{st: st, sh: shards[i], aux: st.auxes[i], budget: -1}
		if cfg.RetryBudget > 0 {
			w.budget = cfg.RetryBudget
		}
		workers[i] = w
		go func() {
			defer wg.Done()
			for batch := range work {
				for _, ref := range batch {
					if ctx.Err() != nil {
						st.fail(ctx.Err())
						break
					}
					if w.processSubnet(ctx, ref) && ckpt {
						w.aux.delta.markDone(ref.idx)
					}
				}
				if ckpt {
					var buf []byte
					select {
					case buf = <-frameFree:
					default:
					}
					results <- w.sealBatch(buf)
				}
				select {
				case free <- batch[:0]:
				default: // recycler full: let the GC take this one
				}
			}
			// Hand unused pacer slots back so the pacer's timeline
			// reflects exactly the queries sent.
			st.limiter.release(&w.aux.grant)
		}()
	}

	// Feed the pass. When the recycler runs dry (at high concurrency the
	// producer outruns the workers), batches are carved from a slab so
	// the fallback costs one allocation per slabBatches batches, not one
	// each.
	const slabBatches = 64
	var slab []subnetRef
	newBatch := func() []subnetRef {
		select {
		case b := <-free:
			return b
		default:
		}
		if len(slab) < workBatchSize {
			slab = make([]subnetRef, slabBatches*workBatchSize)
		}
		b := slab[:0:workBatchSize]
		slab = slab[workBatchSize:]
		return b
	}
	batch := newBatch()
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		select {
		case work <- batch:
		case <-ctx.Done():
			return false
		}
		batch = newBatch()
		return true
	}
	if first {
		idx := int64(0)
		for _, p := range cfg.Universe {
			if !p.Addr().Is4() {
				continue
			}
			iputil.Subnets(p, 24, func(s netip.Prefix) bool {
				i := idx
				idx++
				if st.resumed.get(i) {
					return true // resumed: completed in a previous run
				}
				batch = append(batch, subnetRef{p: s, idx: i})
				if len(batch) == workBatchSize {
					return flush()
				}
				return true
			})
			if ctx.Err() != nil {
				break
			}
		}
	} else {
		for _, ref := range pending {
			batch = append(batch, ref)
			if len(batch) == workBatchSize && !flush() {
				break
			}
		}
	}
	flush()
	close(work)
	wg.Wait()
	if ckpt {
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

// AddressesOf returns the discovered addresses originated by as, sorted.
func (ds *Dataset) AddressesOf(as bgp.ASN) []netip.Addr {
	var out []netip.Addr
	for addr, origin := range ds.Addresses {
		if origin == as {
			out = append(out, addr)
		}
	}
	sortAddrs(out)
	return out
}

// OperatorCounts returns the number of discovered addresses per AS.
func (ds *Dataset) OperatorCounts() map[bgp.ASN]int {
	out := make(map[bgp.ASN]int)
	for _, as := range ds.Addresses {
		out[as]++
	}
	return out
}

// Diff compares two datasets: addresses added and removed from a to b.
func Diff(a, b *Dataset) (added, removed []netip.Addr) {
	for addr := range b.Addresses {
		if _, ok := a.Addresses[addr]; !ok {
			added = append(added, addr)
		}
	}
	for addr := range a.Addresses {
		if _, ok := b.Addresses[addr]; !ok {
			removed = append(removed, addr)
		}
	}
	sortAddrs(added)
	sortAddrs(removed)
	return added, removed
}

// GrowthPercent returns the relative address-count growth from a to b.
func GrowthPercent(a, b *Dataset) float64 {
	if len(a.Addresses) == 0 {
		return 0
	}
	return (float64(len(b.Addresses)) - float64(len(a.Addresses))) / float64(len(a.Addresses)) * 100
}

func sortAddrs(addrs []netip.Addr) {
	slices.SortFunc(addrs, func(a, b netip.Addr) int { return a.Compare(b) })
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

// defaultPacerBatch is the tranche size when ScanConfig.PacerBatch is 0.
const defaultPacerBatch = 16

func newTokenBucket(qps float64, batch int, clock vclock.Clock) *tokenBucket {
	if qps <= 0 {
		return &tokenBucket{clock: clock}
	}
	if batch <= 0 {
		batch = defaultPacerBatch
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

// String summarizes the dataset.
func (ds *Dataset) String() string {
	return fmt.Sprintf("dataset{%s: %d addrs, %d client ASes, %d queries}",
		ds.Domain, len(ds.Addresses), len(ds.Serving), ds.Stats.QueriesSent)
}
