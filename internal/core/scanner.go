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
// scan, or the state a resumed journal replays into. Either way it is
// filled only by apply, one batch frame at a time. Workers never share
// mutable state on the steady-state path.
type scanShard struct {
	addrs   map[netip.Addr]bgp.ASN
	serving map[servingKey]int64 // /24s served
	// faults is the shard's failure ledger in the order it was written:
	// one entry per run of consecutive faults of a /24 within a batch. A
	// /24 deferred to a later pass may own several entries; ledgerOf
	// folds them. Entries are carved from chunks of faultChunkLen, so a
	// faulted /24 costs no heap object of its own.
	faults   [][]SubnetFault
	counters scanCounters
}

// faultChunkLen is how many ledger entries one chunk holds.
const faultChunkLen = 256

func newScanShard() *scanShard {
	return &scanShard{
		addrs:   make(map[netip.Addr]bgp.ASN),
		serving: make(map[servingKey]int64),
	}
}

// servingKey is a client AS and an operator that served its /24s.
type servingKey struct{ client, op bgp.ASN }

// servingMap copies the shard's serving counters out as nested maps.
func (sh *scanShard) servingMap() map[bgp.ASN]map[bgp.ASN]int64 {
	out := make(map[bgp.ASN]map[bgp.ASN]int64)
	for k, n := range sh.serving {
		if out[k.client] == nil {
			out[k.client] = make(map[bgp.ASN]int64)
		}
		out[k.client][k.op] = n
	}
	return out
}

// appendFault adds a copy of e to the ledger.
func (sh *scanShard) appendFault(e SubnetFault) {
	n := len(sh.faults)
	if n == 0 || len(sh.faults[n-1]) == faultChunkLen {
		sh.faults = append(sh.faults, make([]SubnetFault, 0, faultChunkLen))
		n++
	}
	sh.faults[n-1] = append(sh.faults[n-1], e)
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
	for k, n := range o.serving {
		sh.serving[k] += n
	}
	sh.counters.add(&o.counters)
}

// scanState carries the shared scan machinery across passes.
type scanState struct {
	cfg     *ScanConfig
	idx     *bgp.Index              // flattened attribution snapshot (nil-safe)
	global  atomic.Pointer[bgp.ASN] // set once by the first scope-0 answer
	limiter *tokenBucket
	breaker *circuitBreaker
	workers []*scanWorker // one per Concurrency slot, for the whole scan

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

// scanWorker is one worker of a scan, kept across passes. Everything in
// it is private to the worker, so the steady-state loop never touches
// cross-worker memory. Every scan fact it learns — addresses, serving
// counts, ledger entries, counters, done marks — goes into fr, the
// frame of the batch in progress; seal folds the frame into sh.
type scanWorker struct {
	st *scanState
	sh *scanShard
	fr journalFrame

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
	// Scope memo (see setScope): the range of the last answer scope
	// narrower than /24 in the current unit, and its operator. Reset at
	// every unit start; empty when scopeLo > scopeHi.
	scopeLo, scopeHi uint32
	scopeOp          bgp.ASN
	// Route-range accounting memo (see account): the address range of
	// the last covering client route and its client AS; empty when
	// accLo > accHi.
	accLo, accHi uint32
	accClient    bgp.ASN
	// scopeZero is the operator of a scope-0 answer the last step met,
	// for the driver to publish scan-wide (nil: none).
	scopeZero *bgp.ASN
	// grant is the worker's outstanding pacer tranche.
	grant pacerGrant
	// query is the worker's reusable query message: built once, then only
	// the transaction ID and ECS prefix are re-stamped per subnet. Safe
	// because Exchangers never retain the query past the call and the
	// question section is immutable across subnets.
	query *dnswire.Message

	deferred []subnetRef // this pass's deferrals
	// unitStart is len(deferred) at the current unit's start.
	unitStart int
	// unsealed counts the /24s since the last seal. In journal mode seal
	// hands each frame to the collector on results and takes recycled
	// buffers from frameFree, both set for each pass.
	unsealed  int
	results   chan<- batchResult
	frameFree <-chan []byte
}

func (st *scanState) newWorker() *scanWorker {
	return &scanWorker{
		st:       st,
		sh:       newScanShard(),
		origins4: newOriginTable(),
		origins:  make(map[netip.Addr]bgp.ASN),
		cursor:   st.idx.Cursor(),
		accLo:    1, // empty memo
	}
}

// startUnit opens a work unit: a fresh scope memo, and deferrals from
// here on are the unit's own.
func (w *scanWorker) startUnit() {
	w.scopeLo, w.scopeHi = 1, 0
	w.unitStart = len(w.deferred)
}

// covered settles a /24 that a scope already answered — the scan-wide
// scope-0 answer or the unit's scope memo — and reports whether it did.
func (w *scanWorker) covered(p netip.Prefix) bool {
	if !w.st.cfg.RespectScope {
		return false
	}
	if op := w.st.global.Load(); op != nil {
		w.skipCovered(p, *op)
		return true
	}
	if a, ok := addrKey32(p.Addr()); ok && w.scopeLo <= a && a <= w.scopeHi {
		w.skipCovered(p, w.scopeOp)
		return true
	}
	return false
}

// publishScopeZero publishes the last step's scope-0 answer, if it met
// one. Exactly one worker wins the publication; a loser's subnet would
// have been skipped had the scan run sequentially, so it counts as
// skipped.
func (w *scanWorker) publishScopeZero() {
	if op := w.scopeZero; op != nil {
		w.scopeZero = nil
		if !w.st.global.CompareAndSwap(nil, op) {
			w.fr.counters[cSkipped]++
		}
	}
}

// drive runs one subnet to completion, deferral or terminal failure
// through the step. It reports whether the subnet is done (success,
// scope-skip or terminal error); deferred subnets are appended to
// w.deferred with their attempt count advanced. The breaker hears every
// admitted attempt's outcome, a half-open probe's included.
func (w *scanWorker) drive(ctx context.Context, ref subnetRef) bool {
	st, cfg := w.st, w.st.cfg
	if w.covered(ref.p) {
		return true
	}
	for inPass := 0; ; inPass++ {
		admitted, probe := st.breaker.acquire(ctx)
		if !admitted {
			w.defer_(ref)
			return false
		}
		st.limiter.wait(ctx, &w.grant)
		out := w.step(ctx, ref.p, ref.attempts)
		ref.attempts++
		st.breaker.report(out, probe)
		if out == outcomeOK {
			w.publishScopeZero()
			return true
		}
		if out == outcomeError {
			if ctx.Err() != nil {
				// Cancellation is not a subnet failure: leave the subnet
				// incomplete so a checkpoint resume redoes it.
				st.fail(ctx.Err())
				w.defer_(ref)
				return false
			}
			// Non-retryable transport error: the subnet is lost, the scan
			// carries on.
			w.fr.counters[cTermErrors]++
			return true
		}
		if inPass >= cfg.Retries || ctx.Err() != nil {
			w.defer_(ref)
			return false
		}
		retryIdx := int(ref.attempts) - 1
		if d := cfg.Backoff.Delay(retryIdx, iputil.Mix(iputil.HashPrefix(ref.p), uint64(retryIdx)^0xBACC0FF)); d > 0 {
			if cfg.Clock.Sleep(ctx, d) != nil {
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
	w.fr.counters[cDeferrals]++
	w.deferred = append(w.deferred, ref)
}

// batchResult is one batch's journal frame on its way to the
// collector, with the number of /24s it completes.
type batchResult struct {
	frame []byte
	done  int64
}

// seal closes the batch: its frame folds into the worker's shard — the
// fold journal replay uses — and, in journal mode, goes to the
// collector encoded into a recycled buffer.
func (w *scanWorker) seal() {
	if w.st.journal != nil {
		var buf []byte
		select {
		case buf = <-w.frameFree:
		default:
		}
		w.results <- batchResult{frame: w.fr.appendTo(buf[:0]), done: w.fr.doneCount()}
	}
	w.sh.apply(&w.fr)
	w.fr.reset()
	w.unsealed = 0
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

// newScan applies cfg's defaults and readies a scan without a journal:
// the shared pacer and breaker and one worker per Concurrency slot.
func newScan(cfg ScanConfig) (*scanState, error) {
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
	st := &scanState{
		cfg:     &cfg,
		limiter: newTokenBucket(cfg.QPS, pacerBatch, cfg.Clock),
		breaker: newCircuitBreaker(cfg.Breaker, cfg.Clock),
	}
	if cfg.Attribution != nil {
		// Table.Index is memoized: the flattened snapshot is built once
		// per table, not once per scan.
		st.idx = cfg.Attribution.Index()
	}
	st.workers = make([]*scanWorker, cfg.Concurrency)
	for i := range st.workers {
		st.workers[i] = st.newWorker()
	}
	return st, nil
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
	st, err := newScan(cfg)
	if err != nil {
		return nil, err
	}
	cfg = *st.cfg
	start := cfg.Clock.Now()

	// Journal mode: worker 0 carries on from the state the journal
	// replays to.
	var resumed, torn int64
	if cfg.Checkpoint != nil {
		j, rp, err := openJournal(cfg.Checkpoint, dnswire.CanonicalName(cfg.Domain), universeSize(cfg.Universe))
		if err != nil {
			return nil, err
		}
		defer j.f.Close()
		st.journal, st.resumed = j, rp.done
		st.workers[0].sh = rp.shard
		resumed, torn = rp.done.count(), rp.torn
	}

	var pending []subnetRef
	pass := 1
	for ; ; pass++ {
		pending = st.runPass(ctx, pending)
		if len(pending) == 0 || pass >= cfg.MaxPasses || ctx.Err() != nil || (st.journal != nil && st.journal.err != nil) {
			break
		}
		// Inter-pass backoff: give outages room to clear before the
		// next sweep over the deferred set.
		if d := cfg.Backoff.Delay(pass+2, iputil.Mix(uint64(pass)^0x9A55, uint64(pass+2)^0xBACC0FF)); d > 0 {
			if cfg.Clock.Sleep(ctx, d) != nil {
				break
			}
		} else if cfg.Backoff.Base <= 0 && st.breaker != nil {
			// Breaker without backoff: still let the cooldown elapse.
			_ = cfg.Clock.Sleep(ctx, st.breaker.cfg.Cooldown)
		}
	}

	ds, err := st.dataset(pending)
	if err != nil {
		return nil, err
	}
	ds.Stats.Passes = int64(pass)
	ds.Stats.ResumedSubnets, ds.Stats.CheckpointTornBytes = resumed, torn

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

// dataset merges the workers' shards into the first and lays the result
// out as sorted columns, the tree's one map-to-columns step (a
// one-worker scan merges nothing), with the counters and the ledger.
// pending is what the passes left unrecovered.
func (st *scanState) dataset(pending []subnetRef) (*Dataset, error) {
	ds := &Dataset{Dataset: colstore.Dataset{Domain: dnswire.CanonicalName(st.cfg.Domain)}}
	shards := make([]*scanShard, len(st.workers))
	for i, w := range st.workers {
		shards[i] = w.sh
	}
	merged := shards[0]
	for _, sh := range shards[1:] {
		merged.absorb(sh)
	}
	ledger := ledgerOf(shards)
	for addr, as := range merged.addrs {
		ds.AppendAddr(addr, as)
	}
	for k, n := range merged.serving {
		ds.AppendServing(k.client, k.op, n)
	}
	if err := ds.Normalize(); err != nil {
		return nil, fmt.Errorf("core: scan %s: %w", ds.Domain, err)
	}
	s, c := &ds.Stats, &merged.counters
	s.SubnetsTotal = universeSize(st.cfg.Universe)
	s.QueriesSent = c[cQueries]
	s.SubnetsSkipped = c[cSkipped]
	s.Retries = c[cRetries]
	s.Deferrals = c[cDeferrals]
	s.TimeoutAttempts = c[cTimeoutAttempts]
	s.ServFailAttempts = c[cServFailAttempts]
	s.RefusedAttempts = c[cRefusedAttempts]
	s.TruncatedAttempts = c[cTruncatedAttempts]
	s.StaleAttempts = c[cStaleAttempts]
	s.BreakerTrips = st.breaker.tripCount()
	s.Ledger = ledger
	s.Errors = c[cTermErrors]

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
		s.FailedSubnets++
		if e.LastKind == faults.KindTimeout && e.Timeouts > 0 {
			s.Timeouts++
		} else {
			s.Errors++
		}
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

// run works through units until work closes, sealing a batch every
// workBatchSize /24s and the remainder at the end.
func (w *scanWorker) run(ctx context.Context, work <-chan workUnit) {
	done := ctx.Done()
	next := func(ref subnetRef) bool {
		if cancelled(done) {
			w.st.fail(ctx.Err())
			return false
		}
		if w.drive(ctx, ref) {
			w.fr.markDone(ref.idx)
		}
		if w.unsealed++; w.unsealed == workBatchSize {
			w.seal()
		}
		return true
	}
	for u := range work {
		w.startUnit()
		if u.refs == nil {
			// Resumed /24s were completed by an earlier run.
			i := u.first - 1
			iputil.Subnets(u.prefix, 24, func(s netip.Prefix) bool {
				i++
				return w.st.resumed.get(i) || next(subnetRef{p: s, idx: i})
			})
		}
		for _, ref := range u.refs {
			if !next(ref) {
				break
			}
		}
	}
	if w.unsealed > 0 {
		w.seal()
	}
}

// runPass sweeps one source of work — the universe when pending is nil
// (pass 1), the deferred set afterwards — and returns the subnets still
// pending.
func (st *scanState) runPass(ctx context.Context, pending []subnetRef) []subnetRef {
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

	var wg sync.WaitGroup
	wg.Add(len(st.workers))
	for _, w := range st.workers {
		w.results, w.frameFree = results, frameFree
		go func() {
			defer wg.Done()
			w.run(ctx, work)
			// Hand unused pacer slots back so the pacer's timeline
			// reflects exactly the queries sent.
			st.limiter.release(&w.grant)
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
	if st.journal != nil {
		close(results)
		<-collectorDone
	}

	var deferred []subnetRef
	for _, w := range st.workers {
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
