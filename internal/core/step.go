package core

import (
	"context"
	"errors"
	"net/netip"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/faults"
	"github.com/relay-networks/privaterelay/internal/iputil"
)

// The scan step: one attempt at one /24, classified and folded into the
// worker's batch frame. Nothing here reads a clock, touches the breaker,
// the pacer or other shared mutable state, or takes a lock; drive, the
// worker pool's driver in scanner.go, does all of that around the step.

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

// step sends the /24 p's query for its attempt'th attempt (counted
// across passes) and folds the outcome into the batch frame:
// outcomeOK records the answer; a retryable outcome ledgers the fault,
// and the driver retries or defers the /24; outcomeError records
// nothing, and the driver decides whether the /24 is lost or the scan
// was cancelled.
func (w *scanWorker) step(ctx context.Context, p netip.Prefix, attempt int32) attemptOutcome {
	cfg := w.st.cfg
	// A fresh transaction ID per attempt: a late response to attempt N
	// cannot satisfy attempt N+1. The query message itself is the
	// worker's reusable one — only the ID and ECS prefix change.
	id := uint16(iputil.Mix(iputil.HashPrefix(p), uint64(attempt)))
	if w.query == nil {
		w.query = dnswire.NewQuery(id, cfg.Domain, cfg.QType)
	}
	q := w.query
	q.Header.ID = id
	q.SetECS(p)
	resp, err := cfg.Exchanger.Exchange(ctx, q)
	w.fr.counters[cQueries]++
	if attempt > 0 {
		w.fr.counters[cRetries]++
	}

	out := classify(resp, err, id)
	switch out {
	case outcomeOK:
		w.record(p, resp)
	case outcomeError:
		return out
	default:
		w.ledgerFail(p, out)
	}
	// record copies everything it keeps, and failure responses (ServFail,
	// Refused, truncated, stale) carry nothing worth keeping; timeouts
	// have no response at all. The pooled response can go back for the
	// next exchange.
	dnswire.ReleaseMessage(resp)
	return out
}

// record folds one successful response into the batch frame.
func (w *scanWorker) record(subnet netip.Prefix, resp *dnswire.Message) {
	if resp.Header.RCode != dnswire.RCodeNoError || len(resp.Answers) == 0 {
		return
	}
	var operator bgp.ASN
	for i := range resp.Answers {
		if rec := &resp.Answers[i]; rec.Type == dnswire.TypeA || rec.Type == dnswire.TypeAAAA {
			operator = w.foldAddr(rec.Addr) // all records of one answer share an AS (§4.1)
		}
	}

	if w.st.cfg.RespectScope && resp.Edns != nil && resp.Edns.ClientSubnet != nil {
		cs := resp.Edns.ClientSubnet
		switch {
		case cs.ScopePrefixLen == 0:
			// A scope of zero declares the answer valid for the entire
			// address space — nothing more can be learned from further
			// ECS queries. The driver publishes it scan-wide.
			op := operator
			w.scopeZero = &op
		case cs.ScopePrefixLen < 24:
			w.setScope(cs.ScopePrefix(), operator)
		}
	}
	w.account(subnet, operator)
}

// foldAddr attributes one answer address, memoizing it: after this
// worker's first sight of an address, later folds are a single inlined
// table probe with no writes (the memo is only ever filled alongside a
// frame entry, so a hit proves the address is already in this worker's
// shard or its batch in progress).
func (w *scanWorker) foldAddr(addr netip.Addr) bgp.ASN {
	if addr.Is4() {
		a4 := addr.As4()
		// 0.0.0.0 cannot enter origins4 (its key marks an empty slot)
		// and takes the map path below.
		if key := uint32(a4[0])<<24 | uint32(a4[1])<<16 | uint32(a4[2])<<8 | uint32(a4[3]); key != 0 {
			s := w.origins4.find(key)
			if s.key != 0 {
				return s.as
			}
			as, _ := w.st.idx.Origin(addr)
			w.origins4.fill(s, key, as)
			w.fr.addrs = append(w.fr.addrs, addrEntry{addr, as})
			return as
		}
	}
	if as, ok := w.origins[addr]; ok {
		return as
	}
	as, _ := w.st.idx.Origin(addr)
	w.origins[addr] = as
	w.fr.addrs = append(w.fr.addrs, addrEntry{addr, as})
	return as
}

// account attributes one served /24 to the subnet's own client AS under
// the given operator. Consecutive subnets overwhelmingly share one
// covering client route (routes span 4–1024 /24s), so the last route's
// address range and client AS are memoized: the steady state is one
// range check and a bump of the frame's last serving entries.
func (w *scanWorker) account(subnet netip.Prefix, operator bgp.ASN) {
	a, ok := addrKey32(subnet.Addr())
	if !ok || a < w.accLo || a > w.accHi {
		route, clientAS, routed := w.cursor.CoveringPrefix(subnet)
		if !routed {
			return
		}
		w.accClient = clientAS
		var spanned bool
		if w.accLo, w.accHi, spanned = spanRange(route); !spanned {
			w.accLo, w.accHi = 1, 0 // empty range: never hits
		}
	}
	w.fr.serve(w.accClient, operator)
}

// skipCovered handles a subnet suppressed by a covering scope: the
// covering answer serves it too, so it is accounted to its own client AS
// under the operator recorded with the scope entry — the accounting a
// direct query would have produced, without sending one.
func (w *scanWorker) skipCovered(subnet netip.Prefix, operator bgp.ASN) {
	w.fr.counters[cSkipped]++
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
	w.scopeLo, w.scopeHi, w.scopeOp = lo, hi, op
	for n := len(w.deferred); n > w.unitStart; n-- {
		ref := w.deferred[n-1]
		if a, _ := addrKey32(ref.p.Addr()); a < lo || a > hi {
			break
		}
		w.deferred = w.deferred[:n-1]
		w.skipCovered(ref.p, op)
		w.fr.markDone(ref.idx)
	}
}

// ledgerFail records one failed attempt for the subnet.
func (w *scanWorker) ledgerFail(subnet netip.Prefix, out attemptOutcome) {
	f := outcomeFault[out]
	w.fr.fault(subnet).note(f.kind)
	w.fr.counters[f.counter]++
}
