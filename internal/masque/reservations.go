package masque

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"

	"github.com/relay-networks/privaterelay/internal/vclock"
)

// Per-account reservations for the relay. Apple caps
// Private Relay abuse with per-account token quotas (§2); a relay
// operator additionally needs admission control at serving time:
// how long an account's admission lasts, how many bytes it may move,
// how fast, and how many concurrent sessions it may hold. The shape
// follows Circuit Relay v2's reservation model — a client obtains a
// time-boxed, data-capped reservation and every violation is answered
// with a typed status code rather than a dropped connection.

// Reservation frame types (continuing udp.go's numbering).
const (
	// FrameReserveOK is the ingress's only admission grant: payload is
	// an encoded ReservationInfo telling the client its limits (all
	// zero under an unlimited registry).
	FrameReserveOK FrameType = 11
	// FrameReject carries a typed rejection: code(1) + human message.
	FrameReject FrameType = 12
)

// RejectCode enumerates typed reservation rejections. The exhaustive
// lint analyzer guards every switch over it, so adding a code without
// handling it everywhere is a build-time (make lint) failure.
type RejectCode uint8

// Rejection codes.
const (
	RejectNone          RejectCode = 0 // not a rejection (zero value)
	RejectMalformed     RejectCode = 1 // unparseable frame or payload
	RejectNoReservation RejectCode = 2 // no reservation admitted for account
	RejectExpired       RejectCode = 3 // reservation duration elapsed
	RejectSessionLimit  RejectCode = 4 // concurrent-session cap reached
	RejectDataCap       RejectCode = 5 // data-cap bytes exhausted
	RejectBandwidth     RejectCode = 6 // bandwidth token bucket empty
	RejectDraining      RejectCode = 7 // relay draining for reload/shutdown
)

// String names the rejection in the RESOURCE_LIMIT_EXCEEDED style of
// Circuit Relay v2 status codes.
func (c RejectCode) String() string {
	switch c {
	case RejectNone:
		return "OK"
	case RejectMalformed:
		return "MALFORMED_REQUEST"
	case RejectNoReservation:
		return "NO_RESERVATION"
	case RejectExpired:
		return "RESERVATION_EXPIRED"
	case RejectSessionLimit:
		return "RESOURCE_LIMIT_EXCEEDED"
	case RejectDataCap:
		return "DATA_CAP_EXCEEDED"
	case RejectBandwidth:
		return "BANDWIDTH_EXCEEDED"
	case RejectDraining:
		return "RELAY_DRAINING"
	default:
		return fmt.Sprintf("REJECT%d", uint8(c))
	}
}

// RejectionError is the client-visible error for a typed FrameReject.
// It unwraps to ErrAuthRejected so existing callers that check for
// authentication failure keep working.
type RejectionError struct {
	Code RejectCode
	Msg  string
}

// Error implements error.
func (e *RejectionError) Error() string {
	if e.Msg == "" {
		return "masque: rejected: " + e.Code.String()
	}
	return "masque: rejected: " + e.Code.String() + ": " + e.Msg
}

// Unwrap lets errors.Is(err, ErrAuthRejected) match typed rejections.
func (e *RejectionError) Unwrap() error { return ErrAuthRejected }

// AppendReject encodes a FrameReject payload — code(1) + message — into
// dst and returns the extended slice.
func AppendReject(dst []byte, code RejectCode, msg string) []byte {
	dst = append(dst, byte(code))
	return append(dst, msg...)
}

// ParseReject decodes a FrameReject payload.
func ParseReject(p []byte) (RejectCode, string, error) {
	if len(p) < 1 {
		return RejectNone, "", errors.New("masque: short REJECT payload")
	}
	return RejectCode(p[0]), string(p[1:]), nil
}

// ReservationInfo is the admission answer carried by FrameReserveOK:
// the limits the relay granted, so the client can self-pace.
type ReservationInfo struct {
	// ExpiryUnixNano is when the reservation lapses (relay clock).
	ExpiryUnixNano int64
	// DataCap is the total tunnel bytes allowed; 0 means unlimited.
	DataCap int64
	// BandwidthBps is the sustained byte rate allowed; 0 = unlimited.
	BandwidthBps int64
	// Burst is the byte burst the bandwidth bucket absorbs.
	Burst int64
	// MaxSessions caps concurrent sessions; 0 means unlimited.
	MaxSessions int32
}

// reservationInfoLen is the fixed ReservationInfo encoding: four int64
// fields plus one int32, big-endian.
const reservationInfoLen = 36

// AppendReservationInfo encodes info into dst and returns the extended
// slice.
func AppendReservationInfo(dst []byte, info *ReservationInfo) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(info.ExpiryUnixNano))
	dst = binary.BigEndian.AppendUint64(dst, uint64(info.DataCap))
	dst = binary.BigEndian.AppendUint64(dst, uint64(info.BandwidthBps))
	dst = binary.BigEndian.AppendUint64(dst, uint64(info.Burst))
	return binary.BigEndian.AppendUint32(dst, uint32(info.MaxSessions))
}

// ParseReservationInfo decodes a FrameReserveOK payload.
func ParseReservationInfo(p []byte) (ReservationInfo, error) {
	if len(p) != reservationInfoLen {
		return ReservationInfo{}, fmt.Errorf("masque: RESERVE_OK payload is %d bytes, want %d", len(p), reservationInfoLen)
	}
	return ReservationInfo{
		ExpiryUnixNano: int64(binary.BigEndian.Uint64(p[0:8])),
		DataCap:        int64(binary.BigEndian.Uint64(p[8:16])),
		BandwidthBps:   int64(binary.BigEndian.Uint64(p[16:24])),
		Burst:          int64(binary.BigEndian.Uint64(p[24:32])),
		MaxSessions:    int32(binary.BigEndian.Uint32(p[32:36])),
	}, nil
}

// Limits is the per-account reservation policy. The zero value of any
// field means "unlimited" for that dimension.
type Limits struct {
	// Duration bounds how long an admission lasts before the account
	// must re-admit (and a fresh data cap is minted).
	Duration time.Duration
	// DataCap is total tunnel bytes per reservation.
	DataCap int64
	// BandwidthBps is the sustained byte rate per reservation.
	BandwidthBps int64
	// Burst is the byte burst the bandwidth bucket absorbs; defaults to
	// one second's worth of BandwidthBps when zero.
	Burst int64
	// MaxSessions caps concurrent sessions per reservation.
	MaxSessions int32
}

func (l Limits) burst() int64 {
	if l.Burst > 0 {
		return l.Burst
	}
	return l.BandwidthBps
}

// Reservation is one account's live admission. All counters are
// atomic: the frame path debits without locks.
type Reservation struct {
	account string
	limits  Limits
	// expiry is the lapse instant in clock nanoseconds; 0 = never.
	expiry int64
	// dataRem counts remaining data-cap bytes; math.MinInt64-safe
	// because debits are bounded by maxFramePayload.
	dataRem atomic.Int64
	// sessions counts concurrent sessions.
	sessions atomic.Int32
	// tat is the GCRA theoretical-arrival-time of the bandwidth bucket,
	// in clock nanoseconds.
	tat atomic.Int64
}

// Account returns the account this reservation admits.
func (r *Reservation) Account() string { return r.account }

// Info snapshots the reservation as the client-facing announcement.
func (r *Reservation) Info() ReservationInfo {
	return ReservationInfo{
		ExpiryUnixNano: r.expiry,
		DataCap:        r.limits.DataCap,
		BandwidthBps:   r.limits.BandwidthBps,
		Burst:          r.limits.burst(),
		MaxSessions:    r.limits.MaxSessions,
	}
}

// expired reports whether the reservation lapsed at clock time nowNS.
func (r *Reservation) expired(nowNS int64) bool {
	return r.expiry != 0 && nowNS >= r.expiry
}

// debit is the charge both relay hops share: an expired reservation
// carries nothing, then the hard data cap. Bandwidth stays with the
// caller — the socket ingress paces overruns, the plane rejects them.
func (r *Reservation) debit(n int64, rs *Reservations) RejectCode {
	if r.expiry != 0 && r.expired(rs.NowNS()) {
		return RejectExpired
	}
	return r.DebitData(n)
}

// DebitData charges n tunnel bytes against the data cap. RejectNone
// admits the bytes; RejectDataCap means the cap is exhausted (the
// charge that crossed the line is refunded so counters stay sane).
func (r *Reservation) DebitData(n int64) RejectCode {
	if r.limits.DataCap <= 0 {
		return RejectNone
	}
	if r.dataRem.Add(-n) < 0 {
		r.dataRem.Add(n)
		return RejectDataCap
	}
	return RejectNone
}

// AllowBandwidth asks the bandwidth bucket to admit n bytes at clock
// time nowNS. It is GCRA on a single atomic: the bucket state is one
// theoretical-arrival-time, advanced by CAS, so the frame path never
// takes a lock to pace. A conforming request advances TAT by n's
// transmission time; a request that would push TAT more than the burst
// tolerance ahead of now is rejected with RejectBandwidth (and the
// bucket is left untouched — rejected bytes cost nothing).
func (r *Reservation) AllowBandwidth(n, nowNS int64) RejectCode {
	rate := r.limits.BandwidthBps
	if rate <= 0 || n <= 0 {
		return RejectNone
	}
	inc := transmitNS(n, rate)
	tol := transmitNS(r.limits.burst(), rate)
	for {
		tat := r.tat.Load()
		t := tat
		if nowNS > t {
			t = nowNS
		}
		newTat := t + inc
		if newTat-nowNS > tol {
			return RejectBandwidth
		}
		if r.tat.CompareAndSwap(tat, newTat) {
			return RejectNone
		}
	}
}

// transmitNS returns how many clock nanoseconds transmitting n bytes
// takes at rate bytes/sec, i.e. n·1e9/rate with a 128-bit intermediate:
// the naive product overflows int64 once n exceeds ~9.2 GB, which a
// generous burst configuration reaches easily (and an overflowed, and
// therefore negative, tolerance rejects every frame). Saturates at
// MaxInt64, which the GCRA check reads as "unlimited".
func transmitNS(n, rate int64) int64 {
	hi, lo := bits.Mul64(uint64(n), uint64(time.Second))
	if hi >= uint64(rate) {
		return math.MaxInt64
	}
	q, _ := bits.Div64(hi, lo, uint64(rate))
	if q > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(q)
}

// release ends one session on the reservation.
func (r *Reservation) release() {
	r.sessions.Add(-1)
}

// Reservations is the relay's admission registry: a sharded table of
// live reservations plus the (atomically reloadable) policy and the
// drain switch.
type Reservations struct {
	clock    vclock.Clock
	limits   atomic.Pointer[Limits]
	table    *Sharded[string, *Reservation]
	draining atomic.Bool
}

// NewReservations builds a registry applying limits, reading time from
// clock (nil means the wall clock).
func NewReservations(limits Limits, clock vclock.Clock) *Reservations {
	if clock == nil {
		clock = vclock.WallClock{}
	}
	rs := &Reservations{
		clock: clock,
		table: NewSharded[string, *Reservation](0, HashString),
	}
	rs.limits.Store(&limits)
	return rs
}

// Limits returns the current policy.
func (rs *Reservations) Limits() Limits { return *rs.limits.Load() }

// Reload atomically replaces the policy. Existing reservations keep
// the limits they were admitted under; new admissions (including
// re-admissions after expiry) get the new policy.
func (rs *Reservations) Reload(limits Limits) {
	rs.limits.Store(&limits)
}

// Drain stops admitting sessions: every Admit returns RejectDraining
// until Resume. Live sessions are not torn down — drain is the
// graceful half of reload/shutdown.
func (rs *Reservations) Drain() { rs.draining.Store(true) }

// Resume re-opens admission after a Drain.
func (rs *Reservations) Resume() { rs.draining.Store(false) }

// Draining reports whether the registry is draining.
func (rs *Reservations) Draining() bool { return rs.draining.Load() }

// Live reports the number of live reservations (not sessions).
func (rs *Reservations) Live() int { return rs.table.Len() }

// Admit asks for one session under account's reservation, minting the
// reservation on first admission. RejectNone grants the session — the
// caller owns one session slot and must r.release() it (via
// EndSession) when the session ends. Any other code denies it:
// RejectDraining during drain, RejectExpired exactly once when a lapsed
// reservation is swept (the next Admit mints a fresh one), and
// RejectSessionLimit when the concurrent-session cap is reached.
func (rs *Reservations) Admit(account string) (*Reservation, RejectCode) {
	if rs.draining.Load() {
		return nil, RejectDraining
	}
	nowNS := rs.clock.Now().UnixNano()
	r, ok := rs.table.Load(account)
	if ok && r.expired(nowNS) {
		rs.table.Delete(account)
		return nil, RejectExpired
	}
	if !ok {
		r = rs.mint(account, nowNS)
		if have, loaded := rs.table.LoadOrStore(account, r); loaded {
			r = have
			if r.expired(nowNS) {
				rs.table.Delete(account)
				return nil, RejectExpired
			}
		}
	}
	if max := r.limits.MaxSessions; max > 0 {
		if r.sessions.Add(1) > max {
			r.sessions.Add(-1)
			return nil, RejectSessionLimit
		}
	} else {
		r.sessions.Add(1)
	}
	return r, RejectNone
}

// EndSession returns a session slot obtained from Admit.
func (rs *Reservations) EndSession(r *Reservation) {
	if r != nil {
		r.release()
	}
}

func (rs *Reservations) mint(account string, nowNS int64) *Reservation {
	lim := *rs.limits.Load()
	r := &Reservation{account: account, limits: lim}
	if lim.Duration > 0 {
		r.expiry = nowNS + int64(lim.Duration)
	}
	if lim.DataCap > 0 {
		r.dataRem.Store(lim.DataCap)
	}
	return r
}

// NowNS exposes the registry clock in nanoseconds for frame-path
// bandwidth checks.
func (rs *Reservations) NowNS() int64 { return rs.clock.Now().UnixNano() }

// TokenAccount extracts the account an access token was minted for
// without validating its signature — the signature check stays with
// TokenIssuer.Validate; this only names the reservation bucket after
// validation succeeded.
func TokenAccount(token string) (string, error) {
	dot := strings.IndexByte(token, '.')
	if dot < 0 {
		return "", ErrTokenInvalid
	}
	body, err := base64.RawURLEncoding.DecodeString(token[:dot])
	if err != nil {
		return "", ErrTokenInvalid
	}
	account, rest, ok := strings.Cut(string(body), "|")
	if !ok || account == "" || rest == "" {
		return "", ErrTokenInvalid
	}
	return account, nil
}
