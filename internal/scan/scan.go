// Package scan implements the paper's measurements *through* the relay
// (§3, §4.3): a dual-request harness — a Safari-like fetch against an own
// logging web server plus a curl-like fetch of an IP-echo service — run
// on a 5-minute cadence over a scan day (Figure 3) and on a 30-second
// cadence over 48 hours for the egress address-rotation analysis.
//
// Target servers are preamble-aware (see masque.ReadSourcePreamble): the
// simulated egress source address plays the role of the IP header's
// source field.
package scan

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"strings"
	"sync"
	"time"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/masque"
	"github.com/relay-networks/privaterelay/internal/relay"
)

// WebServer is the scan's own logging web server: it logs every
// requester and answers a minimal HTTP-ish response. The log keeps only
// what a scan round reads — the newest requester address and the count.
type WebServer struct {
	ln net.Listener
	wg sync.WaitGroup

	mu     sync.Mutex
	last   netip.Addr
	logged int
}

// StartWebServer launches the server on loopback.
func StartWebServer() (*WebServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ws := &WebServer{ln: ln}
	ws.wg.Add(1)
	go ws.serve()
	return ws, nil
}

// Addr returns the listen address.
func (ws *WebServer) Addr() string { return ws.ln.Addr().String() }

// Close stops the server.
func (ws *WebServer) Close() { ws.ln.Close(); ws.wg.Wait() }

// Last returns the newest requester address and the number of requests
// logged so far.
func (ws *WebServer) Last() (netip.Addr, int) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.last, ws.logged
}

func (ws *WebServer) serve() {
	defer ws.wg.Done()
	for {
		c, err := ws.ln.Accept()
		if err != nil {
			return
		}
		ws.wg.Add(1)
		go func(c net.Conn) {
			defer ws.wg.Done()
			defer c.Close()
			br := bufio.NewReader(c)
			src, err := masque.ReadSourcePreamble(br)
			if err != nil {
				return
			}
			ws.mu.Lock()
			ws.last, ws.logged = src, ws.logged+1
			ws.mu.Unlock()
			// Consume the request line, then answer.
			if _, err := br.ReadString('\n'); err != nil {
				return
			}
			fmt.Fprintf(c, "HTTP/1.1 200 OK\r\n\r\nok\r\n")
		}(c)
	}
}

// EchoServer mirrors the requester's address in the response body, like
// ipecho.net/plain.
type EchoServer struct {
	ln net.Listener
	wg sync.WaitGroup
}

// StartEchoServer launches the echo service on loopback.
func StartEchoServer() (*EchoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	es := &EchoServer{ln: ln}
	es.wg.Add(1)
	go es.serve()
	return es, nil
}

// Addr returns the listen address.
func (es *EchoServer) Addr() string { return es.ln.Addr().String() }

// Close stops the server.
func (es *EchoServer) Close() { es.ln.Close(); es.wg.Wait() }

func (es *EchoServer) serve() {
	defer es.wg.Done()
	for {
		c, err := es.ln.Accept()
		if err != nil {
			return
		}
		es.wg.Add(1)
		go func(c net.Conn) {
			defer es.wg.Done()
			defer c.Close()
			br := bufio.NewReader(c)
			src, err := masque.ReadSourcePreamble(br)
			if err != nil {
				return
			}
			if _, err := br.ReadString('\n'); err != nil {
				return
			}
			fmt.Fprintf(c, "%s\n", src)
		}(c)
	}
}

// Observation is one scan round's outcome.
type Observation struct {
	Round int
	// At is the virtual timestamp of the round (Round × Interval).
	At time.Duration
	// Operator is the egress operator AS of the round's tunnel.
	Operator bgp.ASN
	// SafariEgress is the requester address the web server logged.
	SafariEgress netip.Addr
	// CurlEgress is the address the echo service returned.
	CurlEgress netip.Addr
	// Failed marks rounds where the tunnel could not be established even
	// after retries; ConnectErr carries the final establishment error.
	Failed     bool
	ConnectErr error
	// SafariErr and CurlErr record per-request failures of an otherwise
	// established round — a failed stream open, an unlogged request, an
	// unparsable echo body. A zero egress address with a nil error can no
	// longer be mistaken for "never attempted".
	SafariErr error
	CurlErr   error
}

// PartialFailure reports whether the round established a tunnel but lost
// at least one of its two requests.
func (o *Observation) PartialFailure() bool {
	return !o.Failed && (o.SafariErr != nil || o.CurlErr != nil)
}

// ErrAllRoundsFailed distinguishes a scan in which no round established
// a tunnel — the relay (or its resolution path) was down for the whole
// run — from partial degradation, which is reported per Observation.
var ErrAllRoundsFailed = errors.New("scan: every round failed to establish a tunnel")

// Config describes a through-relay scan.
type Config struct {
	Device *relay.Device
	Web    *WebServer
	Echo   *EchoServer
	// Rounds is the number of measurement rounds.
	Rounds int
	// Interval is the virtual time between rounds (5 min for the
	// operator scan, 30 s for the rotation scan). Wall-clock execution
	// runs as fast as the tunnels allow.
	Interval time.Duration
	// Connect shapes per-round tunnel-establishment retries (zero value:
	// 3 attempts, 50ms base backoff on the wall clock).
	Connect relay.ConnectRetry
	// Connector overrides the dialer (default: Device). Tests inject
	// flaky connectors here.
	Connector relay.Connector
}

// Run executes the scan: per round, one fresh tunnel carrying the
// Safari-like request and then the curl-like one, each on its own
// stream and sent one after the other. (The "parallel requests" of the
// rotation output are these two streams of one tunnel; sending them
// concurrently gains nothing, because a round is CPU-bound.) A round
// whose tunnel cannot be established after retries is recorded as
// Failed and the scan moves on; Run returns ErrAllRoundsFailed only
// when every round was lost that way.
func Run(ctx context.Context, cfg Config) ([]Observation, error) {
	conn := cfg.Connector
	if conn == nil {
		conn = cfg.Device
	}
	out := make([]Observation, 0, cfg.Rounds)
	failedRounds := 0
	for round := 0; round < cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		obs := Observation{Round: round, At: time.Duration(round) * cfg.Interval}
		tun, err := relay.ConnectWithRetry(ctx, conn, cfg.Connect)
		if err != nil {
			if ctx.Err() != nil {
				return out, ctx.Err()
			}
			obs.Failed = true
			obs.ConnectErr = err
			failedRounds++
			out = append(out, obs)
			continue
		}
		obs.Operator = tun.Operator

		_, before := cfg.Web.Last()
		// Safari-like request: fetch from the logging web server.
		if s, _, err := tun.Open(cfg.Web.Addr()); err != nil {
			obs.SafariErr = fmt.Errorf("scan: safari request: %w", err)
		} else {
			fmt.Fprintf(s, "GET / HTTP/1.1\n")
			_, _ = io.ReadAll(s)
			s.Close()
		}
		if last, logged := cfg.Web.Last(); logged > before {
			obs.SafariEgress = last
		} else if obs.SafariErr == nil {
			obs.SafariErr = errors.New("scan: safari request: server logged no egress address")
		}

		// curl-like request: fetch the echo service and parse the body.
		if s, _, err := tun.Open(cfg.Echo.Addr()); err != nil {
			obs.CurlErr = fmt.Errorf("scan: curl request: %w", err)
		} else {
			fmt.Fprintf(s, "GET /plain HTTP/1.1\n")
			body, _ := io.ReadAll(s)
			s.Close()
			a, err := netip.ParseAddr(strings.TrimSpace(string(body)))
			if err != nil {
				obs.CurlErr = fmt.Errorf("scan: curl request: bad echo body %q: %w",
					strings.TrimSpace(string(body)), err)
			} else {
				obs.CurlEgress = a
			}
		}
		tun.Close()
		out = append(out, obs)
	}
	if cfg.Rounds > 0 && failedRounds == cfg.Rounds {
		return out, fmt.Errorf("%w (%d rounds, last: %v)",
			ErrAllRoundsFailed, failedRounds, out[len(out)-1].ConnectErr)
	}
	return out, nil
}

// DominantOperator returns the operator serving the most rounds, the
// observations filtered to it, and ok=false when no round succeeded (the
// zero ASN is a legal value, so absence must be explicit — previously an
// empty observation set read a phantom zero entry and returned ASN 0 as
// if it were a measurement). Ties break toward the smaller ASN so the
// result is independent of map iteration order. The paper's 48-hour
// rotation numbers (six addresses, four subnets) describe one operator's
// location pool; rounds on other operators during switch bursts are
// reported separately.
func DominantOperator(obs []Observation) (bgp.ASN, []Observation, bool) {
	counts := map[bgp.ASN]int{}
	for _, o := range obs {
		if !o.Failed {
			counts[o.Operator]++
		}
	}
	if len(counts) == 0 {
		return 0, nil, false
	}
	var best bgp.ASN
	bestN := -1
	for as, n := range counts {
		if n > bestN || (n == bestN && as < best) {
			best, bestN = as, n
		}
	}
	var filtered []Observation
	for _, o := range obs {
		if !o.Failed && o.Operator == best {
			filtered = append(filtered, o)
		}
	}
	return best, filtered, true
}

// OperatorChange is one Figure 3 event: the egress operator differing
// from the previous round's.
type OperatorChange struct {
	Round int
	At    time.Duration
	From  bgp.ASN
	To    bgp.ASN
}

// OperatorChanges extracts the change events from a scan.
func OperatorChanges(obs []Observation) []OperatorChange {
	var out []OperatorChange
	var prev bgp.ASN
	have := false
	for _, o := range obs {
		if o.Failed {
			continue
		}
		if have && o.Operator != prev {
			out = append(out, OperatorChange{Round: o.Round, At: o.At, From: prev, To: o.Operator})
		}
		prev = o.Operator
		have = true
	}
	return out
}

// RotationStats summarizes egress address behaviour (§4.3).
type RotationStats struct {
	Rounds int
	// DistinctAddrs and DistinctSubnets count over all observed egress
	// addresses (both request types).
	DistinctAddrs   int
	DistinctSubnets int
	// ChangeRate is the share of consecutive curl observations whose
	// address differs from the previous one.
	ChangeRate float64
	// ParallelDiffer counts rounds where the Safari and curl requests of
	// the same round saw different egress addresses.
	ParallelDiffer int
	// FailedRounds counts rounds with no tunnel; SafariFailures and
	// CurlFailures count per-request losses inside established rounds.
	FailedRounds   int
	SafariFailures int
	CurlFailures   int
}

// Rotation computes rotation statistics. subnetOf attributes an egress
// address to its listed egress subnet (e.g. via geo.DB.Network built from
// the egress list); nil falls back to /24 aggregation.
func Rotation(obs []Observation, subnetOf func(netip.Addr) (netip.Prefix, bool)) RotationStats {
	st := RotationStats{Rounds: len(obs)}
	addrs := map[netip.Addr]bool{}
	subnets := map[netip.Prefix]bool{}
	record := func(a netip.Addr) {
		if !a.IsValid() {
			return
		}
		addrs[a] = true
		if subnetOf != nil {
			if p, ok := subnetOf(a); ok {
				subnets[p] = true
				return
			}
		}
		subnets[netip.PrefixFrom(a, 24).Masked()] = true
	}
	var prevCurl netip.Addr
	changes, comparisons := 0, 0
	for _, o := range obs {
		if o.Failed {
			st.FailedRounds++
			continue
		}
		if o.SafariErr != nil {
			st.SafariFailures++
		}
		if o.CurlErr != nil {
			st.CurlFailures++
		}
		record(o.SafariEgress)
		record(o.CurlEgress)
		if o.CurlEgress.IsValid() && prevCurl.IsValid() {
			comparisons++
			if o.CurlEgress != prevCurl {
				changes++
			}
		}
		if o.CurlEgress.IsValid() {
			prevCurl = o.CurlEgress
		}
		if o.SafariEgress.IsValid() && o.CurlEgress.IsValid() && o.SafariEgress != o.CurlEgress {
			st.ParallelDiffer++
		}
	}
	st.DistinctAddrs = len(addrs)
	st.DistinctSubnets = len(subnets)
	if comparisons > 0 {
		st.ChangeRate = float64(changes) / float64(comparisons)
	}
	return st
}
