package dnsserver

import (
	"bytes"
	"context"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/netsim"
)

// dropFirstHandler drops the first N queries (no response: the client
// times out) and answers afterwards, recording every transaction ID it
// saw.
type dropFirstHandler struct {
	mu   sync.Mutex
	drop int
	ids  []uint16
}

func (h *dropFirstHandler) Handle(q *dnswire.Message, _ netip.Addr) *dnswire.Message {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ids = append(h.ids, q.Header.ID)
	if len(h.ids) <= h.drop {
		return nil
	}
	return &dnswire.Message{
		Header:    dnswire.Header{ID: q.Header.ID, Response: true},
		Questions: q.Questions,
		Answers: []dnswire.Record{{
			Name: q.Questions[0].Name, Type: dnswire.TypeA, Class: dnswire.ClassIN,
			TTL: 60, Addr: netip.MustParseAddr("192.0.2.7"),
		}},
	}
}

func (h *dropFirstHandler) seen() []uint16 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint16(nil), h.ids...)
}

// TestUDPClientRetriesRegenerateID: each retry must be its own DNS
// transaction — fresh ID on the wire — while the answer returned to the
// caller still carries the caller's original ID.
func TestUDPClientRetriesRegenerateID(t *testing.T) {
	h := &dropFirstHandler{drop: 2}
	us, err := ListenUDP("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer us.Close()

	cl := &UDPClient{
		ServerAddr: us.Addr().String(),
		Timeout:    200 * time.Millisecond,
		Retries:    3,
		Backoff:    5 * time.Millisecond,
	}
	const origID = 0x1234
	q := dnswire.NewQuery(origID, "mask.icloud.com.", dnswire.TypeA)
	resp, err := cl.Exchange(context.Background(), q)
	if err != nil {
		t.Fatalf("exchange failed after retries: %v", err)
	}
	if resp.Header.ID != origID {
		t.Fatalf("caller sees ID %#x, want the original %#x", resp.Header.ID, origID)
	}
	ids := h.seen()
	if len(ids) < 3 {
		t.Fatalf("server saw %d attempts, want >= 3", len(ids))
	}
	if ids[0] != origID {
		t.Fatalf("first attempt ID %#x, want the original %#x", ids[0], origID)
	}
	distinct := map[uint16]bool{}
	for _, id := range ids {
		distinct[id] = true
	}
	if len(distinct) != len(ids) {
		t.Fatalf("attempt IDs not distinct: %v", ids)
	}
}

// paddingHandler appends one raw TXT record of three 200-byte strings
// to every response, pushing it past the 512-byte UDP floor.
type paddingHandler struct{ inner Handler }

func (p paddingHandler) Handle(q *dnswire.Message, from netip.Addr) *dnswire.Message {
	resp := p.inner.Handle(q, from)
	if resp != nil {
		txt := bytes.Repeat(append([]byte{200}, bytes.Repeat([]byte("p"), 200)...), 3)
		resp.Answers = append(resp.Answers, dnswire.Record{
			Name: q.Questions[0].Name, Type: dnswire.TypeTXT, Class: dnswire.ClassIN, TTL: 1, Data: txt,
		})
	}
	return resp
}

// udpRoundTrip sends q to addr from a plain socket and returns the raw
// response datagram, so a test can see the wire size the server chose.
func udpRoundTrip(t *testing.T, addr string, q *dnswire.Message) []byte {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wire, err := q.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	return buf[:n]
}

// TestUDPServerTruncatesOversizeResponse: a response that does not fit
// the requester's advertised buffer goes out with TC set, the question
// echoed and no records at all (RFC 2181 §9), while the service's own
// eight-record answer fits the default 1232-byte buffer whole.
func TestUDPServerTruncatesOversizeResponse(t *testing.T) {
	w, srv := testSetup(t)
	var subnet netip.Prefix
	for _, s := range clientSlash24s(w) {
		if len(w.IngressAnswer(s, netsim.MonthApr, netsim.ProtoDefault)) == netsim.MaxAnswerRecords {
			subnet = s
			break
		}
	}
	if !subnet.IsValid() {
		t.Fatalf("no client /24 gets a %d-record answer", netsim.MaxAnswerRecords)
	}
	plain, err := ListenUDP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	padded, err := ListenUDP("127.0.0.1:0", paddingHandler{srv})
	if err != nil {
		t.Fatal(err)
	}
	defer padded.Close()

	resp, err := dnswire.Decode(udpRoundTrip(t, plain.Addr().String(), ecsQuery(1, MaskDomain, subnet)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Truncated || len(resp.Answers) != netsim.MaxAnswerRecords {
		t.Fatalf("8-record answer at 1232: TC=%v, %d answers", resp.Header.Truncated, len(resp.Answers))
	}

	q := ecsQuery(2, MaskDomain, subnet)
	q.Edns.UDPSize = 512
	wire := udpRoundTrip(t, padded.Addr().String(), q)
	if len(wire) > 512 {
		t.Fatalf("truncated response is %d bytes, over the 512-byte buffer", len(wire))
	}
	resp, err = dnswire.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.Truncated || len(resp.Answers)+len(resp.Authorities)+len(resp.Additionals) != 0 {
		t.Fatalf("padded response at 512: TC=%v, %d/%d/%d records, want TC and none",
			resp.Header.Truncated, len(resp.Answers), len(resp.Authorities), len(resp.Additionals))
	}
	if len(resp.Questions) != 1 || resp.Questions[0] != q.Questions[0] {
		t.Fatalf("truncated response questions = %v, want %v", resp.Questions, q.Questions)
	}
}
