package dnsserver

import (
	"context"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/relay-networks/privaterelay/internal/dnswire"
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
			TTL: 60, A: netip.MustParseAddr("192.0.2.7"),
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
