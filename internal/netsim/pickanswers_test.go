package netsim

import (
	"net/netip"
	"testing"

	"github.com/relay-networks/privaterelay/internal/bgp"
)

// TestPickAnswersSmallFleetComplete pins that for fleets no larger than
// MaxAnswerRecords, pickAnswers returns every distinct member — the
// answer is the whole fleet, in a key-dependent order. If the dedup
// bailout ever started dropping members the simulated CDN would
// under-advertise its ingress fleet. The picks are appended after what
// dst already holds, and deduplicated only among themselves.
func TestPickAnswersSmallFleetComplete(t *testing.T) {
	months := []bgp.Month{{Year: 2022, M: 1}, {Year: 2022, M: 3}, {Year: 2022, M: 4}}
	protos := []Proto{ProtoDefault, ProtoFallback}
	for n := 1; n <= MaxAnswerRecords; n++ {
		fleet := make([]netip.Addr, n)
		for i := range fleet {
			fleet[i] = netip.AddrFrom4([4]byte{143, 92, byte(n), byte(i)})
		}
		for key := uint64(0); key < 500; key++ {
			for _, month := range months {
				for _, proto := range protos {
					out := pickAnswers(fleet[:1:1], fleet, key*0x9E3779B97F4A7C15, month, proto)
					if out[0] != fleet[0] {
						t.Fatalf("n=%d key=%d: dst prefix overwritten: %v", n, key, out[0])
					}
					out = out[1:]
					if len(out) != n {
						t.Fatalf("n=%d key=%d month=%v proto=%v: got %d answers, want all %d",
							n, key, month, proto, len(out), n)
					}
					seen := make(map[netip.Addr]bool, n)
					for _, a := range out {
						if seen[a] {
							t.Fatalf("n=%d key=%d: duplicate answer %v", n, key, a)
						}
						seen[a] = true
					}
				}
			}
		}
	}
}

// TestPickAnswersTerminatesUnderDedupPressure feeds a fleet that is all
// duplicates of one address: every draw collides, so only the k-bailout
// can end the loop. The test passing at all is the assertion — without
// the bailout it would spin forever.
func TestPickAnswersTerminatesUnderDedupPressure(t *testing.T) {
	same := netip.AddrFrom4([4]byte{143, 92, 0, 1})
	fleet := make([]netip.Addr, MaxAnswerRecords)
	for i := range fleet {
		fleet[i] = same
	}
	out := pickAnswers(nil, fleet, 42, bgp.Month{Year: 2022, M: 4}, ProtoDefault)
	if len(out) != 1 || out[0] != same {
		t.Fatalf("got %v, want exactly [%v]", out, same)
	}
}
