package retry_test

import (
	"net/netip"
	"testing"
	"time"

	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/retry"
)

// schedules are the callers' schedules as they configure them: base,
// cap and the jitter key each mixes for retry k (0-based).
var schedules = []struct {
	name string
	b    retry.Backoff
	key  func(k int) uint64
	// want pins the first eight delays to the values the callers'
	// separate implementations produced before they shared this one.
	want [8]time.Duration
}{
	{
		name: "core", // ScanConfig.Backoff, default cap 64×, keyed by subnet
		b:    retry.Backoff{Base: 100 * time.Millisecond, Cap: 64 * 100 * time.Millisecond},
		key: func(k int) uint64 {
			return iputil.Mix(iputil.HashPrefix(netip.MustParsePrefix("192.0.2.0/24")), uint64(k)^0xBACC0FF)
		},
		want: [8]time.Duration{95177732, 128883162, 285258480, 473760606, 928443006, 2912272438, 5179466771, 6389669052},
	},
	{
		name: "dnsserver", // UDPClient, cap 8×, keyed by transaction ID 42
		b:    retry.Backoff{Base: 100 * time.Millisecond, Cap: 8 * 100 * time.Millisecond},
		key:  func(k int) uint64 { return iputil.Mix(42+1, uint64(k)^0xD15C0) },
		want: [8]time.Duration{82677794, 179465082, 316253507, 653611396, 407004598, 589050875, 576614083, 659715295},
	},
	{
		name: "relay", // ConnectWithRetry, cap 8×, keyed by the 1-based try
		b:    retry.Backoff{Base: 50 * time.Millisecond, Cap: 8 * 50 * time.Millisecond},
		key: func(k int) uint64 {
			a := uint64(k + 1)
			return iputil.Mix(0xC0FFEE^a, a)
		},
		want: [8]time.Duration{40684376, 89552375, 162737505, 358209502, 325475011, 358209502, 325475011, 358209502},
	},
}

func TestBackoffSchedulesPinned(t *testing.T) {
	for _, s := range schedules {
		for k, want := range s.want {
			if got := s.b.Delay(k, s.key(k)); got != want {
				t.Errorf("%s: retry %d: delay %d, want %d", s.name, k, got, want)
			}
		}
	}
}

// TestBackoffDelayShape: deterministic per (attempt, key), inside
// [Base/2, Cap), capped growth, and jitter that varies across keys.
func TestBackoffDelayShape(t *testing.T) {
	for _, b := range []retry.Backoff{
		{Base: 100 * time.Millisecond, Cap: time.Second},
		{Base: 100 * time.Millisecond, Cap: 800 * time.Millisecond},
		{Base: 50 * time.Millisecond, Cap: 30 * 50 * time.Millisecond},
	} {
		for attempt := 0; attempt < 12; attempt++ {
			key := iputil.Mix(12345, uint64(attempt))
			d := b.Delay(attempt, key)
			if d != b.Delay(attempt, key) {
				t.Fatalf("%+v attempt %d: nondeterministic delay", b, attempt)
			}
			if d < b.Base/2 || d >= b.Cap {
				t.Fatalf("%+v attempt %d: delay %v outside [Base/2, Cap)", b, attempt, d)
			}
			if ceiling := min(b.Cap, b.Base<<attempt); d >= ceiling {
				t.Fatalf("%+v attempt %d: delay %v not below min(Cap, Base·2^k) = %v", b, attempt, d, ceiling)
			}
		}
		seen := map[time.Duration]bool{}
		for key := uint64(0); key < 16; key++ {
			seen[b.Delay(2, iputil.Mix(key, 2))] = true
		}
		if len(seen) < 8 {
			t.Fatalf("%+v: jitter barely varies across keys: %d distinct of 16", b, len(seen))
		}
	}
	if (retry.Backoff{}).Delay(3, 1) != 0 {
		t.Fatal("zero Base must not wait")
	}
	if (retry.Backoff{Base: -time.Second, Cap: time.Second}).Delay(0, 1) != 0 {
		t.Fatal("negative Base must not wait")
	}
}
