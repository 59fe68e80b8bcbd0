package faults

import (
	"context"
	"errors"
	"net/netip"
	"testing"
	"time"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/vclock"
)

// okHandler answers every query with one A record.
type okHandler struct{}

func (okHandler) Handle(q *dnswire.Message, _ netip.Addr) *dnswire.Message {
	return &dnswire.Message{
		Header:    dnswire.Header{ID: q.Header.ID, Response: true},
		Questions: q.Questions,
		Answers: []dnswire.Record{{
			Name: q.Questions[0].Name, Type: dnswire.TypeA, Class: dnswire.ClassIN,
			TTL: 60, Addr: netip.MustParseAddr("192.0.2.1"),
		}},
	}
}

func memInner() dnsserver.Exchanger {
	return &dnsserver.MemTransport{Handler: okHandler{}, Source: netip.MustParseAddr("198.51.100.1")}
}

func ecsQuery(id uint16, subnet string) *dnswire.Message {
	return dnswire.NewQuery(id, "mask.icloud.com.", dnswire.TypeA).
		WithECS(netip.MustParsePrefix(subnet))
}

// fate classifies one exchange outcome for comparison across runs.
func fate(resp *dnswire.Message, err error, wantID uint16) string {
	switch {
	case errors.Is(err, dnsserver.ErrTimeout):
		return "timeout"
	case err != nil:
		return "err"
	case resp.Header.ID != wantID:
		return "stale"
	case resp.Header.Truncated:
		return "truncate"
	default:
		return resp.Header.RCode.String()
	}
}

func TestInjectorDeterministicPerAttempt(t *testing.T) {
	profile := &Profile{Seed: 42, Timeout: 0.2, ServFail: 0.1, Refused: 0.05, Truncate: 0.05, Stale: 0.05}
	run := func() []string {
		inj := NewInjector(memInner(), profile, vclock.NewVirtualClock(), nil)
		var fates []string
		for sub := 0; sub < 64; sub++ {
			subnet := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(sub), 0}), 24)
			for attempt := uint16(0); attempt < 4; attempt++ {
				q := dnswire.NewQuery(uint16(sub)*8+attempt, "mask.icloud.com.", dnswire.TypeA).WithECS(subnet)
				resp, err := inj.Exchange(context.Background(), q)
				fates = append(fates, fate(resp, err, q.Header.ID))
			}
		}
		return fates
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d fate differs across identical runs: %q vs %q", i, a[i], b[i])
		}
	}
	// The schedule must actually exercise several kinds.
	kinds := map[string]int{}
	for _, f := range a {
		kinds[f]++
	}
	for _, want := range []string{"timeout", "SERVFAIL", "NOERROR"} {
		if kinds[want] == 0 {
			t.Fatalf("profile injected no %s in %d attempts (%v)", want, len(a), kinds)
		}
	}
}

func TestInjectorStatsReconcile(t *testing.T) {
	profile := &Profile{Seed: 9, Timeout: 0.2, ServFail: 0.15, Refused: 0.1, Truncate: 0.1, Stale: 0.1}
	inj := NewInjector(memInner(), profile, vclock.NewVirtualClock(), nil)
	const n = 4096
	observed := map[string]int64{}
	for i := 0; i < n; i++ {
		q := ecsQuery(uint16(i), "203.0.113.0/24")
		q.Edns.ClientSubnet.Addr = netip.AddrFrom4([4]byte{byte(i >> 8), byte(i), 1, 0})
		resp, err := inj.Exchange(context.Background(), q)
		observed[fate(resp, err, q.Header.ID)]++
	}
	checks := []struct {
		fate string
		got  int64
	}{
		{"timeout", inj.Stats.Timeouts.Load()},
		{"SERVFAIL", inj.Stats.ServFails.Load()},
		{"REFUSED", inj.Stats.Refused.Load()},
		{"truncate", inj.Stats.Truncated.Load()},
		{"stale", inj.Stats.Stale.Load()},
		{"NOERROR", inj.Stats.Passed.Load()},
	}
	for _, c := range checks {
		if observed[c.fate] != c.got {
			t.Errorf("%s: observed %d, injector counted %d", c.fate, observed[c.fate], c.got)
		}
	}
	if total := inj.Stats.Total() + inj.Stats.Passed.Load(); total != n {
		t.Errorf("faults+passed = %d, want %d", total, n)
	}
}

func TestBurstWindowOnVirtualClock(t *testing.T) {
	clock := vclock.NewVirtualClock()
	profile := &Profile{Seed: 3, Bursts: []Burst{{Kind: KindServFail, Start: time.Second, Len: 2 * time.Second}}}
	inj := NewInjector(memInner(), profile, clock, nil)
	ctx := context.Background()

	q := ecsQuery(1, "203.0.113.0/24")
	if resp, err := inj.Exchange(ctx, q); err != nil || resp.Header.RCode != dnswire.RCodeNoError {
		t.Fatalf("before burst: resp=%v err=%v", resp, err)
	}
	clock.Sleep(ctx, 1500*time.Millisecond) // inside the window
	if resp, err := inj.Exchange(ctx, q); err != nil || resp.Header.RCode != dnswire.RCodeServFail {
		t.Fatalf("inside burst: resp=%v err=%v", resp, err)
	}
	clock.Sleep(ctx, 2*time.Second) // past the window
	if resp, err := inj.Exchange(ctx, q); err != nil || resp.Header.RCode != dnswire.RCodeNoError {
		t.Fatalf("after burst: resp=%v err=%v", resp, err)
	}
	if inj.Stats.ServFails.Load() != 1 {
		t.Fatalf("ServFails = %d, want 1", inj.Stats.ServFails.Load())
	}
}

func TestBlackoutByClientAS(t *testing.T) {
	clock := vclock.NewVirtualClock()
	origin := func(a netip.Addr) (bgp.ASN, bool) {
		if a.As4()[0] == 10 {
			return 65010, true
		}
		return 65099, true
	}
	profile := &Profile{Blackouts: []Blackout{{AS: 65010, Kind: KindTimeout, Until: time.Minute}}}
	inj := NewInjector(memInner(), profile, clock, origin)
	ctx := context.Background()

	dark := ecsQuery(1, "10.1.2.0/24")
	lit := ecsQuery(2, "203.0.113.0/24")
	if _, err := inj.Exchange(ctx, dark); !errors.Is(err, dnsserver.ErrTimeout) {
		t.Fatalf("blacked-out AS query: err=%v, want timeout", err)
	}
	if _, err := inj.Exchange(ctx, lit); err != nil {
		t.Fatalf("unaffected AS query: %v", err)
	}
	clock.Sleep(ctx, 2*time.Minute)
	if _, err := inj.Exchange(ctx, dark); err != nil {
		t.Fatalf("after blackout expiry: %v", err)
	}
}

func TestLatencyInjectionAdvancesVirtualClock(t *testing.T) {
	clock := vclock.NewVirtualClock()
	profile := &Profile{Seed: 5, LatencyRate: 0.999, Latency: 10 * time.Millisecond}
	inj := NewInjector(memInner(), profile, clock, nil)
	for i := 0; i < 20; i++ {
		q := ecsQuery(uint16(i), "203.0.113.0/24")
		if _, err := inj.Exchange(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if inj.Stats.Delayed.Load() == 0 {
		t.Fatal("no latency injected at rate 0.999")
	}
	if got := clock.Elapsed(); got != time.Duration(inj.Stats.Delayed.Load())*10*time.Millisecond {
		t.Fatalf("virtual clock advanced %v for %d delays", got, inj.Stats.Delayed.Load())
	}
}

func TestParseProfileRoundTrip(t *testing.T) {
	spec := "seed=7,timeout=0.1,servfail=0.05,latency=0.2:5ms,burst=refused:10s+30s,blackout=65010:timeout:1m"
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.Timeout != 0.1 || p.ServFail != 0.05 {
		t.Fatalf("rates wrong: %+v", p)
	}
	if p.LatencyRate != 0.2 || p.Latency != 5*time.Millisecond {
		t.Fatalf("latency wrong: %+v", p)
	}
	if len(p.Bursts) != 1 || p.Bursts[0] != (Burst{Kind: KindRefused, Start: 10 * time.Second, Len: 30 * time.Second}) {
		t.Fatalf("burst wrong: %+v", p.Bursts)
	}
	if len(p.Blackouts) != 1 || p.Blackouts[0] != (Blackout{AS: 65010, Kind: KindTimeout, Until: time.Minute}) {
		t.Fatalf("blackout wrong: %+v", p.Blackouts)
	}
	// String renders a spec Parse accepts again.
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", p.String(), err)
	}
	if p2.String() != p.String() {
		t.Fatalf("round trip: %q vs %q", p2.String(), p.String())
	}
}

func TestParsePresetsAndErrors(t *testing.T) {
	if p, err := Parse("off"); err != nil || p != nil {
		t.Fatalf("off: %v %v", p, err)
	}
	if p, err := Parse(""); err != nil || p != nil {
		t.Fatalf("empty: %v %v", p, err)
	}
	p, err := Parse("harsh,seed=99")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 99 || p.Timeout != 0.10 || len(p.Bursts) != 1 {
		t.Fatalf("preset extension: %+v", p)
	}
	if Presets["harsh"].Seed != 1 {
		t.Fatal("extending a preset mutated the shared copy")
	}
	for _, bad := range []string{"nope=1", "timeout=1.5", "timeout=NaN", "burst=zap:1s+1s", "latency=0.5", "blackout=1:2"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestInjectorQueryKeyMatchesSubnetPrefix holds queryKey to the hash of
// the ECS option's Prefix — the query identity every steady-state fate
// is keyed on — for well-formed, mapped, IPv6 and ill-formed options.
func TestInjectorQueryKeyMatchesSubnetPrefix(t *testing.T) {
	for _, cs := range []dnswire.ClientSubnet{
		{SourcePrefixLen: 24, Addr: netip.MustParseAddr("10.1.2.0")},
		{SourcePrefixLen: 24, Addr: netip.MustParseAddr("10.1.2.77")},
		{SourcePrefixLen: 0, Addr: netip.MustParseAddr("10.1.2.3")},
		{SourcePrefixLen: 32, Addr: netip.MustParseAddr("10.1.2.3")},
		{SourcePrefixLen: 24, Addr: netip.MustParseAddr("::ffff:10.1.2.3")},
		{SourcePrefixLen: 56, Addr: netip.MustParseAddr("2001:db8::1")},
		{SourcePrefixLen: 33, Addr: netip.MustParseAddr("10.1.2.3")},
		{SourcePrefixLen: 200, Addr: netip.MustParseAddr("2001:db8::1")},
		{SourcePrefixLen: 24},
	} {
		q := dnswire.NewQuery(1, "mask.icloud.com.", dnswire.TypeA)
		q.Edns = &dnswire.EDNS{UDPSize: 1232, ClientSubnet: &cs}
		if got, want := queryKey(q), iputil.HashPrefix(cs.Prefix()); got != want {
			t.Errorf("queryKey(%v/%d) = %#x, want HashPrefix(Prefix()) = %#x", cs.Addr, cs.SourcePrefixLen, got, want)
		}
	}
}
