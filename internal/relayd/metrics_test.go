package relayd

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/relay-networks/privaterelay/internal/masque"
	"github.com/relay-networks/privaterelay/internal/netsim"
)

func TestRegistryDeterministicText(t *testing.T) {
	reg := NewRegistry()
	// Register out of order; exposition must sort by name then labels.
	reg.Counter("zeta_total").Add(3)
	reg.Gauge("alpha_rate", "domain", "b").Set(0.5)
	reg.Gauge("alpha_rate", "domain", "a").Set(1.5)
	reg.Counter("mid_total", "kind", "timeout", "domain", "x").Add(7)

	var first bytes.Buffer
	if err := reg.WriteText(&first); err != nil {
		t.Fatal(err)
	}
	want := `alpha_rate{domain="a"} 1.5
alpha_rate{domain="b"} 0.5
mid_total{domain="x",kind="timeout"} 7
zeta_total 3
`
	if first.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", first.String(), want)
	}
	var second bytes.Buffer
	if err := reg.WriteText(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("two scrapes of identical state differ")
	}
}

func TestRegistryHandleIdentity(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "k", "v")
	b := reg.Counter("x_total", "k", "v")
	if a != b {
		t.Fatal("same series returned distinct handles")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Fatalf("value through second handle = %d, want 2", b.Value())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type flip (counter → gauge) did not panic")
		}
	}()
	reg.Gauge("x_total", "k", "v")
}

// TestCollectPlaneCoversAllRejectCodes: every RejectCode — including
// codes with zero rejections — appears on the exported surface.
func TestCollectPlaneCoversAllRejectCodes(t *testing.T) {
	plane := masque.NewPlane(masque.PlaneConfig{})
	defer plane.Shutdown()
	sess, code := plane.Open("t")
	if code != masque.RejectNone {
		t.Fatalf("open rejected: %s", code)
	}
	defer plane.Close(sess)
	f := masque.AcquireFrame()
	defer masque.ReleaseFrame(f)
	f.Type = masque.FrameData
	f.SetPayload([]byte("x"))
	f.StreamID = sess.ID()
	if code := plane.Relay(f); code != masque.RejectNone {
		t.Fatalf("relay rejected: %s", code)
	}
	f.StreamID = 0
	if code := plane.Relay(f); code != masque.RejectNoReservation {
		t.Fatalf("ghost stream: %s, want NO_RESERVATION", code)
	}

	reg := NewRegistry()
	reg.CollectPlane(plane)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for c := masque.RejectNone; c <= masque.RejectDraining; c++ {
		if !strings.Contains(out, `masque_rejected_total{code="`+c.String()+`"}`) {
			t.Fatalf("missing reject code %s in:\n%s", c, out)
		}
	}
	if !strings.Contains(out, `masque_rejected_total{code="NO_RESERVATION"} 1`) {
		t.Fatalf("NO_RESERVATION count not exported:\n%s", out)
	}
	if !strings.Contains(out, "masque_frames_relayed_total 1") {
		t.Fatalf("frame count not exported:\n%s", out)
	}
}

func TestCollectPoolsExportsHitRate(t *testing.T) {
	// Warm both pools so acquires is nonzero whatever ran before.
	m := masque.AcquireFrame()
	masque.ReleaseFrame(m)
	reg := NewRegistry()
	reg.CollectPools()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`pool_hit_rate{pool="dnswire_message"}`,
		`pool_hit_rate{pool="masque_frame"}`,
		`pool_acquires_total{pool="masque_frame"}`,
		`pool_misses_total{pool="masque_frame"}`,
	} {
		if !strings.Contains(buf.String(), series) {
			t.Fatalf("missing %s in:\n%s", series, buf.String())
		}
	}
}

// checkpointSeries extracts the relayd_checkpoint_* lines of a scrape.
func checkpointSeries(t *testing.T, reg *Registry) string {
	t.Helper()
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, line := range strings.SplitAfter(text.String(), "\n") {
		if strings.HasPrefix(line, "relayd_checkpoint_") {
			out.WriteString(line)
		}
	}
	return out.String()
}

// TestCheckpointCountersPreRegisteredAndStable: the scan-journal series
// exist at zero before any scan has run, so the series set on /metrics
// never depends on progress, and two single-worker catch-ups on the
// virtual clock export byte-identical values.
func TestCheckpointCountersPreRegisteredAndStable(t *testing.T) {
	run := func() (fresh, caughtUp string) {
		cfg := testServiceConfig(t.TempDir())
		cfg.Pipeline.Months = netsim.ScanMonths[:1]
		cfg.Pipeline.Concurrency = 1
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		fresh = checkpointSeries(t, svc.Registry())
		stepUntilCaughtUp(t, svc, context.Background())
		return fresh, checkpointSeries(t, svc.Registry())
	}
	fresh, first := run()
	const want = `relayd_checkpoint_bytes_total{domain="mask-h2.icloud.com."} 0
relayd_checkpoint_bytes_total{domain="mask.icloud.com."} 0
relayd_checkpoint_frames_total{domain="mask-h2.icloud.com."} 0
relayd_checkpoint_frames_total{domain="mask.icloud.com."} 0
relayd_checkpoint_syncs_total{domain="mask-h2.icloud.com."} 0
relayd_checkpoint_syncs_total{domain="mask.icloud.com."} 0
relayd_checkpoint_torn_tail_total{domain="mask-h2.icloud.com."} 0
relayd_checkpoint_torn_tail_total{domain="mask.icloud.com."} 0
`
	if fresh != want {
		t.Fatalf("fresh service exports:\n%s\nwant:\n%s", fresh, want)
	}
	if _, second := run(); first != second {
		t.Fatalf("two identical catch-ups export different journal counters:\n%s\nvs\n%s", first, second)
	}
	// One January scan per domain over the 25 340-subnet universe: 396
	// batch frames; the 395 full ones each trigger a group commit at
	// relayd's cadence of 64, plus the header's commit and the final one.
	for _, series := range []string{
		`relayd_checkpoint_frames_total{domain="mask.icloud.com."} 396`,
		`relayd_checkpoint_syncs_total{domain="mask.icloud.com."} 397`,
		`relayd_checkpoint_torn_tail_total{domain="mask.icloud.com."} 0`,
	} {
		if !strings.Contains(first, series+"\n") {
			t.Fatalf("after catch-up, want %s in:\n%s", series, first)
		}
	}
}
