package masque

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/relay-networks/privaterelay/internal/vclock"
)

// Chaos coverage for the relay plane's control surface: drain,
// reload and every typed rejection must be deterministic — the same
// scripted workload produces byte-identical per-account rejection
// histories on every run, even with all accounts hammering the plane
// concurrently under the race detector. Determinism holds because the
// clock is virtual and only advances at phase barriers, and each
// account's reservation counters are touched by exactly one goroutine.

// planeScriptResult is everything a scripted run observes: the ordered
// rejection codes each account saw, plus the plane's aggregate
// rejection histogram.
type planeScriptResult struct {
	histories [][]RejectCode
	rejected  map[RejectCode]int64
}

// runPlaneScript drives one full lifecycle — admission caps, bandwidth
// pacing, data-cap exhaustion, drain, reload, expiry sweep — with one
// goroutine per account and clock advances only between phases.
func runPlaneScript(t *testing.T, accounts int) planeScriptResult {
	t.Helper()
	clock := vclock.NewVirtualClock()
	ctx := context.Background()
	// 1 KiB frames against: 2 sessions, 5 KiB of data, 1 KiB/s sustained
	// with a 2 KiB burst. Every limit binds at a known frame index.
	rs := NewReservations(Limits{
		Duration:     time.Hour,
		DataCap:      5 * 1024,
		BandwidthBps: 1024,
		Burst:        2 * 1024,
		MaxSessions:  2,
	}, clock)
	p := NewPlane(PlaneConfig{Reservations: rs})
	defer p.Shutdown()

	payload := make([]byte, 1024)
	histories := make([][]RejectCode, accounts)
	sessions := make([][]*PlaneSession, accounts)

	// phase runs body concurrently for every account and waits for all
	// of them — the barrier after which the main goroutine may touch the
	// shared clock or the drain switch.
	phase := func(body func(i int, acct string)) {
		var wg sync.WaitGroup
		for i := 0; i < accounts; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				body(i, string(rune('a'+i))+"-acct")
			}(i)
		}
		wg.Wait()
	}
	open := func(i int, acct string) *PlaneSession {
		s, code := p.Open(acct)
		histories[i] = append(histories[i], code)
		if s != nil {
			sessions[i] = append(sessions[i], s)
		}
		return s
	}
	relay := func(i int, f *Frame, id uint32) {
		f.Type = FrameData
		f.StreamID = id
		f.SetPayload(payload)
		histories[i] = append(histories[i], p.Relay(f))
	}

	// Phase 1: two sessions admit, the third hits the session cap; the
	// third 1 KiB frame overruns the 2 KiB burst.
	phase(func(i int, acct string) {
		s1 := open(i, acct)
		open(i, acct)
		open(i, acct)
		f := AcquireFrame()
		defer ReleaseFrame(f)
		for k := 0; k < 3; k++ {
			relay(i, f, s1.ID())
		}
	})
	if err := clock.Sleep(ctx, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// Phase 2: the bucket has refilled, so the data cap is what binds —
	// two frames drain the remaining 2 KiB, the next two are rejected.
	phase(func(i int, acct string) {
		f := AcquireFrame()
		defer ReleaseFrame(f)
		for k := 0; k < 4; k++ {
			relay(i, f, sessions[i][0].ID())
		}
	})

	// Phase 3: drain. New admissions are refused with a typed code;
	// live sessions keep being served (and keep hitting their caps).
	p.Drain()
	phase(func(i int, acct string) {
		open(i, acct)
		f := AcquireFrame()
		defer ReleaseFrame(f)
		relay(i, f, sessions[i][1].ID())
	})

	// Phase 4: resume with a reloaded policy and step past the original
	// reservations' expiry. The first admission sweeps the lapsed
	// reservation (typed, exactly once), the second mints fresh under
	// the new single-session uncapped policy, the third hits its cap.
	p.Resume()
	p.Reload(Limits{Duration: 2 * time.Hour, MaxSessions: 1})
	if err := clock.Sleep(ctx, 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	phase(func(i int, acct string) {
		open(i, acct)
		s3 := open(i, acct)
		open(i, acct)
		f := AcquireFrame()
		defer ReleaseFrame(f)
		relay(i, f, s3.ID())
	})

	// Teardown: every admitted session closes and the table empties.
	phase(func(i int, acct string) {
		for _, s := range sessions[i] {
			p.Close(s)
		}
	})
	st := p.Stats()
	if st.Sessions != 0 {
		t.Fatalf("sessions leaked after close: %d", st.Sessions)
	}
	return planeScriptResult{histories: histories, rejected: st.Rejected}
}

func TestChaosPlaneDrainReloadDeterministic(t *testing.T) {
	const accounts = 8
	first := runPlaneScript(t, accounts)

	// Every account must observe the exact scripted lifecycle.
	want := []RejectCode{
		// phase 1: admissions then burst overrun
		RejectNone, RejectNone, RejectSessionLimit,
		RejectNone, RejectNone, RejectBandwidth,
		// phase 2: data cap drains
		RejectNone, RejectNone, RejectDataCap, RejectDataCap,
		// phase 3: draining admission + still-capped live session
		RejectDraining, RejectDataCap,
		// phase 4: expiry sweep, fresh admission, new session cap, relay
		RejectExpired, RejectNone, RejectSessionLimit, RejectNone,
	}
	for i, h := range first.histories {
		if !reflect.DeepEqual(h, want) {
			t.Fatalf("account %d history = %v, want %v", i, h, want)
		}
	}

	// And an identical re-run must reproduce it bit for bit — histories
	// and the aggregate rejection histogram.
	second := runPlaneScript(t, accounts)
	if !reflect.DeepEqual(first.histories, second.histories) {
		t.Fatalf("rejection histories differ across identical runs:\n%v\n%v",
			first.histories, second.histories)
	}
	if !reflect.DeepEqual(first.rejected, second.rejected) {
		t.Fatalf("rejection histograms differ across identical runs: %v vs %v",
			first.rejected, second.rejected)
	}
}

// TestChaosShardedTableChurn hammers the sharded session table from
// concurrent owners of disjoint key ranges: the per-shard locking must
// keep every range intact (and the race detector quiet) through
// store/load/delete churn.
func TestChaosShardedTableChurn(t *testing.T) {
	const (
		workers = 8
		perW    = 2048
	)
	tbl := NewSharded[uint32, int](16, HashUint32)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint32(w * perW)
			for k := uint32(0); k < perW; k++ {
				tbl.Store(base+k, int(k))
			}
			for k := uint32(0); k < perW; k++ {
				v, ok := tbl.Load(base + k)
				if !ok || v != int(k) {
					t.Errorf("worker %d key %d: got %v %v", w, k, v, ok)
					return
				}
			}
			for k := uint32(0); k < perW; k += 2 {
				tbl.Delete(base + k)
			}
		}(w)
	}
	wg.Wait()
	if got, want := tbl.Len(), workers*perW/2; got != want {
		t.Fatalf("Len after churn = %d, want %d", got, want)
	}
	n := 0
	tbl.Range(func(k uint32, v int) bool {
		if k%2 == 0 {
			t.Fatalf("deleted key %d still present", k)
		}
		n++
		return true
	})
	if n != tbl.Len() {
		t.Fatalf("Range visited %d entries, Len reports %d", n, tbl.Len())
	}
}
