package atlas

import (
	"context"
	"fmt"

	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/dnswire"
)

// BlockingReport reproduces the §4.1 blocking analysis: probes are
// classified by how their resolution of the relay domain fails, with a
// control domain separating blocking from plain brokenness.
type BlockingReport struct {
	Probes int
	// TimedOut counts probes whose query timed out. A control-domain
	// measurement shows similar shares, so these are NOT counted as
	// blocking.
	TimedOut int
	// Errored counts probes whose measurement failed hard (broken
	// transport). Like timeouts, these are brokenness, not blocking.
	Errored int
	// FailedWithResponse counts probes that received a DNS response but
	// no usable answer.
	FailedWithResponse int
	// ByRCode breaks FailedWithResponse down per response code.
	ByRCode map[dnswire.RCode]int
	// Hijacked counts probes whose resolver substituted the answer.
	Hijacked int
	// Blocked counts probes classified as intentionally blocked:
	// NXDOMAIN or NOERROR-without-data (the authoritative never answers
	// that way), verified REFUSED, and hijacks.
	Blocked int
}

// BlockedShare returns the blocked share in percent.
func (r *BlockingReport) BlockedShare() float64 {
	if r.Probes == 0 {
		return 0
	}
	return float64(r.Blocked) / float64(r.Probes) * 100
}

// TimeoutShare returns the timeout share in percent.
func (r *BlockingReport) TimeoutShare() float64 {
	if r.Probes == 0 {
		return 0
	}
	return float64(r.TimedOut) / float64(r.Probes) * 100
}

// String renders the report compactly.
func (r *BlockingReport) String() string {
	return fmt.Sprintf("blocking{probes=%d timeout=%.1f%% failed=%d blocked=%d (%.1f%%)}",
		r.Probes, r.TimeoutShare(), r.FailedWithResponse, r.Blocked, r.BlockedShare())
}

// BlockingStudyWorkers measures the relay domain and a control domain
// across the population, with `workers` campaign workers (≤ 0:
// workpool's default), and classifies failures per the paper's
// methodology. The classification is per-probe and the campaigns are
// deterministic, so the report is identical at any worker count.
func BlockingStudyWorkers(ctx context.Context, pop *Population, workers int) (*BlockingReport, error) {
	relay, err := Campaign{Domain: dnsserver.MaskDomain, Type: dnswire.TypeA, Workers: workers}.Run(ctx, pop)
	if err != nil {
		return nil, err
	}
	control, err := Campaign{Domain: dnsserver.WhoamiDomain, Type: dnswire.TypeA, Workers: workers}.Run(ctx, pop)
	if err != nil {
		return nil, err
	}
	report := &BlockingReport{
		Probes:  len(relay),
		ByRCode: make(map[dnswire.RCode]int),
	}
	for i, r := range relay {
		controlOK := control[i].Err == nil && !control[i].TimedOut &&
			control[i].RCode == dnswire.RCodeNoError && len(control[i].Addrs) > 0
		switch {
		case r.Err != nil:
			report.Errored++
		case r.TimedOut:
			report.TimedOut++
		case r.Hijacked:
			report.Hijacked++
			report.Blocked++
		case r.RCode != dnswire.RCodeNoError || len(r.Addrs) == 0:
			report.FailedWithResponse++
			report.ByRCode[r.RCode]++
			// NXDOMAIN and NOERROR-without-data claim a completed
			// resolution the authoritative never produces → blocking.
			// REFUSED counts once the control domain proves the resolver
			// otherwise works (§4.1's verification step).
			switch {
			case r.RCode == dnswire.RCodeNXDomain || (r.RCode == dnswire.RCodeNoError && len(r.Addrs) == 0):
				report.Blocked++
			case r.RCode == dnswire.RCodeRefused && controlOK:
				report.Blocked++
			}
		}
	}
	return report, nil
}
