// blocking-monitor: track where iCloud Private Relay is blocked via DNS,
// reproducing the §4.1 methodology — a distributed probe population
// resolves the service domains, failures are cross-checked against a
// control domain, and response codes separate intentional blocking from
// broken resolvers.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"github.com/relay-networks/privaterelay/internal/atlas"
	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/netsim"
)

func main() {
	world := netsim.NewWorld(netsim.Params{Seed: 33, Scale: 0.0008})
	population := atlas.NewPopulation(world, netsim.MonthApr, atlas.Config{
		Seed: 33, N: 6000, SubnetClusters: 1500,
	})
	fmt.Printf("monitoring with %d probes (%d‰ behind public resolvers)\n\n",
		len(population.Probes), atlas.IdentifyResolvers(population))

	report, err := atlas.BlockingStudyWorkers(context.Background(), population, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("resolution of mask.icloud.com across probes:")
	fmt.Printf("  timeouts:              %5d (%.1f%%) — also fail for the control domain, not blocking\n",
		report.TimedOut, report.TimeoutShare())
	fmt.Printf("  failed with response:  %5d\n", report.FailedWithResponse)

	type rcRow struct {
		rc dnswire.RCode
		n  int
	}
	var rows []rcRow
	for rc, n := range report.ByRCode {
		rows = append(rows, rcRow{rc, n})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].n > rows[j].n })
	for _, r := range rows {
		fmt.Printf("    %-9s %5d (%.0f%% of failures)\n", r.rc, r.n,
			float64(r.n)/float64(report.FailedWithResponse)*100)
	}
	fmt.Printf("  hijacked answers:      %5d\n\n", report.Hijacked)
	fmt.Printf("probes without access to the service: %d (%.1f%%)\n",
		report.Blocked, report.BlockedShare())
	fmt.Println("\n(the paper found 645 of ~11.7k probes blocked — 5.5%)")
}
