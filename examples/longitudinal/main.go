// longitudinal: track the service's evolution across the paper's four
// scan months — run an ECS scan per month, persist each dataset, and
// diff consecutive months, reproducing the §4.1 growth story (default
// plane +34 %, fallback +293 %).
package main

import (
	"context"
	"fmt"
	"log"
	"net/netip"
	"os"
	"path/filepath"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/colstore"
	"github.com/relay-networks/privaterelay/internal/core"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/netsim"
)

func main() {
	world := netsim.NewWorld(netsim.Params{Seed: 77, Scale: 0.0008})
	dir, err := os.MkdirTemp("", "relay-datasets-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	fmt.Printf("persisting datasets under %s\n\n", dir)

	runScan := func(month bgp.Month, domain string) *colstore.Dataset {
		srv := dnsserver.NewAuthServer(world, month, nil)
		ds, err := core.Scan(context.Background(), core.ScanConfig{
			Exchanger:    &dnsserver.MemTransport{Handler: srv, Source: netip.MustParseAddr("198.51.100.53")},
			Domain:       domain,
			Universe:     world.RoutedV4Prefixes(),
			Attribution:  world.Table,
			RespectScope: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		plane := "default"
		if domain == dnsserver.MaskH2Domain {
			plane = "fallback"
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-%s.csv", month, plane))
		if err := core.SaveCanonicalFile(path, ds); err != nil {
			log.Fatal(err)
		}
		return &ds.Dataset
	}

	fmt.Println("default plane (mask.icloud.com):")
	var prev *colstore.Dataset
	for _, m := range netsim.ScanMonths {
		ds := runScan(m, dnsserver.MaskDomain)
		line := fmt.Sprintf("  %s: %4d addresses", m, ds.Addrs())
		if prev != nil {
			n := colstore.DiffCounts(prev, ds)
			line += fmt.Sprintf("  (+%d / -%d, %+.1f%%)", n[colstore.Appeared], n[colstore.Vanished], core.GrowthPercent(prev, ds))
		}
		fmt.Println(line)
		prev = ds
	}

	fmt.Println("\nfallback plane (mask-h2.icloud.com):")
	feb := runScan(netsim.MonthFeb, dnsserver.MaskH2Domain)
	apr := runScan(netsim.MonthApr, dnsserver.MaskH2Domain)
	fmt.Printf("  2022-02: %d addresses\n", feb.Addrs())
	fmt.Printf("  2022-04: %d addresses (%+.0f%% — the paper reports +293%%)\n",
		apr.Addrs(), core.GrowthPercent(feb, apr))

	// Reload one persisted dataset to show the round trip.
	path := filepath.Join(dir, "2022-04-default.csv")
	loaded, _, err := core.LoadColumns(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreloaded %s: %d addresses (%s)\n", filepath.Base(path), loaded.Addrs(), loaded.Domain)
}
