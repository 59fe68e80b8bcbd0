// Command ecsscan runs the ECS-based ingress enumeration (§3, §4.1)
// against the simulated authoritative infrastructure and prints the
// discovered ingress addresses with AS attribution.
//
// By default the scan runs over the in-memory transport; -udp moves the
// DNS exchange onto a real loopback UDP socket, exercising the full wire
// format end to end.
//
// The scan is core.MonthScan, the one configuration relayd and the
// report run too. -fault-profile injects deterministic DNS faults
// (timeouts, SERVFAIL, bursts) into the exchange path and switches on
// that configuration's resilience policy — retries, deferral passes,
// backoff and a circuit breaker — on a virtual clock, so backoff costs
// no wall time. -checkpoint/-resume persist progress so a killed scan
// continues where it stopped and converges to the same dataset.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"

	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/colstore"
	"github.com/relay-networks/privaterelay/internal/core"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/faults"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/profiling"
	"github.com/relay-networks/privaterelay/internal/vclock"
)

func main() {
	var (
		seed    = flag.Uint64("seed", 1, "world seed")
		scale   = flag.Float64("scale", 0.002, "client-universe scale (1.0 = paper scale, ~12M /24s)")
		month   = flag.Int("month", 4, "scan month (1=Jan .. 4=Apr 2022)")
		domain  = flag.String("domain", dnsserver.MaskDomain, "service domain (mask.icloud.com. or mask-h2.icloud.com.)")
		useUDP  = flag.Bool("udp", false, "exchange DNS over a real loopback UDP socket")
		noSkip  = flag.Bool("no-scope-skip", false, "disable the ECS scope skip optimization (ablation)")
		listAll = flag.Bool("list", false, "print every discovered address")
		conc    = flag.Int("concurrency", 16, "parallel query workers (results are concurrency-independent)")
		qps     = flag.Float64("qps", 0, "client-side query rate limit (0 = unlimited; on the virtual clock under -fault-profile)")
		outPath = flag.String("out", "", "save the dataset to this file as canonical text, with a .col sidecar beside it")
		diffOld = flag.String("diff", "", "diff the new dataset against a previously saved canonical one")

		faultProfile = flag.String("fault-profile", "", "inject DNS faults: preset[,k=v...] (e.g. 'mild', 'harsh,seed=7', 'timeout=0.1,servfail=0.05'); the scan then runs on a virtual clock")
		ckptPath     = flag.String("checkpoint", "", "periodically checkpoint scan progress to this file")
		ckptEvery    = flag.Int64("checkpoint-every", 0, "checkpoint flush interval in completed /24s (0 = default)")
		resume       = flag.Bool("resume", false, "resume from an existing -checkpoint file instead of starting over")
		profiles     = profiling.Register()
	)
	flag.Parse()
	defer profiles.Start()()
	if *resume && *ckptPath == "" {
		log.Fatal("-resume requires -checkpoint")
	}

	if *month < 1 || *month > 4 {
		log.Fatal("month must be 1..4")
	}
	m := netsim.ScanMonths[*month-1]

	fmt.Fprintf(os.Stderr, "generating world (seed=%d scale=%g)...\n", *seed, *scale)
	w := netsim.NewWorld(netsim.Params{Seed: *seed, Scale: *scale})

	var transport dnsserver.Exchanger // nil: MonthScan's in-memory transport
	if *useUDP {
		us, err := dnsserver.ListenUDP("127.0.0.1:0", dnsserver.NewAuthServer(w, m, nil))
		if err != nil {
			log.Fatalf("udp listen: %v", err)
		}
		defer us.Close()
		transport = &dnsserver.UDPClient{ServerAddr: us.Addr().String(), Retries: 2}
		fmt.Fprintf(os.Stderr, "authoritative server on %s\n", us.Addr())
	}

	profile, err := faults.Parse(*faultProfile)
	if err != nil {
		log.Fatalf("fault-profile: %v", err)
	}
	var clock vclock.Clock
	elapsedOn := ""
	if profile != nil {
		clock, elapsedOn = vclock.NewVirtualClock(), " of virtual time"
		fmt.Fprintf(os.Stderr, "fault injection: %s\n", profile)
	}
	cfg := core.MonthScan(w, m, *domain, transport, profile, clock)
	inj, _ := cfg.Exchanger.(*faults.Injector)
	cfg.RespectScope = !*noSkip
	cfg.Concurrency = *conc
	cfg.QPS = *qps
	if *ckptPath != "" {
		cfg.Checkpoint = &core.CheckpointConfig{Path: *ckptPath, Every: *ckptEvery, Resume: *resume}
	}
	ds, err := core.Scan(context.Background(), cfg)
	if err != nil {
		log.Fatalf("scan: %v", err)
	}

	fmt.Printf("scan %s %s: %d ingress addresses in %v%s\n", m, *domain, ds.Addrs(), ds.Stats.Elapsed, elapsedOn)
	fmt.Printf("queries=%d skipped=%d timeouts=%d (universe %d /24s)\n",
		ds.Stats.QueriesSent, ds.Stats.SubnetsSkipped, ds.Stats.Timeouts, ds.Stats.SubnetsTotal)
	if ds.Stats.ResumedSubnets > 0 {
		fmt.Printf("resumed: %d /24s carried over from %s\n", ds.Stats.ResumedSubnets, *ckptPath)
	}
	if ds.Stats.FaultAttempts() > 0 || ds.Stats.Retries > 0 {
		fmt.Printf("faults: %d faulted attempts (timeout=%d servfail=%d refused=%d truncated=%d stale=%d), %d retries, %d deferrals, %d breaker trips, %d passes, %d subnets lost\n",
			ds.Stats.FaultAttempts(), ds.Stats.TimeoutAttempts, ds.Stats.ServFailAttempts,
			ds.Stats.RefusedAttempts, ds.Stats.TruncatedAttempts, ds.Stats.StaleAttempts,
			ds.Stats.Retries, ds.Stats.Deferrals, ds.Stats.BreakerTrips, ds.Stats.Passes, ds.Stats.FailedSubnets)
	}
	if inj != nil {
		fmt.Printf("injected: %d faults (timeout=%d servfail=%d refused=%d truncated=%d stale=%d)\n",
			inj.Stats.Total(), inj.Stats.Timeouts.Load(), inj.Stats.ServFails.Load(),
			inj.Stats.Refused.Load(), inj.Stats.Truncated.Load(), inj.Stats.Stale.Load())
	}
	counts := ds.OperatorCounts()
	ases := make([]bgp.ASN, 0, len(counts))
	for as := range counts {
		ases = append(ases, as)
	}
	slices.Sort(ases)
	for _, as := range ases {
		fmt.Printf("  %-10s %5d addresses\n", netsim.ASName(as), counts[as])
	}
	if *listAll {
		for _, as := range []bgp.ASN{netsim.ASApple, netsim.ASAkamaiPR} {
			for _, a := range ds.AddressesOf(as) {
				fmt.Printf("%s,%s\n", a, netsim.ASName(as))
			}
		}
	}
	if *outPath != "" {
		if err := core.SaveCanonicalFile(*outPath, ds); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dataset saved to %s (+ %s)\n", *outPath, core.SidecarPath(*outPath))
	}
	if *diffOld != "" {
		f, err := os.Open(*diffOld)
		if err != nil {
			log.Fatal(err)
		}
		old, err := core.ReadCanonical(f)
		f.Close()
		if err != nil {
			log.Fatalf("read %s: %v", *diffOld, err)
		}
		n := colstore.DiffCounts(old, &ds.Dataset)
		fmt.Printf("vs %s (%s, %d addrs): +%d added, -%d removed, growth %.1f%%\n",
			*diffOld, old.Domain, old.Addrs(), n[colstore.Appeared], n[colstore.Vanished],
			core.GrowthPercent(old, &ds.Dataset))
	}
}
