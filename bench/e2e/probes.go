package main

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"github.com/relay-networks/privaterelay/internal/analysis"
	"github.com/relay-networks/privaterelay/internal/atlas"
	"github.com/relay-networks/privaterelay/internal/atomicio"
	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/colstore"
	"github.com/relay-networks/privaterelay/internal/core"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/egress"
	"github.com/relay-networks/privaterelay/internal/faults"
	"github.com/relay-networks/privaterelay/internal/iputil"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/vclock"
)

// The layer probes time calls into each layer's public functions from
// here, outside the program: spans inside internal/ are a later change.
// They run after the window, alone, at fixed sizes.

var scanSource = netip.MustParseAddr("198.51.100.53")

// probes carries what one probe leaves for the next: the scan probe's
// world and datasets feed the storage probe.
type probes struct {
	rc  *runConfig
	tr  *tracer
	out ledger
	dir string // scratch on the state filesystem

	world    *netsim.World
	universe []netip.Prefix
	mar, apr *core.Dataset
}

// seconds times f once, as a span and as the metric named name+"_s".
func (p *probes) seconds(name string, f func() error) error {
	start := time.Now()
	err := p.tr.do(name, f)
	p.out.set(name+"_s", time.Since(start).Seconds(), 1)
	return err
}

// p50 runs f n times and records the median call's wall time, in
// seconds × scale, as the metric named name.
func (p *probes) p50(name string, scale float64, n int, f func(i int) error) error {
	each, err := eachIter(n, f)
	if err != nil {
		return err
	}
	p.out.set(name, median(each)*scale, n)
	return nil
}

func (p *probes) scanConfig(month bgp.Month) core.ScanConfig {
	srv := dnsserver.NewAuthServer(p.world, month, nil)
	return core.ScanConfig{
		Exchanger:    &dnsserver.MemTransport{Handler: srv, Source: scanSource},
		Domain:       dnsserver.MaskDomain,
		Universe:     p.universe,
		Attribution:  p.world.Table,
		RespectScope: true,
		Concurrency:  p.rc.sizes.scanWorkers,
		Retries:      1,
	}
}

// scan decomposes one scan the way relayd runs it: cold, warm (same
// world, so the answer caches are full), with checkpoints every 64
// /24s, and under the harsh fault profile.
func (p *probes) scan(ctx context.Context) error {
	_ = p.seconds("netsim.world_build", func() error {
		p.world = netsim.NewWorld(netsim.Params{Seed: p.rc.sizes.worldSeed, Scale: p.rc.sizes.ledgerScale})
		return nil
	})
	_ = p.seconds("netsim.routed_prefixes", func() error {
		p.universe = p.world.RoutedV4Prefixes()
		return nil
	})

	scan := func(name string, cfg core.ScanConfig) (ds *core.Dataset, err error) {
		err = p.seconds(name, func() error {
			ds, err = core.Scan(ctx, cfg)
			return err
		})
		return ds, err
	}
	var err error
	if p.apr, err = scan("core.scan_cold", p.scanConfig(netsim.MonthApr)); err != nil {
		return err
	}
	st := p.apr.Stats
	p.out.set("core.scan_queries", float64(st.QueriesSent), 1)
	p.out.set("core.useful_ratio", float64(st.SubnetsTotal-st.FailedSubnets)/float64(st.QueriesSent), 1)
	if _, err = scan("core.scan_warm", p.scanConfig(netsim.MonthApr)); err != nil {
		return err
	}

	ckpt := filepath.Join(p.dir, "probe.ckpt")
	cfg := p.scanConfig(netsim.MonthApr)
	cfg.Checkpoint = &core.CheckpointConfig{Path: ckpt, Every: 64}
	if _, err = scan("core.scan_ckpt", cfg); err != nil {
		return err
	}
	// The scan leaves its final snapshot behind; rewriting it is what
	// every 64th /24 cost the scan above.
	ck, err := core.LoadCheckpoint(ckpt)
	if err != nil {
		return err
	}
	if err := p.p50("core.checkpoint_write_p50_us", 1e6, 32, func(int) error {
		return p.tr.do("core.checkpoint_write", func() error { return ck.WriteFile(ckpt) })
	}); err != nil {
		return err
	}

	// March is the other side of the storage probe's diff.
	if p.mar, err = core.Scan(ctx, p.scanConfig(netsim.MonthMar)); err != nil {
		return err
	}
	return p.faultedScan(ctx)
}

// faultedScan is relayd's scan under its fault profile: the injector
// outermost, four in-pass retries, ten passes, backoff and breaker on a
// virtual clock. Every subnet must still recover.
func (p *probes) faultedScan(ctx context.Context) error {
	profile, err := faults.Parse(fmt.Sprintf("%s,seed=%d", p.rc.sizes.faultProfile, p.rc.seed))
	if err != nil {
		return err
	}
	clock := vclock.NewVirtualClock()
	attr := p.world.Table.Snapshot()
	origin := func(a netip.Addr) (bgp.ASN, bool) { return attr.Origin(a) }
	cfg := p.scanConfig(netsim.MonthApr)
	inj := faults.NewInjector(cfg.Exchanger, profile, clock, origin)
	cfg.Exchanger = inj
	cfg.Retries, cfg.MaxPasses, cfg.Clock = 4, 10, clock
	cfg.Backoff = core.BackoffConfig{Base: 50 * time.Millisecond}
	cfg.Breaker = core.BreakerConfig{Threshold: 16, Cooldown: 2 * time.Second}
	var ds *core.Dataset
	if err := p.tr.do("core.scan_faulted", func() error {
		ds, err = core.Scan(ctx, cfg)
		return err
	}); err != nil {
		return err
	}
	if n := ds.Stats.FailedSubnets; n != 0 {
		return fmt.Errorf("faulted scan left %d subnets unrecovered", n)
	}
	p.out.set("core.scan_retries", float64(ds.Stats.Retries), 1)
	p.out.set("core.scan_passes", float64(ds.Stats.Passes), 1)
	p.out.set("core.breaker_trips", float64(ds.Stats.BreakerTrips), 1)
	injected, passed := float64(inj.Stats.Total()), float64(inj.Stats.Passed.Load())
	p.out.set("faults.injected_share", injected/(injected+passed), int(injected+passed))

	// The injector's own cost per exchange, over a warm transport.
	q := dnswire.NewQuery(1, dnsserver.MaskDomain, dnswire.TypeA)
	subnets := p.subnets(p.rc.sizes.ledgerIters)
	ns, _, err := perIter(len(subnets), func(i int) error {
		q.SetECS(subnets[i])
		if resp, err := inj.Exchange(ctx, q); err == nil {
			dnswire.ReleaseMessage(resp)
		}
		return nil // an injected fault is the point, not a failure
	})
	p.out.set("faults.injector_ns_per_exchange", ns, len(subnets))
	return err
}

// subnets lists the universe's first n /24s in scan order.
func (p *probes) subnets(n int) []netip.Prefix {
	out := make([]netip.Prefix, 0, n)
	for _, pfx := range p.universe {
		if !pfx.Addr().Is4() {
			continue
		}
		for i := uint64(0); i < iputil.SubnetCount(pfx, 24) && len(out) < n; i++ {
			out = append(out, iputil.NthSubnet(pfx, 24, i))
		}
	}
	return out
}

// dns times what one exchange costs below the scanner: the server's
// first and second answer for each /24, the in-memory transport, the
// wire codec, and the same exchange over a loopback UDP socket. The
// UDP figures move no end-to-end metric today — no product path scans
// over UDP — and are recorded for ROADMAP item 1(e).
func (p *probes) dns(ctx context.Context) error {
	subnets := p.subnets(p.rc.sizes.ledgerIters)
	n := len(subnets)
	// A world of its own: dnsserver shares answer caches per world, and
	// the scan probe has filled p.world's.
	cold := netsim.NewWorld(netsim.Params{Seed: p.rc.sizes.worldSeed, Scale: p.rc.sizes.ledgerScale})
	srv := dnsserver.NewAuthServer(cold, netsim.MonthApr, nil)
	q := dnswire.NewQuery(1, dnsserver.MaskDomain, dnswire.TypeA)
	handle := func(i int) error {
		q.SetECS(subnets[i])
		resp := srv.Handle(q, scanSource)
		if resp == nil {
			return fmt.Errorf("server dropped the query for %s", subnets[i])
		}
		dnswire.ReleaseMessage(resp)
		return nil
	}
	for _, name := range []string{"dnsserver.handle_cold_ns", "dnsserver.handle_warm_ns"} {
		ns, _, err := perIter(n, handle)
		if err != nil {
			return err
		}
		p.out.set(name, ns, n)
	}
	tr := &dnsserver.MemTransport{Handler: srv, Source: scanSource}
	var wire []byte
	ns, _, err := perIter(n, func(i int) error {
		q.SetECS(subnets[i])
		resp, err := tr.Exchange(ctx, q)
		if err != nil {
			return err
		}
		if i == 0 {
			wire, err = resp.Encode(nil) // a real answer for the decode probe
		}
		dnswire.ReleaseMessage(resp)
		return err
	})
	if err != nil {
		return err
	}
	p.out.set("dnsserver.mem_exchange_ns", ns, n)

	// The codec as scan and UDP workers use it: one reused message, one
	// encoder, one decode target.
	var enc dnswire.Encoder
	buf := make([]byte, 0, 512)
	encNs, encAllocs, err := perIter(n, func(i int) error {
		q.Header.ID = uint16(i)
		q.SetECS(subnets[i])
		buf, err = enc.Encode(q, buf[:0])
		return err
	})
	if err != nil {
		return err
	}
	var into dnswire.Message
	decNs, decAllocs, err := perIter(n, func(int) error { return dnswire.DecodeInto(wire, &into) })
	if err != nil {
		return err
	}
	p.out.set("dnswire.encode_ns", encNs, n)
	p.out.set("dnswire.decode_ns", decNs, n)
	p.out.set("dnswire.allocs_per_exchange", encAllocs+decAllocs, n)

	us, err := dnsserver.ListenUDP("127.0.0.1:0", srv)
	if err != nil {
		return err
	}
	defer us.Close()
	client := &dnsserver.UDPClient{ServerAddr: us.Addr().String(), Timeout: 5 * time.Second}
	udpN := min(n, 2000)
	before := mallocs()
	rtts, err := eachIter(udpN, func(i int) error {
		q.SetECS(subnets[i])
		resp, err := client.Exchange(ctx, q)
		if err != nil {
			return err
		}
		dnswire.ReleaseMessage(resp)
		return nil
	})
	if err != nil {
		return err
	}
	p.out.set("dnsserver.udp_exchange_p50_us", median(rtts)*1e6, udpN)
	p.out.set("dnsserver.udp_exchange_allocs", (mallocs()-before)/float64(udpN), udpN)
	return nil
}

// storage times the durable formats at the size the cycle writes them:
// a 4 KiB atomic write on the state filesystem and on the checkout's
// own disk (the only place a real-disk fsync is reported), and the
// April dataset through the columnar codec and the March→April diff.
func (p *probes) storage(context.Context) error {
	page := make([]byte, 4096)
	for name, dir := range map[string]string{
		"atomicio.write_state_p50_us": p.dir,
		"atomicio.write_tmp_p50_us":   p.rc.outDir,
	} {
		path := filepath.Join(dir, "probe-4k")
		err := p.p50(name, 1e6, 64, func(int) error {
			return atomicio.WriteFile(path, func(w io.Writer) error { _, err := w.Write(page); return err })
		})
		os.Remove(path)
		if err != nil {
			return err
		}
	}

	path := filepath.Join(p.dir, "apr.ds")
	if err := p.p50("core.save_canonical_ms", 1e3, 8, func(int) error { return core.SaveCanonicalFile(path, p.apr) }); err != nil {
		return err
	}
	if err := p.p50("core.load_columns_ms", 1e3, 8, func(int) error { _, _, err := core.LoadColumns(path); return err }); err != nil {
		return err
	}

	apr, err := p.apr.Columns()
	if err != nil {
		return err
	}
	mar, err := p.mar.Columns()
	if err != nil {
		return err
	}
	var bin []byte
	_ = p.p50("colstore.encode_ms", 1e3, 32, func(int) error { bin = apr.AppendBinary(bin[:0], colstore.SourceInfo{}); return nil })
	if err := p.p50("colstore.decode_ms", 1e3, 32, func(int) error { _, _, err := colstore.DecodeBinary(bin); return err }); err != nil {
		return err
	}
	changes := 0
	_ = p.p50("colstore.diff_ms", 1e3, 32, func(int) error {
		colstore.Diff(mar, apr, func(colstore.Change) bool { changes++; return true })
		return nil
	})
	if changes == 0 {
		return fmt.Errorf("March and April datasets do not differ")
	}
	return nil
}

// pipeline times what experiments.NewEnv and FullReport call between
// the scans, on a world of the report's own scale.
func (p *probes) pipeline(ctx context.Context) error {
	world := netsim.NewWorld(netsim.Params{Seed: p.rc.sizes.worldSeed, Scale: p.rc.sizes.reportScale})
	var list *egress.List
	_ = p.seconds("egress.generate", func() error { list = egress.Generate(world, p.rc.sizes.worldSeed); return nil })
	p.out.set("egress.entries", float64(len(list.Entries)), 1)
	var attributed []egress.Attributed
	_ = p.seconds("egress.attribute", func() error {
		attributed = egress.AttributeN(list, world.Table, p.rc.procs)
		return nil
	})
	var ix *bgp.Index
	_ = p.seconds("bgp.index_build", func() error { ix = world.Table.Snapshot().Index(); return nil })
	addrs := make([]netip.Addr, 0, len(list.Entries))
	for _, e := range list.Entries {
		addrs = append(addrs, e.Prefix.Addr())
	}
	found := 0
	ns, _, _ := perIter(len(addrs), func(i int) error {
		if _, ok := ix.Origin(addrs[i]); ok {
			found++
		}
		return nil
	})
	if found == 0 {
		return fmt.Errorf("no egress address has a route")
	}
	p.out.set("bgp.lookup_ns", ns, len(addrs))
	_ = p.seconds("analysis.table3", func() error { analysis.Table3N(attributed, p.rc.procs); return nil })
	_ = p.seconds("analysis.table4", func() error { analysis.Table4N(attributed, p.rc.procs); return nil })

	// The report's Atlas campaign: 4 000 probes in 1 500 subnet clusters.
	var pop *atlas.Population
	_ = p.seconds("atlas.population_build", func() error {
		pop = atlas.NewPopulation(world, netsim.MonthApr, atlas.Config{Seed: p.rc.seed, N: 4000, SubnetClusters: 1500, Phase: 1})
		return nil
	})
	var results []atlas.MeasurementResult
	if err := p.seconds("atlas.campaign", func() (err error) {
		results, err = atlas.Campaign{Domain: dnsserver.MaskDomain, Type: dnswire.TypeA, Workers: p.rc.procs}.Run(ctx, pop)
		return err
	}); err != nil {
		return err
	}
	p.out.set("atlas.probes_per_s", float64(len(results))/p.out["atlas.campaign_s"].Value, len(results))
	return nil
}
