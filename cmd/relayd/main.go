// Command relayd runs the continuous measurement service: scheduled
// ECS scans and Atlas campaigns with supervised retries, crash-safe
// checkpointed persistence, incremental month-over-month diff
// generations, and an HTTP plane serving /healthz, /readyz, /metrics
// and /reports/.
//
// Signals: SIGTERM and SIGINT begin a graceful drain — /readyz flips
// to 503, in-flight campaigns are cancelled (their checkpoints land),
// the HTTP server shuts down, and the process exits 0. A subsequent
// start over the same -state resumes exactly where the drain stopped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/relay-networks/privaterelay/internal/profiling"
	"github.com/relay-networks/privaterelay/internal/relayd"
	"github.com/relay-networks/privaterelay/internal/vclock"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:9790", "HTTP listen address")
		state        = flag.String("state", "relayd-state", "durable state directory")
		seed         = flag.Uint64("seed", 6, "world seed")
		scale        = flag.Float64("scale", 0.0008, "world scale")
		concurrency  = flag.Int("concurrency", 8, "scan worker count")
		interval     = flag.Duration("interval", time.Hour, "pause between cycles (on the service clock)")
		cycles       = flag.Int("cycles", 0, "exit after N cycles (0 = run until signalled)")
		faultProfile = flag.String("fault-profile", "", "faults.Parse spec injected into every exchange (e.g. mild,seed=3)")
		atlasProbes  = flag.Int("atlas-probes", 0, "Atlas campaign probe count (0 disables)")
		atlasClus    = flag.Int("atlas-clusters", 0, "Atlas campaign subnet clusters")
		virtual      = flag.Bool("virtual-clock", false, "run campaigns on a virtual clock (sleeps cost no wall time)")
		profiles     = profiling.Register()
	)
	flag.Parse()
	stopProfiles := profiles.Start()

	var clock vclock.Clock = vclock.WallClock{}
	if *virtual {
		clock = pacedClock{Clock: vclock.NewVirtualClock(), idle: *interval}
	}
	svc, err := relayd.New(relayd.ServiceConfig{
		Pipeline: relayd.PipelineConfig{
			Seed:          *seed,
			Scale:         *scale,
			StateDir:      *state,
			Clock:         clock,
			Concurrency:   *concurrency,
			FaultProfile:  *faultProfile,
			AtlasProbes:   *atlasProbes,
			AtlasClusters: *atlasClus,
		},
		Interval: *interval,
	})
	if err != nil {
		fail("%v", err)
	}
	defer svc.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("%v", err)
	}
	server := &http.Server{Handler: svc.Handler()}
	httpDone := make(chan error, 1)
	go func() { httpDone <- server.Serve(ln) }()
	fmt.Printf("relayd: listening on %s\n", ln.Addr())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "relayd: %s, draining\n", sig)
		// Drain order: stop advertising readiness, then cancel the
		// campaign loop — in-flight scans write their final checkpoint
		// on cancellation, so nothing is lost.
		svc.BeginDrain()
		cancel()
	}()

	runErr := svc.Run(ctx, *cycles)

	shutdownCtx, shutdownCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shutdownCancel()
	if err := server.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "relayd: http shutdown: %v\n", err)
	}
	<-httpDone
	stopProfiles()

	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		fail("%v", runErr)
	}
	fmt.Println("relayd: drained cleanly")
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "relayd: "+format+"\n", args...)
	os.Exit(1)
}

// pacedClock wraps a virtual clock with a short wall pause on the idle
// sleep between cycles (any sleep of at least idle, the -interval), so
// a caught-up -virtual-clock service idles scrapeably instead of
// spinning through instant virtual sleeps. Scan backoffs, breaker
// cooldowns and injected latency stay instant.
type pacedClock struct {
	vclock.Clock
	idle time.Duration
}

func (c pacedClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := c.Clock.Sleep(ctx, d); err != nil || d < c.idle {
		return err
	}
	t := time.NewTimer(50 * time.Millisecond)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
