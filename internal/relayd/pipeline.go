package relayd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/relay-networks/privaterelay/internal/analysis"
	"github.com/relay-networks/privaterelay/internal/atlas"
	"github.com/relay-networks/privaterelay/internal/atomicio"
	"github.com/relay-networks/privaterelay/internal/bgp"
	"github.com/relay-networks/privaterelay/internal/colstore"
	"github.com/relay-networks/privaterelay/internal/core"
	"github.com/relay-networks/privaterelay/internal/dnsserver"
	"github.com/relay-networks/privaterelay/internal/dnswire"
	"github.com/relay-networks/privaterelay/internal/faults"
	"github.com/relay-networks/privaterelay/internal/netsim"
	"github.com/relay-networks/privaterelay/internal/vclock"
	"github.com/relay-networks/privaterelay/internal/workpool"
)

// The measurement pipeline: what relayd actually runs each cycle. The
// campaign plan is the paper's longitudinal scan — every month, both
// service domains — plus the Atlas validation campaign, with the month
// cursor derived from which canonical datasets already exist on disk.
// That derivation is the crash-safety trick: there is no persisted
// "current month" counter to tear, so a process killed at any instant
// resumes by looking at its own durable outputs. Combined with atomic
// dataset writes and checkpointed scans, re-running after any kill
// converges on the same bytes.

// PipelineConfig parameterizes one relayd measurement pipeline.
type PipelineConfig struct {
	// Seed / Scale shape the simulated world (netsim.Params semantics).
	Seed  uint64
	Scale float64
	// StateDir is the durable root: datasets/, diffs/, reports/ hold the
	// canonical outputs; checkpoints/ holds resumable scratch.
	StateDir string
	// Clock drives scan pacing, backoff and cooldowns (default wall).
	Clock vclock.Clock
	// Registry receives campaign metrics (nil: metrics are dropped).
	Registry *Registry
	// Concurrency is the scan worker count (0: core.Scan's default).
	Concurrency int
	// FaultProfile, when non-empty, is a faults.Parse spec injected into
	// every DNS exchange; scans then run the full resilience stack.
	FaultProfile string
	// WrapExchanger, when set, wraps the scan exchanger outermost — after
	// any fault injector. The chaos test uses it to kill scans mid-flight.
	WrapExchanger func(ex dnsserver.Exchanger) dnsserver.Exchanger
	// Months and Domains define the campaign plan. Defaults: the paper's
	// four 2022 scan months over both service domains.
	Months  []bgp.Month
	Domains []string
	// AtlasProbes / AtlasClusters size the per-month Atlas validation
	// campaign; zero probes disables it.
	AtlasProbes   int
	AtlasClusters int
}

// Pipeline owns the world and runs campaigns against the state dir.
type Pipeline struct {
	cfg     PipelineConfig
	world   *netsim.World
	profile *faults.Profile
}

// NewPipeline builds the world and validates the config.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if cfg.StateDir == "" {
		return nil, errors.New("relayd: StateDir is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.WallClock{}
	}
	if len(cfg.Months) == 0 {
		cfg.Months = netsim.ScanMonths
	}
	if len(cfg.Domains) == 0 {
		cfg.Domains = []string{dnsserver.MaskDomain, dnsserver.MaskH2Domain}
	}
	profile, err := faults.Parse(cfg.FaultProfile)
	if err != nil {
		return nil, fmt.Errorf("relayd: fault profile: %w", err)
	}
	if cfg.Registry != nil {
		// Registered at zero so the series set on /metrics does not
		// depend on whether a scan has finished (or ever tore) yet.
		for _, domain := range cfg.Domains {
			for _, name := range checkpointCounters {
				cfg.Registry.Counter(name, "domain", domain)
			}
		}
	}
	return &Pipeline{
		cfg:     cfg,
		world:   netsim.NewWorld(netsim.Params{Seed: cfg.Seed, Scale: cfg.Scale}),
		profile: profile,
	}, nil
}

// Months returns the campaign plan's month sequence.
func (p *Pipeline) Months() []bgp.Month { return p.cfg.Months }

// DatasetPath locates domain's canonical dataset for month.
func (p *Pipeline) DatasetPath(domain string, month bgp.Month) string {
	return filepath.Join(p.cfg.StateDir, "datasets", domainSlug(domain), month.String()+".ds")
}

func (p *Pipeline) checkpointPath(domain string, month bgp.Month) string {
	return filepath.Join(p.cfg.StateDir, "checkpoints", domainSlug(domain), month.String()+".ckpt")
}

// HasDataset reports whether domain's month dataset is already durable.
func (p *Pipeline) HasDataset(domain string, month bgp.Month) bool {
	_, err := os.Stat(p.DatasetPath(domain, month))
	return err == nil
}

// LoadColumns loads the columnar form of domain's month dataset through
// its binary sidecar (core.LoadColumns semantics: invalid sidecars are
// quarantined or rebuilt from the golden text, never trusted), and
// lands the cache outcome in the registry.
func (p *Pipeline) LoadColumns(domain string, month bgp.Month) (*colstore.Dataset, error) {
	cs, status, err := core.LoadColumns(p.DatasetPath(domain, month))
	if err != nil {
		return nil, err
	}
	if p.cfg.Registry != nil {
		p.cfg.Registry.Counter("relayd_sidecar_loads_total",
			"domain", domain, "status", status.String()).Add(1)
	}
	return cs, nil
}

// NextMonth returns the index of the first month whose campaign is
// incomplete (some domain lacks a dataset), or (len, true) when the
// whole plan is caught up. Deriving the cursor from durable outputs —
// instead of persisting a counter — is what makes month progression
// impossible to tear: a crash can lose at most in-flight scratch, never
// the position itself.
func (p *Pipeline) NextMonth() (idx int, caughtUp bool) {
	for i, m := range p.cfg.Months {
		for _, d := range p.cfg.Domains {
			if !p.HasDataset(d, m) {
				return i, false
			}
		}
	}
	return len(p.cfg.Months), true
}

// RunScanCampaign completes month: every domain without a durable
// dataset is scanned (resuming its checkpoint if one exists) and
// persisted atomically. The pending domains scan concurrently, one
// workpool worker each, every one through its own runScan — its own
// journal, dataset file, AuthServer and fault injector — so the sweeps
// share no mutable state.
//
// A failing domain does not cancel its siblings: they run to
// completion and persist their datasets, and the call returns the
// first failing domain's error in plan order, so the result does not
// depend on scheduling. The supervisor's retry then rescans only the
// unfinished domains. Cancelling ctx (a SIGTERM drain) stops every
// scan, each leaving a resumable journal. All scans sleep on the one
// pipeline clock; on a virtual clock their sleeps interleave, which
// leaves the durable bytes alone but lets the scan retry and fault
// counters depend on scheduling even at Concurrency 1.
func (p *Pipeline) RunScanCampaign(ctx context.Context, month bgp.Month) error {
	var pending []string
	for _, domain := range p.cfg.Domains {
		if !p.HasDataset(domain, month) {
			pending = append(pending, domain)
		}
	}
	errs := make([]error, len(pending))
	workpool.Run(len(pending), 1, 0, func(_, i, _ int) {
		errs[i] = p.runScan(ctx, month, pending[i])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runScan performs one checkpointed scan and persists the canonical
// dataset. A corrupt checkpoint is quarantined (renamed *.corrupt),
// counted, and the scan restarts from scratch — the corrupted file is
// kept for post-mortem, never trusted.
func (p *Pipeline) runScan(ctx context.Context, month bgp.Month, domain string) error {
	ckpt := p.checkpointPath(domain, month)
	if err := os.MkdirAll(filepath.Dir(ckpt), 0o755); err != nil {
		return err
	}
	ds, err := core.Scan(ctx, p.scanConfig(month, domain, ckpt))
	if errors.Is(err, core.ErrCheckpointCorrupt) {
		if p.cfg.Registry != nil {
			p.cfg.Registry.Counter("relayd_checkpoint_corrupt_total", "domain", domain).Add(1)
		}
		if renameErr := os.Rename(ckpt, ckpt+".corrupt"); renameErr != nil {
			return fmt.Errorf("relayd: quarantining corrupt checkpoint: %w", renameErr)
		}
		ds, err = core.Scan(ctx, p.scanConfig(month, domain, ckpt))
	}
	if err != nil {
		return err
	}
	p.recordScanStats(domain, ds.Stats)
	target := p.DatasetPath(domain, month)
	if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
		return err
	}
	// Text first, then the binary sidecar: a kill between the two leaves
	// valid text with a missing sidecar, which the next LoadColumns
	// rebuilds to the same bytes (the sidecar is a pure function of the
	// text), so the durable tree still converges bit-identically.
	if err := core.SaveCanonicalFile(target, ds); err != nil {
		return err
	}
	// The dataset is durable; the checkpoint is now dead scratch. Any
	// *.corrupt quarantine file stays behind for post-mortem.
	os.Remove(ckpt)
	return nil
}

// scanConfig is the month's scan (core.MonthScan) with what is relayd's
// own: the worker count, the journal at ckpt under core's group-commit
// rule, and the optional outermost exchanger wrapper.
func (p *Pipeline) scanConfig(month bgp.Month, domain, ckpt string) core.ScanConfig {
	cfg := core.MonthScan(p.world, month, domain, nil, p.profile, p.cfg.Clock)
	cfg.Concurrency = p.cfg.Concurrency
	cfg.Checkpoint = &core.CheckpointConfig{Path: ckpt, Resume: true}
	if p.cfg.WrapExchanger != nil {
		cfg.Exchanger = p.cfg.WrapExchanger(cfg.Exchanger)
	}
	return cfg
}

// checkpointCounters are the scan-journal series, in the order
// recordScanStats fills them: frames and bytes appended, group commits,
// and bytes of torn tail dropped on resume.
var checkpointCounters = [...]string{
	"relayd_checkpoint_frames_total",
	"relayd_checkpoint_bytes_total",
	"relayd_checkpoint_syncs_total",
	"relayd_checkpoint_torn_tail_total",
}

// recordScanStats lands one finished scan's counters in the registry:
// the exchange rate, the fault mix by kind, breaker trips, the
// retry/resume economy and the journal's write volume.
func (p *Pipeline) recordScanStats(domain string, st core.ScanStats) {
	reg := p.cfg.Registry
	if reg == nil {
		return
	}
	for i, n := range [...]int64{st.CheckpointFrames, st.CheckpointBytes, st.CheckpointSyncs, st.CheckpointTornBytes} {
		reg.Counter(checkpointCounters[i], "domain", domain).Add(n)
	}
	reg.Counter("relayd_scan_queries_total", "domain", domain).Add(st.QueriesSent)
	reg.Counter("relayd_scan_retries_total", "domain", domain).Add(st.Retries)
	reg.Counter("relayd_scan_deferrals_total", "domain", domain).Add(st.Deferrals)
	reg.Counter("relayd_scan_breaker_trips_total", "domain", domain).Add(st.BreakerTrips)
	reg.Counter("relayd_scan_resumed_subnets_total", "domain", domain).Add(st.ResumedSubnets)
	for _, mix := range []struct {
		kind string
		n    int64
	}{
		{faults.KindTimeout.String(), st.TimeoutAttempts},
		{faults.KindServFail.String(), st.ServFailAttempts},
		{faults.KindRefused.String(), st.RefusedAttempts},
		{faults.KindTruncate.String(), st.TruncatedAttempts},
		{faults.KindStale.String(), st.StaleAttempts},
	} {
		reg.Counter("relayd_scan_faults_total", "domain", domain, "kind", mix.kind).Add(mix.n)
	}
	rate := 0.0
	if secs := st.Elapsed.Seconds(); secs > 0 {
		rate = float64(st.QueriesSent) / secs
	}
	reg.Gauge("relayd_scan_exchange_rate", "domain", domain).Set(rate)
}

// EnsureDiffs materializes every generation up to and including gen
// (gen N is months[N-1] → months[N] of the primary domain). Existing
// valid generations are left untouched; corrupt ones are quarantined
// with a *.corrupt rename and recomputed from the canonical datasets —
// through the columnar sidecars and the streaming merge, which
// reproduces the map-era bytes exactly.
func (p *Pipeline) EnsureDiffs(gen int) error {
	for _, domain := range p.cfg.Domains {
		for g := 1; g <= gen; g++ {
			_, err := LoadDiffFile(p.cfg.StateDir, domain, g)
			if err == nil {
				continue
			}
			if errors.Is(err, core.ErrCheckpointCorrupt) {
				path := diffPath(p.cfg.StateDir, domain, g)
				if p.cfg.Registry != nil {
					p.cfg.Registry.Counter("relayd_diff_corrupt_total", "domain", domain).Add(1)
				}
				if renameErr := os.Rename(path, path+".corrupt"); renameErr != nil {
					return fmt.Errorf("relayd: quarantining corrupt diff: %w", renameErr)
				}
			} else if !errors.Is(err, os.ErrNotExist) {
				return err
			}
			d, err := p.diffGeneration(domain, g)
			if err != nil {
				return err
			}
			if err := WriteDiffFile(p.cfg.StateDir, d); err != nil {
				return err
			}
			if p.cfg.Registry != nil {
				p.cfg.Registry.Counter("relayd_diff_generations_total", "domain", domain).Add(1)
			}
		}
	}
	return nil
}

// diffGeneration materializes generation g of domain's diff
// sequence from the columnar datasets (sidecar-cached, streaming
// two-pointer merge).
func (p *Pipeline) diffGeneration(domain string, g int) (*DatasetDiff, error) {
	from, to := p.cfg.Months[g-1], p.cfg.Months[g]
	a, err := p.LoadColumns(domain, from)
	if err != nil {
		return nil, err
	}
	b, err := p.LoadColumns(domain, to)
	if err != nil {
		return nil, err
	}
	return ComputeDiff(g, from, to, a, b), nil
}

// WriteReport renders Table 1 over every completed month into
// reports/table1.txt. The report is a pure function of the durable
// datasets, so rewriting it each cycle is idempotent.
func (p *Pipeline) WriteReport() error {
	var months []bgp.Month
	def := map[bgp.Month]*colstore.Dataset{}
	fb := map[bgp.Month]*colstore.Dataset{}
	for _, m := range p.cfg.Months {
		complete := true
		for _, d := range p.cfg.Domains {
			if !p.HasDataset(d, m) {
				complete = false
				break
			}
		}
		if !complete {
			break
		}
		cs, err := p.LoadColumns(p.cfg.Domains[0], m)
		if err != nil {
			return err
		}
		def[m] = cs
		if len(p.cfg.Domains) > 1 {
			if fb[m], err = p.LoadColumns(p.cfg.Domains[1], m); err != nil {
				return err
			}
		}
		months = append(months, m)
	}
	if len(months) == 0 {
		return nil
	}
	rows := analysis.Table1(months, def, fb)
	path := filepath.Join(p.cfg.StateDir, "reports", "table1.txt")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, analysis.RenderTable1(rows))
		return err
	})
}

// RunAtlas runs the month's Atlas A-record validation campaign and
// lands its completeness buckets in the registry. The campaign is a
// survey: its value is the metrics, and only a hard campaign error
// (or cancellation) fails it.
func (p *Pipeline) RunAtlas(ctx context.Context, month bgp.Month) error {
	if p.cfg.AtlasProbes <= 0 {
		return nil
	}
	popCfg := atlas.Config{
		Seed: p.cfg.Seed, N: p.cfg.AtlasProbes, SubnetClusters: p.cfg.AtlasClusters, Phase: 1,
	}
	if p.profile != nil {
		origin := p.world.Table.Index().Origin
		popCfg.WrapTransport = func(ex dnsserver.Exchanger) dnsserver.Exchanger {
			return faults.NewInjector(ex, p.profile, p.cfg.Clock, origin)
		}
	}
	pop := atlas.NewPopulation(p.world, month, popCfg)
	res, err := atlas.Campaign{Domain: p.cfg.Domains[0], Type: dnswire.TypeA}.Run(ctx, pop)
	if err != nil {
		return err
	}
	if reg := p.cfg.Registry; reg != nil {
		c := atlas.Summarize(res)
		reg.Counter("relayd_atlas_probes_total", "outcome", "answered").Add(int64(c.Answered))
		reg.Counter("relayd_atlas_probes_total", "outcome", "timeout").Add(int64(c.TimedOut))
		reg.Counter("relayd_atlas_probes_total", "outcome", "error").Add(int64(c.Errored))
	}
	return nil
}
