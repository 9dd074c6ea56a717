// Command polca-sim runs inference-row power-oversubscription simulations
// and reports utilization, latency, throughput, and power-brake outcomes.
//
// Usage:
//
//	polca-sim [-policy polca|1tl|1ta|nocap] [-added 0.30] [-days 7]
//	          [-servers 40] [-intensity 1.0] [-lp 0.5] [-seed 1]
//	          [-t1 0.80] [-t2 0.89] [-csv out.csv] [-parallel N]
//	          [-scenario NAME|FILE] [-scenario-scale X]
//	          [-faults SPEC] [-guard] [-watchdog N]
//	          [-oob-retries N] [-oob-backoff D] [-drop-stale]
//	          [-serve] [-router round-robin|least-queue|least-kv|power-aware]
//	          [-retries N] [-retry-backoff D] [-class-shed]
//	          [-circuit-sheds N] [-circuit-cooldown D] [-watchdog-drain]
//
// Serving backend: -serve replaces the slot model (whole requests dispatched
// to exclusive per-server slots) with the request-level serving engine —
// continuous batching with chunked prefill, per-request KV-cache accounting,
// preempt-with-recompute under HBM pressure, and per-iteration power
// synthesized from each batch's prompt/decode mix. -router picks how
// arrivals spread across replicas; power-aware steers low-priority work
// toward frequency-capped servers. The report gains batch/preemption/KV
// counters and per-class p99 TTFT (time-to-first-token) and TBT
// (time-between-tokens) — the latencies that matter for interactive serving
// and that the slot model cannot see.
//
// Scenarios: -scenario replaces the hardcoded Table 6 mix with a declarative
// workload scenario — a builtin from the committed library (chatbot,
// launch-day, ...; see scenarios/) or a .scn file in the scenario DSL. The
// scenario's cohorts drive capacity planning (their analytic token moments
// become the class table), admission priorities, and serve-mode shed ranks,
// and the generator synthesizes the full request trace — heavy-tailed
// arrivals, diurnal/ramp/spike rate shapes, burst overlays, shared-prefix
// groups, and multi-turn sessions with growing context — on dedicated named
// RNG streams, so runs are event-for-event deterministic. -scenario-scale
// multiplies every cohort rate on top of the automatic servers/basis
// scaling. In serve mode the report gains per-class SLO attainment and the
// Jain fairness index across classes.
//
// Fault injection: -faults takes the faults package DSL (for example
// "tdrop=0.05,crash=6h+20,oobburst=3h+15m,kill=2@8h+1h") and runs the same
// deterministic simulation under that chaos scenario. -guard wraps the
// policy in the telemetry validity layer (median filter, stuck-sensor
// detection, fail-safe conservative cap), -watchdog N arms the row-side
// deadman that self-caps after N silent controller epochs, the
// -oob-retries/-oob-backoff pair bounds OOB command retries, and
// -drop-stale discards in-flight cap commands superseded before landing.
// All default to off, which reproduces the fault-free simulator exactly.
//
// Serve-mode fault tolerance: -retries N arms request failover — a request
// dropped by node death, an empty routable set, or a full replica queue
// re-enters the router up to N times (deterministic exponential backoff from
// -retry-backoff, default one telemetry interval) before it is finally
// dropped as retry-exhausted; recompute semantics, so tokens from a failed
// attempt are discarded. -class-shed arms SLO-class-aware degradation:
// under a power emergency (brake, watchdog, deep frequency cap, or
// sustained KV pressure) admission sheds batch/sheddable classes first and
// the critical interactive class last, reported as per-class goodput.
// -circuit-sheds N opens a per-replica circuit breaker after N queue sheds
// within one telemetry epoch (cooldown -circuit-cooldown, default 30s), and
// -watchdog-drain makes an engaged deadman also drain the serve replicas
// gracefully. All default to off; the drop-only serving backend is
// reproduced exactly.
//
// -policy accepts a comma-separated list (e.g. "polca,nocap"); the
// simulations then run concurrently, bounded by -parallel workers, and the
// reports print in the order the policies were listed. Every run owns a
// private engine seeded from -seed, so results are identical to running the
// policies one at a time. The -csv flag additionally writes the 2 s
// row-utilization series (suffixed with the policy name when several are
// simulated).
//
// Observability: -trace writes the run's structured event stream (threshold
// crossings, per-server cap/uncap actions, request lifecycle, brake events)
// as JSONL, -perfetto writes the same stream as Chrome trace-event JSON for
// chrome://tracing or ui.perfetto.dev, and -http serves live /metrics
// (Prometheus text), /progress, and /debug/pprof while the simulation runs.
// In serve mode, -spans additionally writes per-request span trees
// (request → queue → prefill chunks → decode runs → preemptions) with
// per-request energy and cap-slowdown attribution as JSONL — the input of
// cmd/polca-analyze — and -spans-perfetto renders the same trees on
// per-request Perfetto tracks. Tracing never changes results; with it off
// the instrumentation costs one nil check per site. All trace flags take
// per-policy suffixes like -csv.
//
// Sim-time telemetry: -tsdb records every row signal (server/row/site
// power, breaker headroom, cap MHz, KV occupancy, queue depth, TTFT/TBT)
// into a fixed-memory multi-resolution TSDB — bounded telemetry no matter
// how many days are simulated — reported in a Telemetry section, exposed
// on /metrics, and exportable as Perfetto counter tracks with
// -tsdb-perfetto. -rules loads an alert/recording ruleset ("default" for
// the committed one) evaluated in sim time on every telemetry tick;
// alerts emit alert.fire/alert.resolve trace events and a per-alert
// summary table (polca-analyze -alerts rebuilds the timeline from the
// event trace). -rules implies -tsdb.
//
// Decision provenance: -decisions records every controller tick and every
// router pick together with the full input snapshot the policy saw —
// telemetry reading and delivery status, guard/watchdog state, ladder
// stage, desired pool locks, busy counts and measured pool power, and the
// per-replica queue/KV/cap candidate set for each route — as a versioned
// JSONL decision log (schema polca-decisions/v2, strict sequence numbers).
// The header carries the policy spec, thresholds, and row shape, so
// cmd/polca-replay can re-evaluate alternate configurations purely on the
// recorded inputs and price the regret of the deployed one. Recording is
// zero-allocation in steady state and, like all tracing, changes nothing:
// with the flag off the hot path costs one nil check per site.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"polca/internal/cluster"
	"polca/internal/faults"
	"polca/internal/obs"
	"polca/internal/polca"
	"polca/internal/scenario"
	"polca/internal/serve"
	"polca/internal/sim"
	"polca/internal/stats"
	"polca/internal/workload"
)

// runOpts carries everything one policy simulation needs.
type runOpts struct {
	policy            string
	cfg               cluster.RowConfig
	days              int
	seed              int64
	t1, t2            float64
	guard             bool
	faults            string // canonical DSL form, for reports and provenance
	retrain           bool
	reqs              []workload.Request // non-nil replays a recorded trace
	scen              *scenario.Spec     // non-nil generates scenario traffic
	scenScale         float64
	csvPath           string
	tracePath         string
	perfettoPath      string
	spansPath         string
	spansPerfettoPath string
	decisionsPath     string
	tsdbPerfettoPath  string
	rulesName         string // "" = no rules; "default" or a file path
	obs               *obs.Observer
}

func main() {
	policy := flag.String("policy", "polca", "power policy (comma-separated list of polca, 1tl, 1ta, nocap)")
	added := flag.Float64("added", 0.30, "oversubscription fraction (0.30 = 30% more servers)")
	days := flag.Int("days", 7, "simulated days")
	servers := flag.Int("servers", 40, "base row size")
	intensity := flag.Float64("intensity", 1.0, "workload power intensity factor")
	lpFrac := flag.Float64("lp", 0.5, "low-priority server fraction")
	seed := flag.Int64("seed", 1, "simulation seed")
	t1 := flag.Float64("t1", 0.80, "POLCA T1 threshold")
	t2 := flag.Float64("t2", 0.89, "POLCA T2 threshold")
	csvPath := flag.String("csv", "", "write the utilization series to this CSV file")
	scenFlag := flag.String("scenario", "", "generate traffic from a workload scenario: a builtin name ("+strings.Join(scenario.Names(), ", ")+") or a .scn file path")
	scenScale := flag.Float64("scenario-scale", 1.0, "extra rate multiplier on the scenario's cohorts (on top of servers/basis scaling)")
	faultSpec := flag.String("faults", "", "fault-injection scenario (faults package DSL, e.g. \"tdrop=0.05,crash=6h+20\")")
	guard := flag.Bool("guard", false, "wrap the policy in the telemetry validity guard (filter + fail-safe cap)")
	watchdog := flag.Int("watchdog", 0, "row deadman: self-cap after N silent controller epochs (0 = off)")
	oobRetries := flag.Int("oob-retries", 0, "abandon an OOB cap target after N failed retries (0 = unlimited)")
	oobBackoff := flag.Duration("oob-backoff", 0, "base exponential backoff between OOB retries (0 = next tick)")
	dropStale := flag.Bool("drop-stale", false, "drop in-flight OOB commands superseded before landing (off = apply the outdated lock, the historical behaviour)")
	serveMode := flag.Bool("serve", false, "run the request-level serving backend (continuous batching + KV cache) instead of the slot model")
	router := flag.String("router", "least-queue", "serve-mode routing policy ("+strings.Join(serve.RouterNames(), ", ")+")")
	retries := flag.Int("retries", 0, "serve mode: requeue a dropped/shed request up to N times before giving up (0 = drop-only)")
	retryBackoff := flag.Duration("retry-backoff", 0, "serve mode: base failover backoff, doubling per attempt (0 = one telemetry interval)")
	classShed := flag.Bool("class-shed", false, "serve mode: shed admission by SLO class under power emergencies (batch first, critical last)")
	circuitSheds := flag.Int("circuit-sheds", 0, "serve mode: open a replica's circuit after N queue sheds in one telemetry epoch (0 = off)")
	circuitCooldown := flag.Duration("circuit-cooldown", 0, "serve mode: circuit-breaker cooldown before a tripped replica rejoins routing (0 = 30s)")
	watchdogDrain := flag.Bool("watchdog-drain", false, "serve mode: an engaged deadman watchdog also drains the serve replicas gracefully")
	retrain := flag.Bool("retrain", false, "print a threshold retraining recommendation after the run")
	replay := flag.String("replay", "", "replay a request trace CSV (from polca-trace -requests) instead of generating arrivals")
	parallel := flag.Int("parallel", 0, "max concurrent policy simulations (0 = GOMAXPROCS)")
	tracePath := flag.String("trace", "", "write the structured event stream to this JSONL file")
	perfettoPath := flag.String("perfetto", "", "write the event stream as Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev)")
	spansPath := flag.String("spans", "", "write per-request span trees with energy attribution (serve mode) to this JSONL file, for polca-analyze")
	decisionsPath := flag.String("decisions", "", "record every controller tick and router pick with its full input snapshot to this JSONL decision log, for polca-replay")
	spansPerfetto := flag.String("spans-perfetto", "", "write per-request spans as Chrome trace-event JSON on per-request tracks")
	httpAddr := flag.String("http", "", "serve live /metrics, /progress, and /debug/pprof on this address (e.g. :6060)")
	tsdbFlag := flag.Bool("tsdb", false, "record bounded sim-time telemetry (multi-resolution TSDB with server→row→site rollups)")
	rulesFlag := flag.String("rules", "", "evaluate alert/recording rules each telemetry tick: \"default\" for the built-in ruleset, or a rules file path (implies -tsdb)")
	tsdbPerfetto := flag.String("tsdb-perfetto", "", "write the TSDB as Chrome trace-event counter tracks (implies -tsdb)")
	flag.Parse()

	cfg := cluster.Production()
	cfg.BaseServers = *servers
	cfg.AddedFraction = *added
	cfg.PowerIntensity = *intensity
	cfg.LowPriorityFraction = *lpFrac
	cfg.Seed = *seed
	spec, err := faults.Parse(*faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faults:", err)
		os.Exit(1)
	}
	cfg.Faults = spec
	cfg.WatchdogEpochs = *watchdog
	cfg.OOBRetryBudget = *oobRetries
	cfg.OOBRetryBackoff = *oobBackoff
	cfg.DropStaleOOB = *dropStale
	if *serveMode {
		cfg.Serve = &serve.Config{Router: *router}
	}
	cfg.ServeRetries = *retries
	cfg.ServeRetryBackoff = *retryBackoff
	cfg.ServeClassShed = *classShed
	cfg.ServeCircuitSheds = *circuitSheds
	cfg.ServeCircuitCooldown = *circuitCooldown
	cfg.WatchdogDrain = *watchdogDrain

	var scen *scenario.Spec
	if *scenFlag != "" {
		if *replay != "" {
			fmt.Fprintln(os.Stderr, "scenario: -scenario and -replay are mutually exclusive")
			os.Exit(1)
		}
		s, err := scenario.Load(*scenFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scenario:", err)
			os.Exit(1)
		}
		if *scenScale <= 0 {
			fmt.Fprintln(os.Stderr, "scenario: -scenario-scale must be positive")
			os.Exit(1)
		}
		scen = &s
		// The cohorts' analytic token moments become the class table the
		// capacity planner and admission control run on, and their SLO
		// classes pin the serve-mode shed ranks.
		cfg.Classes = scen.Classes()
		cfg.ShedRanks = scen.ShedRanks()
	}

	policies := strings.Split(*policy, ",")
	for i, p := range policies {
		policies[i] = strings.TrimSpace(p)
	}

	var reqs []workload.Request
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "replay:", err)
			os.Exit(1)
		}
		reqs, err = cluster.LoadRequestsCSV(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "replay:", err)
			os.Exit(1)
		}
	}

	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(policies) {
		workers = len(policies)
	}

	// Parse the ruleset once; every policy run gets a private engine bound
	// to its own TSDB so alert state never crosses runs.
	var ruleSet *obs.RuleSet
	if *rulesFlag != "" {
		src := obs.DefaultRules
		if *rulesFlag != "default" {
			b, err := os.ReadFile(*rulesFlag)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rules:", err)
				os.Exit(1)
			}
			src = string(b)
		}
		var err error
		ruleSet, err = obs.ParseRules(src)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rules:", err)
			os.Exit(1)
		}
	}
	useTSDB := *tsdbFlag || ruleSet != nil || *tsdbPerfetto != ""

	// One shared metrics registry for every policy run (scoped by a policy
	// label); tracers and TSDBs are per run so event streams and alert
	// state don't interleave.
	var registry *obs.Registry
	if *httpAddr != "" || *tracePath != "" || *perfettoPath != "" || *spansPath != "" || *spansPerfetto != "" {
		registry = obs.NewRegistry()
	}
	observers := make([]*obs.Observer, len(policies))
	var tsdbHandles []obs.TSDBHandle
	for i, p := range policies {
		if registry == nil && !useTSDB && *decisionsPath == "" {
			continue
		}
		observer := &obs.Observer{Metrics: registry, Labels: obs.Label("policy", p)}
		if *decisionsPath != "" {
			observer.Decisions = obs.NewDecisionRecorder()
		}
		if *tracePath != "" || *perfettoPath != "" {
			observer.Tracer = obs.NewTracer()
		}
		if *spansPath != "" || *spansPerfetto != "" {
			observer.Spans = obs.NewSpanTracer()
		}
		if useTSDB {
			observer.DB = obs.NewTSDB(obs.TSDBConfig{Step: cfg.TelemetryInterval})
			if ruleSet != nil {
				observer.Rules = obs.NewRules(observer.DB, ruleSet, observer.Tracer)
			}
			tsdbHandles = append(tsdbHandles, obs.TSDBHandle{DB: observer.DB, Labels: observer.Labels})
		}
		observers[i] = observer
	}
	if *httpAddr != "" {
		addr, err := obs.Serve(*httpAddr, registry, nil, tsdbHandles...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "http:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "introspection on http://%s (/metrics, /progress, /debug/pprof)\n", addr)
	}

	reports := make([]string, len(policies))
	errs := make([]error, len(policies))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, p := range policies {
		opts := runOpts{
			policy: p, cfg: cfg, days: *days, seed: *seed,
			t1: *t1, t2: *t2, guard: *guard, faults: spec.String(),
			retrain: *retrain, reqs: reqs,
			scen: scen, scenScale: *scenScale,
			csvPath:           policyCSVPath(*csvPath, p, len(policies) > 1),
			tracePath:         policyCSVPath(*tracePath, p, len(policies) > 1),
			perfettoPath:      policyCSVPath(*perfettoPath, p, len(policies) > 1),
			spansPath:         policyCSVPath(*spansPath, p, len(policies) > 1),
			spansPerfettoPath: policyCSVPath(*spansPerfetto, p, len(policies) > 1),
			decisionsPath:     policyCSVPath(*decisionsPath, p, len(policies) > 1),
			tsdbPerfettoPath:  policyCSVPath(*tsdbPerfetto, p, len(policies) > 1),
			rulesName:         *rulesFlag,
			obs:               observers[i],
		}
		wg.Add(1)
		go func(i int, opts runOpts) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			reports[i], errs[i] = runOne(opts)
		}(i, opts)
	}
	wg.Wait()

	failed := false
	for i := range policies {
		if errs[i] != nil {
			fmt.Fprintln(os.Stderr, "error:", errs[i])
			failed = true
			continue
		}
		if i > 0 {
			fmt.Println(strings.Repeat("-", 72))
		}
		fmt.Print(reports[i])
	}
	if failed {
		os.Exit(1)
	}
}

// policyCSVPath derives a per-policy CSV path when several policies share
// one -csv flag, so concurrent runs don't clobber each other's series.
func policyCSVPath(base, policy string, multi bool) string {
	if base == "" || !multi {
		return base
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "." + policy + ext
}

// runOne simulates a single policy on a private engine and renders its
// report.
func runOne(o runOpts) (string, error) {
	pc := polca.DefaultConfig()
	pc.T1, pc.T2 = o.t1, o.t2
	ctrl, err := polca.NewNamed(o.policy, pc)
	if err != nil {
		return "", err
	}
	var guard *polca.Guard
	if o.guard {
		guard = polca.NewGuard(ctrl, polca.DefaultGuardConfig())
		ctrl = guard
	}
	if dec := o.obs.DecisionLog(); dec != nil {
		// The row fills the shape/power half of the header at construction;
		// the policy spec is the CLI's to describe, since only it knows the
		// controller it built.
		pspec, gspec, err := polca.DescribeController(ctrl)
		if err != nil {
			return "", fmt.Errorf("decisions: %w", err)
		}
		dec.UpdateMeta(func(m *obs.DecisionMeta) {
			m.Spec, m.Guard, m.Seed = pspec, gspec, o.seed
		})
	}

	cfg := o.cfg
	horizon := time.Duration(o.days) * 24 * time.Hour
	eng := sim.New(o.seed)
	eng.SetObserver(o.obs)

	var b strings.Builder
	fmt.Fprintf(&b, "Simulating %d days: %d servers (%d base, +%.0f%%), policy %s, intensity %.2f\n",
		o.days, cfg.Servers(), cfg.BaseServers, cfg.AddedFraction*100, ctrl.Name(), cfg.PowerIntensity)
	if cfg.Serve != nil {
		fmt.Fprintf(&b, "Serving mode: continuous batching, router %s\n", cfg.Serve.Router)
	}
	start := time.Now()
	row, err := cluster.NewRow(eng, cfg, ctrl)
	if err != nil {
		return "", err
	}
	var m *cluster.Metrics
	if o.scen != nil {
		// Scenario rates are calibrated for Basis servers; scale them to
		// this row, times the explicit -scenario-scale multiplier. Each
		// policy run generates on its own engine's named streams, so every
		// arm of a sweep sees the identical request trace.
		scale := float64(cfg.Servers()) / float64(o.scen.Basis) * o.scenScale
		reqs, err := scenario.Generate(*o.scen, horizon, scale, eng.Rand)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "Scenario %s: %d cohorts, %d requests generated (rate scale %.2f)\n",
			o.scen.Name, len(o.scen.Cohorts), len(reqs), scale)
		m = row.RunRequests(reqs, horizon)
	} else if o.reqs != nil {
		fmt.Fprintf(&b, "Replaying %d requests\n", len(o.reqs))
		m = row.RunRequests(o.reqs, horizon)
	} else {
		plan, err := cluster.ProductionArrivals(cfg, horizon, eng.Rand("reference"))
		if err != nil {
			return "", err
		}
		m = row.Run(plan)
	}
	fmt.Fprintf(&b, "Done in %.1fs (%d requests served)\n\n", time.Since(start).Seconds(),
		m.Completed[workload.Low]+m.Completed[workload.High])

	fmt.Fprintf(&b, "Row budget: %.0f kW (provisioned for %d servers)\n", m.Provisioned/1000, cfg.BaseServers)
	fmt.Fprintf(&b, "Utilization: mean %.1f%%, peak %.1f%%, max 2s rise %.1f%%, max 40s rise %.1f%%\n",
		m.Util.Mean()*100, m.Util.Peak()*100,
		m.Util.MaxRise(2*time.Second)*100, m.Util.MaxRise(40*time.Second)*100)
	fmt.Fprintf(&b, "Power brakes: %d; OOB commands: %d (%d silent failures)\n",
		m.BrakeEvents, m.LockCommands, m.FailedCommands)
	if o.faults != "" || o.guard || cfg.WatchdogEpochs > 0 || cfg.OOBRetryBudget > 0 || cfg.DropStaleOOB {
		fmt.Fprintf(&b, "Degradation: %d stale drops, %d retries (%d exhausted), %d watchdog engagements, %d node deaths\n",
			m.StaleOOBDrops, m.OOBRetries, m.OOBRetriesExhausted, m.WatchdogEngagements, m.NodeDeaths)
	}
	if o.faults != "" {
		c := m.Faults
		fmt.Fprintf(&b, "Injected [%s]: %d samples lost, %d stuck, %d spiked; %d crash epochs, %d missed ticks; %d burst fails; %d node deaths\n",
			o.faults, c.TelemetryLost, c.TelemetryStuck, c.TelemetrySpiked,
			c.CtrlCrashTicks, c.CtrlMissedTicks, c.OOBBurstFails, m.NodeDeaths)
	}
	if guard != nil {
		g := guard.Stats()
		fmt.Fprintf(&b, "Guard: %d delivered, %d outliers filtered, %d stuck ticks, %d lost ticks, %d fail-safe engagements\n",
			g.Delivered, g.Outliers, g.StuckTicks, g.LostTicks, g.FailSafeEngagements)
	}
	fmt.Fprintln(&b)

	fmt.Fprintf(&b, "%-10s %10s %10s %10s %10s %10s %10s\n", "Priority", "served", "dropped", "p50 (s)", "p99 (s)", "max (s)", "req/srv/h")
	for _, pri := range []workload.Priority{workload.Low, workload.High} {
		lat := stats.Sorted(m.LatencySec[pri])
		fmt.Fprintf(&b, "%-10s %10d %10d %10.1f %10.1f %10.1f %10.1f\n",
			pri, m.Completed[pri], m.Dropped[pri],
			stats.PercentileSorted(lat, 50), stats.PercentileSorted(lat, 99), stats.PercentileSorted(lat, 100),
			m.Throughput(pri)*3600)
	}

	if cfg.Serve != nil {
		s := m.Serve
		fmt.Fprintf(&b, "\nServe: %d batches, %d preemptions, peak batch %d, KV high water %.0f%%\n",
			s.Batches, s.Preemptions, s.MaxRunning, s.KVHighWaterFrac*100)
		fmt.Fprintf(&b, "Tokens: %d prompt, %d decode\n", s.PromptTokens, s.DecodeTokens)
		jPerTok := 0.0
		if s.DecodeTokens > 0 {
			jPerTok = s.EnergyJ / float64(s.DecodeTokens)
		}
		fmt.Fprintf(&b, "Energy: %.2f MJ attributed to requests (%.1f J per generated token); cap slowdown %+.0f s, %+.3f MJ vs uncapped\n",
			s.EnergyJ/1e6, jPerTok, s.CapExtraSec, s.CapDeltaJ/1e6)
		fmt.Fprintf(&b, "%-12s %10s %12s %13s %10s\n", "Class", "requests", "p99 TTFT (s)", "p99 TBT (ms)", "J/token")
		for _, name := range workload.Names(cfg.Classes) {
			ttft := m.TTFT[name]
			tbt := m.TBT[name]
			if ttft.Count() == 0 && tbt.Count() == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-12s %10d %12.2f %13.1f %10.1f\n", name, tbt.Count(),
				ttft.Percentile(99), tbt.Percentile(99)*1000, m.ClassJPerToken(name))
		}
		if cfg.ServeRetries > 0 || cfg.ServeClassShed || cfg.ServeCircuitSheds > 0 || cfg.WatchdogDrain {
			fmt.Fprintf(&b, "Failover: %d retries (%d exhausted), %d class sheds, %d circuit opens, %d node drains\n",
				m.ServeRetries, m.ServeRetryExhausted, m.ClassSheds(), m.CircuitOpens, m.NodeDrains)
		}
		if cfg.ServeClassShed {
			fmt.Fprintf(&b, "%-12s %10s %10s %10s %11s\n", "Class", "arrived", "shed", "SLO ok", "goodput %")
			for _, name := range workload.Names(cfg.Classes) {
				arrived := m.ClassArrived[name]
				if arrived == 0 {
					continue
				}
				fmt.Fprintf(&b, "%-12s %10d %10d %10d %10.1f%%\n",
					name, arrived, m.ClassShed[name], m.ClassSLOOK[name], m.ClassAttainment(name)*100)
			}
		}
		if o.scen != nil {
			// Per-cohort SLO attainment (first token within the TTFT SLO,
			// over first admissions) and the Jain index of those attainment
			// fractions — 1.0 means every class meets its SLO equally often,
			// lower means the pain concentrates on a few classes.
			fmt.Fprintf(&b, "%-12s %-10s %10s %10s %10s\n", "Class", "slo", "arrived", "SLO ok", "attain %")
			for _, name := range workload.Names(cfg.Classes) {
				arrived := m.ClassArrived[name]
				if arrived == 0 {
					continue
				}
				fmt.Fprintf(&b, "%-12s %-10s %10d %10d %9.1f%%\n",
					name, o.scen.SLOOf(name), arrived, m.ClassSLOOK[name], m.ClassAttainment(name)*100)
			}
			fmt.Fprintf(&b, "Jain fairness of SLO attainment across classes: %.3f\n", m.AttainmentJain())
		}
	}

	if o.retrain {
		base := polca.DefaultConfig()
		base.T1, base.T2 = o.t1, o.t2
		rec := polca.RetrainFromMetrics(base, m)
		fmt.Fprintf(&b, "\nThreshold retraining (from this run's power trace and capping history):\n%s", rec.Describe())
	}

	if db := o.obs.TimeSeries(); db != nil {
		db.Flush()
		wins := make([]string, 0, len(db.Windows()))
		for _, w := range db.Windows() {
			wins = append(wins, w.String())
		}
		fmt.Fprintf(&b, "\nTelemetry: %d series, %.0f KiB retained (raw %s + %s rollups; memory independent of run length)\n",
			db.NumSeries(), float64(db.MemoryBytes())/1024, db.Step(), strings.Join(wins, "/"))
	}
	if rl := o.obs.RuleEngine(); rl != nil {
		rl.Finish()
		fmt.Fprintf(&b, "Alerts (%s rules):\n", o.rulesName)
		if err := rl.WriteSummary(&b); err != nil {
			return "", fmt.Errorf("alerts: %w", err)
		}
	}

	prov := o.provenance(ctrl.Name())
	if o.csvPath != "" {
		if err := writeCSV(o.csvPath, m.Util, prov); err != nil {
			return "", fmt.Errorf("csv: %w", err)
		}
		fmt.Fprintf(&b, "\nUtilization series written to %s\n", o.csvPath)
	}
	if tr := o.obs.Trace(); tr != nil {
		if o.tracePath != "" {
			if err := writeLog(o.tracePath, prov, tr.WriteJSONL); err != nil {
				return "", fmt.Errorf("trace: %w", err)
			}
			fmt.Fprintf(&b, "\nEvent trace (%d events) written to %s\n", tr.Len(), o.tracePath)
		}
		if o.perfettoPath != "" {
			if err := writeTrace(o.perfettoPath, tr.WriteChromeTrace); err != nil {
				return "", fmt.Errorf("perfetto: %w", err)
			}
			fmt.Fprintf(&b, "Perfetto trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", o.perfettoPath)
		}
	}
	if db := o.obs.TimeSeries(); db != nil && o.tsdbPerfettoPath != "" {
		res := db.Windows()[0]
		if err := writeTrace(o.tsdbPerfettoPath, func(w io.Writer) error {
			return db.WriteChromeTrace(w, res)
		}); err != nil {
			return "", fmt.Errorf("tsdb-perfetto: %w", err)
		}
		fmt.Fprintf(&b, "TSDB counter tracks (%s resolution) written to %s\n", res, o.tsdbPerfettoPath)
	}
	if sp := o.obs.SpanSink(); sp != nil {
		if o.spansPath != "" {
			if err := writeLog(o.spansPath, prov, sp.WriteJSONL); err != nil {
				return "", fmt.Errorf("spans: %w", err)
			}
			fmt.Fprintf(&b, "\nRequest spans (%d) written to %s (analyze with polca-analyze)\n", sp.Len(), o.spansPath)
		}
		if o.spansPerfettoPath != "" {
			if err := writeTrace(o.spansPerfettoPath, sp.WriteChromeTrace); err != nil {
				return "", fmt.Errorf("spans-perfetto: %w", err)
			}
			fmt.Fprintf(&b, "Request-span Perfetto trace written to %s (one track per request)\n", o.spansPerfettoPath)
		}
	}
	if dec := o.obs.DecisionLog(); dec != nil && o.decisionsPath != "" {
		if err := writeLog(o.decisionsPath, prov, dec.WriteJSONL); err != nil {
			return "", fmt.Errorf("decisions: %w", err)
		}
		fmt.Fprintf(&b, "\nDecision log (%d decisions) written to %s (replay with polca-replay)\n", dec.Len(), o.decisionsPath)
	}
	return b.String(), nil
}

// provenance assembles the run parameters stamped onto result files.
// Hardening keys appear only when the corresponding feature is on, so a
// fault-free run's output stays byte-identical to the pre-hardening tool.
func (o runOpts) provenance(policyName string) obs.Provenance {
	p := obs.Provenance{
		"tool":      "polca-sim",
		"policy":    policyName,
		"seed":      o.seed,
		"days":      o.days,
		"servers":   o.cfg.Servers(),
		"base":      o.cfg.BaseServers,
		"added":     o.cfg.AddedFraction,
		"intensity": o.cfg.PowerIntensity,
		"lp":        o.cfg.LowPriorityFraction,
		"t1":        o.t1,
		"t2":        o.t2,
		"git":       obs.GitDescribe(),
	}
	if o.faults != "" {
		p["faults"] = o.faults
	}
	if o.scen != nil {
		p["scenario"] = o.scen.Name
		if o.scenScale != 1 {
			p["scenarioscale"] = o.scenScale
		}
	}
	if o.guard {
		p["guard"] = true
	}
	if o.cfg.WatchdogEpochs > 0 {
		p["watchdog"] = o.cfg.WatchdogEpochs
	}
	if o.cfg.DropStaleOOB {
		p["dropstale"] = true
	}
	if o.cfg.Serve != nil {
		p["serve"] = true
		p["router"] = o.cfg.Serve.Router
	}
	if o.cfg.ServeRetries > 0 {
		p["retries"] = o.cfg.ServeRetries
		if o.cfg.ServeRetryBackoff > 0 {
			p["retrybackoff"] = o.cfg.ServeRetryBackoff.String()
		}
	}
	if o.cfg.ServeClassShed {
		p["classshed"] = true
	}
	if o.cfg.ServeCircuitSheds > 0 {
		p["circuit"] = o.cfg.ServeCircuitSheds
	}
	if o.cfg.WatchdogDrain {
		p["wddrain"] = true
	}
	if o.obs.TimeSeries() != nil {
		p["tsdb"] = true
	}
	if o.obs.DecisionLog() != nil {
		p["decisions"] = true
	}
	if o.rulesName != "" {
		p["rules"] = o.rulesName
	}
	return p
}

// writeTrace streams a tracer export to a file.
func writeTrace(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeLog writes a JSONL log (events, spans or decisions) to path behind
// the run's `#` provenance lines.
func writeLog(path string, prov obs.Provenance, write func(w io.Writer) error) error {
	return writeTrace(path, func(w io.Writer) error {
		if err := obs.WriteProvenance(w, prov); err != nil {
			return err
		}
		return write(w)
	})
}

func writeCSV(path string, s stats.Series, prov obs.Provenance) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := obs.WriteProvenance(f, prov); err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write([]string{"seconds", "utilization"}); err != nil {
		return err
	}
	for i, v := range s.Values {
		if err := w.Write([]string{
			fmt.Sprintf("%.0f", s.TimeAt(i).Seconds()),
			fmt.Sprintf("%.5f", v),
		}); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
