package cluster

import (
	"strconv"

	"polca/internal/obs"
	"polca/internal/sim"
	"polca/internal/workload"
)

// This file wires the row into the sim-time TSDB and the alert rules
// engine (internal/obs). When the run's observer carries a TSDB, NewRow
// registers the row's signal hierarchy — per-server power/cap/KV/queue
// series rolling up into row sums and maxes, the row series rolling up
// into site power — and the telemetry tick ingests one sample per signal
// and evaluates the rules. Like every other instrument, the whole wiring
// is observation-only: a nil TSDB costs one branch per tick, and enabling
// it leaves every simulated metric byte-identical.

// serverSeriesCapacity is the per-ring bucket count for per-server
// series. Server signals are consulted for rollups and recent-history
// queries, not long retention, so they keep a shorter window than the
// row/site series (which use the TSDB default) — at 10k-GPU topologies
// the per-server rings dominate the telemetry footprint.
const serverSeriesCapacity = 128

// rowTSDB holds the control plane's registered series handles, cached at
// construction so the telemetry tick ingests without lookups. The backend
// registers and samples its own series (tsdbSeries, tick); the slot model
// samples the row.queue gauge directly, the serving model rolls it up from
// its per-server queues.
type rowTSDB struct {
	db    *obs.TSDB
	rules *obs.Rules

	// Row-level gauges (direct observations each tick).
	util     *obs.TSSeries // interval-mean power / provisioned
	headroom *obs.TSSeries // 1 - util: distance to the breaker
	breaker  *obs.TSSeries // provisioned watts (constant, for rule RHS)
	capped   *obs.TSSeries // servers with an applied lock

	// Row-level rollups (fed by per-server children; never observed
	// directly).
	power  *obs.TSSeries // sum of server power
	capmhz *obs.TSSeries // max applied lock
	queue  *obs.TSSeries // serve: sum of replica queues; slot: front-door depth

	// Row-level cumulative counters (observed from the run metrics).
	brakeTotal   *obs.TSSeries
	oobFailTotal *obs.TSSeries
	dropTotal    *obs.TSSeries
	reqTotal     *obs.TSSeries

	// Per-server children, indexed by node.
	srvPower []*obs.TSSeries
	srvCap   []*obs.TSSeries
}

// initTSDB registers the row's series hierarchy, the backend's series in
// their place within it.
func (r *Row) initTSDB(o *obs.Observer) {
	db := o.TimeSeries()
	if db == nil {
		return
	}
	ts := &rowTSDB{db: db, rules: o.RuleEngine()}

	site := db.Series("site.power", obs.LevelSite, obs.WithUnit("W"))
	ts.power = db.Series("row.power", obs.LevelRow, obs.WithUnit("W"),
		obs.WithParent(site, obs.AggSum))
	ts.util = db.Series("row.util", obs.LevelRow, obs.WithUnit("frac"))
	ts.headroom = db.Series("row.headroom", obs.LevelRow, obs.WithUnit("frac"))
	ts.breaker = db.Series("row.breaker", obs.LevelRow, obs.WithUnit("W"))
	ts.capmhz = db.Series("row.capmhz", obs.LevelRow, obs.WithUnit("MHz"))
	ts.capped = db.Series("row.capped_servers", obs.LevelRow, obs.WithUnit("servers"))
	ts.queue = db.Series("row.queue", obs.LevelRow, obs.WithUnit("requests"))
	serverSeries := r.be.tsdbSeries(ts)
	ts.brakeTotal = db.Series("row.brake_total", obs.LevelRow, obs.CounterSeries())
	ts.oobFailTotal = db.Series("row.oob_fail_total", obs.LevelRow, obs.CounterSeries())
	ts.dropTotal = db.Series("row.drops_total", obs.LevelRow, obs.CounterSeries())
	ts.reqTotal = db.Series("row.req_total", obs.LevelRow, obs.CounterSeries())

	n := len(r.nodes)
	ts.srvPower = make([]*obs.TSSeries, n)
	ts.srvCap = make([]*obs.TSSeries, n)
	for i := range r.nodes {
		lbl := obs.Label("server", strconv.Itoa(i))
		ts.srvPower[i] = db.Series(obs.MergeLabels("server.power", lbl), obs.LevelServer,
			obs.WithUnit("W"), obs.WithParent(ts.power, obs.AggSum),
			obs.WithCapacity(serverSeriesCapacity))
		ts.srvCap[i] = db.Series(obs.MergeLabels("server.capmhz", lbl), obs.LevelServer,
			obs.WithUnit("MHz"), obs.WithParent(ts.capmhz, obs.AggMax),
			obs.WithCapacity(serverSeriesCapacity))
		serverSeries(i, lbl)
	}
	r.tsdb = ts
}

// tsdbTick ingests one telemetry sample per control-plane signal (the
// backend sampled its own in its tick) and evaluates the alert rules.
// Runs at the end of each telemetry tick; all reads are
// non-destructive (TelemetrySample, PowerUntil), so the sample changes
// nothing downstream. The explicit Flush completes the parent rollups
// for this tick before the rules read them, so `row.power` rules see the
// current tick rather than lagging one interval.
func (r *Row) tsdbTick(now sim.Time, util float64) {
	ts := r.tsdb
	if ts == nil {
		return
	}
	capped := 0
	for i, n := range r.nodes {
		w, _ := r.nodePower(n, now)
		ts.srvPower[i].Observe(now, w)
		ts.srvCap[i].Observe(now, n.appliedLock)
		if n.appliedLock > 0 && !n.dead {
			capped++
		}
	}
	ts.util.Observe(now, util)
	ts.headroom.Observe(now, 1-util)
	ts.breaker.Observe(now, r.metrics.Provisioned)
	ts.capped.Observe(now, float64(capped))
	m := r.metrics
	ts.brakeTotal.Observe(now, float64(m.BrakeEvents))
	ts.oobFailTotal.Observe(now, float64(m.FailedCommands))
	ts.dropTotal.Observe(now, float64(m.Dropped[workload.Low]+m.Dropped[workload.High]))
	ts.reqTotal.Observe(now, float64(m.Completed[workload.Low]+m.Completed[workload.High]))
	ts.db.Flush()
	ts.rules.Eval(now)
}

// scheduleTSDBFinish arms the rules engine's end-of-run resolution as an
// engine event at the resolve timestamp (one evaluation step past the
// last telemetry tick). Resolving through the engine — rather than after
// the drain — keeps the event trace timestamp-ordered: drain-phase
// completions before the resolve time are emitted first, those after it
// later. Called between stopping the telemetry tick and the drain run.
func (r *Row) scheduleTSDBFinish() {
	ts := r.tsdb
	if ts == nil {
		return
	}
	if end := ts.rules.FinishTime(); end > 0 {
		r.eng.At(end, func(sim.Time) { ts.rules.Finish() })
	}
}

// finishTSDB closes the telemetry pipeline at end of run: open alert
// episodes resolve (reason "end-of-run" semantics live in the rules
// engine) and pending rollups flush. Idempotent.
func (r *Row) finishTSDB() {
	if r.tsdb == nil {
		return
	}
	r.tsdb.rules.Finish()
	r.tsdb.db.Flush()
}
