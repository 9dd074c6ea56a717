package cluster

import (
	"time"

	"polca/internal/gpu"
	"polca/internal/obs"
	"polca/internal/serve"
	"polca/internal/sim"
	"polca/internal/workload"
)

// This file is the serve-mode row backend: when RowConfig.Serve is set, the
// row runs one continuous-batching serve.Replica per server instead of the
// slot model, and a serve.Router spreads arrivals across each pool. The
// control plane — telemetry, brake, controller, OOB pipeline — is the same
// in both modes and reaches the backend only through the backend
// interface; only where busy time and power come from changes.

// ServeStats aggregates the serving replicas' scheduler counters across the
// row (all zero in slot mode). BusySec in serve mode records residency
// (enqueue to completion) rather than pure service time, since batched
// execution has no exclusive-service interval.
type ServeStats struct {
	// Batches counts continuous-batching iterations formed row-wide.
	Batches int
	// Preemptions counts sequences bounced to recompute under KV pressure.
	Preemptions int
	// PromptTokens and DecodeTokens count prefill tokens processed and
	// tokens generated.
	PromptTokens int64
	DecodeTokens int64
	// MaxRunning is the deepest running batch any replica reached.
	MaxRunning int
	// KVHighWaterFrac is the highest KV-cache occupancy fraction any replica
	// reached; KVHighWaterEvents counts traced new-high-water emissions.
	KVHighWaterFrac   float64
	KVHighWaterEvents int
	// KVReservedTokens and KVFreedTokens are the cumulative KV ledger; they
	// are equal once every replica has drained (the no-leak invariant).
	KVReservedTokens int64
	KVFreedTokens    int64
	// EnergyJ is the integrated GPU energy of every settled iteration
	// row-wide, in tensor-parallel-group joules (replica per-GPU energy
	// times the group size). The per-request attribution sums to exactly
	// this at drain — the conservation invariant.
	EnergyJ float64
	// CapExtraSec and CapDeltaJ aggregate the iterations' extra seconds and
	// extra (or, negative, saved) group joules versus the DVFS uncapped
	// counterfactual; both are exactly 0 on a run that never capped.
	CapExtraSec float64
	CapDeltaJ   float64
}

// retryEntry is one failed-over request waiting to re-enter the router.
// seq is a monotonic admission counter so equal due times replay in FIFO
// order — the heap order is total and the retry stream deterministic.
type retryEntry struct {
	due sim.Time
	seq uint64
	req workload.Request
}

// retryQueue is a by-value min-heap of retry entries ordered by (due,
// seq). Entries are stored inline and the backing array is reused, so the
// steady-state push/pop cycle allocates nothing.
type retryQueue struct {
	entries []retryEntry
}

func (q *retryQueue) len() int { return len(q.entries) }

func (q *retryQueue) less(a, b int) bool {
	ea, eb := &q.entries[a], &q.entries[b]
	if ea.due != eb.due {
		return ea.due < eb.due
	}
	return ea.seq < eb.seq
}

func (q *retryQueue) min() *retryEntry { return &q.entries[0] }

func (q *retryQueue) push(e retryEntry) {
	q.entries = append(q.entries, e)
	i := len(q.entries) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.entries[i], q.entries[parent] = q.entries[parent], q.entries[i]
		i = parent
	}
}

func (q *retryQueue) pop() retryEntry {
	top := q.entries[0]
	last := len(q.entries) - 1
	q.entries[0] = q.entries[last]
	q.entries[last] = retryEntry{}
	q.entries = q.entries[:last]
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		smallest := i
		if l < last && q.less(l, smallest) {
			smallest = l
		}
		if rr < last && q.less(rr, smallest) {
			smallest = rr
		}
		if smallest == i {
			break
		}
		q.entries[i], q.entries[smallest] = q.entries[smallest], q.entries[i]
		i = smallest
	}
	return top
}

// buildShedRanks orders the workload classes by how expendable they are
// to SLO-class-aware shedding, derived from each class's traffic split
// rather than its name: a class running entirely at low priority is batch
// work (rank 0, shed first); a class split across both pools serves
// interactive sessions whose SLO the paper calls latency-critical (rank
// 2, shed last, never at severity 1); everything else is standard
// interactive (rank 1). On Table 6 this maps summarize→0, search→1,
// chat→2. The rank is a property of the class, not the request: a chat
// turn routed to the low-priority pool is still a critical-class request.
func buildShedRanks(classes []workload.Class) map[string]int {
	ranks := make(map[string]int, len(classes))
	for _, c := range classes {
		switch {
		case c.LowShare >= 1:
			ranks[c.Name] = 0
		case c.LowShare > 0:
			ranks[c.Name] = 2
		default:
			ranks[c.Name] = 1
		}
	}
	return ranks
}

// shedRank resolves a request's shed rank; requests from classes outside
// the configured table (replayed foreign traces) fall back to priority.
func (b *serveBackend) shedRank(req workload.Request) int {
	if rank, ok := b.shedRanks[req.Class]; ok {
		return rank
	}
	if req.Priority == workload.Low {
		return 0
	}
	return 1
}

// classDigest returns the class's quantile sketch, creating it on first
// use.
func classDigest(m map[string]*obs.Digest, class string) *obs.Digest {
	d := m[class]
	if d == nil {
		d = obs.NewDigest(obs.DefaultCompression)
		m[class] = d
	}
	return d
}

// defaultTTFTSLO is the TTFT SLO threshold when RowConfig.TTFTSLO is
// unset.
const defaultTTFTSLO = 15 * time.Second

// serveBackend is the request-level serving model: one continuous-batching
// serve.Replica per server, a serve.Router per pool spreading arrivals
// across it, and the serve-mode fault-tolerance layer (failover retry
// queue, class shedding, per-replica circuit breakers, watchdog drain).
type serveBackend struct {
	*Row
	scfg    serve.Config // resolved serving config
	reps    []replica    // per node
	routers [2]serve.Router
	// Reusable routing scratch: each pool's candidate endpoints and their
	// nodes, and the decision log's candidate snapshot.
	eps      [2][]serve.Endpoint
	epNodes  [2][]*node
	decCands []obs.RouteCandidate

	// Fault-tolerance runtime: the retry queue ordered by (due time,
	// admission order), its monotonic tie-break counter, the earliest armed
	// pump time (0 = none), the cached pump handler (so requeues allocate
	// no closures in steady state), the current class-shed severity, the
	// consecutive ticks a replica has been at KV high water, and whether
	// the watchdog drain holds every replica.
	retryQ      retryQueue
	retrySeq    uint64
	retryArmed  sim.Time
	retryPumpFn sim.Handler
	shedLevel   int
	kvHighTicks int
	shedRanks   map[string]int
	wdDrain     bool

	// sloSec is the TTFT SLO threshold behind ClassSLOOK and the TSDB's
	// SLO counters (row.ttft_ok / row.ttft_total).
	sloSec float64

	// TSDB series, registered by tsdbSeries (nil series no-op).
	kv, ttft, tbt, ttftOK, ttftTotal *obs.TSSeries
	retryTotal, shedTotal            *obs.TSSeries
	srvKV, srvQueue                  []*obs.TSSeries
}

// replica is one node's serving replica with its circuit-breaker state:
// the queue-full sheds of this telemetry epoch and the reopen time after a
// shed storm tripped it.
type replica struct {
	*serve.Replica
	shedEpoch    int
	circuitUntil sim.Time
}

// newServeBackend builds the per-node replicas and per-pool routers. The
// serving model defaults to the row's model so callers only override what
// differs.
func newServeBackend(r *Row) (*serveBackend, error) {
	scfg := *r.cfg.Serve
	if scfg.Model.Params == 0 {
		scfg.Model = r.cfg.Model
		scfg.DType = r.cfg.DType
	}
	scfg = scfg.WithDefaults()
	if err := scfg.Validate(gpu.A100SXM80GB()); err != nil {
		return nil, err
	}
	slo := r.cfg.TTFTSLO
	if slo == 0 {
		slo = defaultTTFTSLO
	}
	b := &serveBackend{Row: r, scfg: scfg, reps: make([]replica, len(r.nodes)),
		shedRanks: r.cfg.ShedRanks, sloSec: slo.Seconds()}
	if b.shedRanks == nil {
		b.shedRanks = buildShedRanks(r.cfg.Classes)
	}
	b.retryPumpFn = b.retryPump
	for p := range b.routers {
		rt, err := serve.NewRouter(scfg.Router)
		if err != nil {
			return nil, err
		}
		b.routers[p] = rt
	}
	m := r.metrics
	m.TTFT, m.TBT = map[string]*obs.Digest{}, map[string]*obs.Digest{}
	m.ClassEnergyJ, m.ClassTokens = map[string]float64{}, map[string]int64{}
	m.ClassArrived, m.ClassSLOOK, m.ClassShed = map[string]int{}, map[string]int{}, map[string]int{}
	r.dec.UpdateMeta(func(dm *obs.DecisionMeta) { dm.Serve, dm.Router = true, scfg.Router })
	for _, n := range r.nodes {
		srv := int32(n.idx)
		rep, err := serve.NewReplica(r.eng, scfg, n.dev, n.idx, int8(n.pri))
		if err != nil {
			return nil, err
		}
		rep.OnFirstToken = func(s *serve.Seq, now sim.Time) {
			sec := s.TTFTSeconds()
			classDigest(m.TTFT, s.Req.Class).Add(sec)
			b.ttft.Observe(now, sec)
			b.ttftTotal.Add(now, 1)
			if sec <= b.sloSec {
				m.ClassSLOOK[s.Req.Class]++
				b.ttftOK.Add(now, 1)
			}
		}
		rep.OnComplete = func(s *serve.Seq, now sim.Time) {
			m.BusySec[s.Req.Priority] += (now - s.Enqueued).Seconds()
			tbt := s.MeanTBTSeconds()
			classDigest(m.TBT, s.Req.Class).Add(tbt)
			b.tbt.Observe(now, tbt)
			m.ClassEnergyJ[s.Req.Class] += s.EnergyJ()
			m.ClassTokens[s.Req.Class] += int64(s.Decoded())
			b.note(obs.Event{
				At: now, Kind: obs.KindComplete, Server: srv, Pool: int8(s.Req.Priority),
				Value: (now - s.Req.Arrival).Seconds(),
			})
		}
		rep.OnDrop = func(s *serve.Seq, now sim.Time, reason string) {
			// Dropped requests keep their partial attribution so per-class
			// energy still sums to the replica-integrated total — including
			// failed attempts that the failover path re-admits (the retried
			// attempt recomputes from scratch, but the energy was spent).
			m.ClassEnergyJ[s.Req.Class] += s.EnergyJ()
			m.ClassTokens[s.Req.Class] += int64(s.Decoded())
			// The *Seq is recycled after this callback; fail takes the
			// request by value, so nothing outlives it. The replica already
			// closed the request's root span.
			b.fail(now, srv, s.Req, reason, true)
		}
		b.reps[n.idx].Replica = rep
	}
	return b, nil
}

// load holds until the replica's power horizon. The running batch changes
// only at an iteration's formation or end, or in Enqueue and Fail, so the
// busy flag holds with it.
func (b *serveBackend) load(n *node, now sim.Time) (float64, bool, sim.Time) {
	rep := b.reps[n.idx].Replica
	w, until := rep.PowerUntil(now)
	return w, rep.Running() > 0, until
}

func (b *serveBackend) replan(n *node, now sim.Time) {
	b.reps[n.idx].Replan(now)
	b.powerChanged(n)
}

// admit has nothing to do: replicas pull their own work, there is no
// central queue.
func (*serveBackend) admit(workload.Priority, sim.Time) {}

// kill fails the dying node's replica; its OnDrop callback records each
// lost request.
func (b *serveBackend) kill(n *node, now sim.Time) { b.reps[n.idx].Fail(now) }

// watchdog puts every replica into graceful drain — in-flight decodes
// finish, new admissions are refused — while the deadman watchdog holds
// the row, when RowConfig.WatchdogDrain arms it.
func (b *serveBackend) watchdog(now sim.Time, engaged bool) {
	if !b.cfg.WatchdogDrain {
		return
	}
	b.wdDrain = engaged
	for _, n := range b.nodes {
		b.noteDrain(n, now, engaged, "watchdog")
	}
}

// dispatch routes one request to a replica in its priority pool. Dead,
// draining, and circuit-open nodes are excluded from the endpoint set; an
// empty set or a full replica queue sheds the request — or, with the
// failover path armed, requeues it for a bounded, backed-off retry. With
// class shedding armed, a power emergency degrades admission by shed rank
// before routing is even attempted.
func (b *serveBackend) dispatch(now sim.Time, req workload.Request) {
	pri := req.Priority
	if req.Retry == 0 {
		b.metrics.ClassArrived[req.Class]++
	}
	if b.cfg.ServeClassShed && b.shedLevel > 0 && b.shedRank(req) < b.shedLevel {
		b.metrics.ClassShed[req.Class]++
		b.drop(now, -1, req, "class-shed", false)
		return
	}
	circuit := b.cfg.ServeCircuitSheds > 0
	eps := b.eps[pri][:0]
	nodes := b.epNodes[pri][:0]
	for _, n := range b.pools[pri] {
		rep := &b.reps[n.idx]
		if n.dead || n.draining || b.wdDrain || (circuit && now < rep.circuitUntil) {
			continue
		}
		ep := serve.Endpoint{Rep: rep.Replica, CappedMHz: n.appliedLock}
		ep.Snapshot()
		eps = append(eps, ep)
		nodes = append(nodes, n)
	}
	b.eps[pri], b.epNodes[pri] = eps, nodes
	i := b.routers[pri].Pick(eps, req)
	b.recordRouteDecision(now, req, eps, nodes, i)
	if i < 0 {
		b.fail(now, -1, req, "no-server", false)
		return
	}
	n := nodes[i]
	rep := &b.reps[n.idx]
	ok := rep.Enqueue(now, req)
	b.powerChanged(n)
	if !ok {
		b.noteShed(rep, n, now)
		b.fail(now, int32(n.idx), req, "queue-full", false)
		return
	}
	if q := rep.QueueLen(); q > b.metrics.MaxQueueLen {
		b.metrics.MaxQueueLen = q
	}
}

// recordRouteDecision snapshots one router pick into the decision log: the
// request's routing-relevant fields and the exact candidate set (server
// index, load, KV occupancy, applied cap) the router chose from. The
// candidate scratch slice is reused across calls and copied into the
// recorder's arena, so steady-state recording allocates nothing.
func (b *serveBackend) recordRouteDecision(now sim.Time, req workload.Request, eps []serve.Endpoint, nodes []*node, pick int) {
	if b.dec == nil {
		return
	}
	cands := b.decCands[:0]
	for j := range eps {
		cands = append(cands, obs.RouteCandidate{
			Server:    int32(nodes[j].idx),
			Load:      int32(eps[j].Load),
			KVFrac:    eps[j].KVFrac,
			CappedMHz: eps[j].CappedMHz,
		})
	}
	b.decCands = cands
	chosen := int32(-1)
	if pick >= 0 {
		chosen = int32(pick)
	}
	b.dec.RecordRoute(obs.Decision{
		At:      now,
		ReqID:   req.ID,
		Class:   req.Class,
		Pri:     int8(req.Priority),
		Retry:   int32(req.Retry),
		Session: req.Session,
		Prefix:  req.PrefixGroup,
		Chosen:  chosen,
	}, cands)
}

// fail handles a request the serving path lost: with retry budget
// remaining it re-enters the router after a deterministic backoff,
// otherwise it is finally dropped. spanned reports whether a replica
// already closed the request's root span.
func (b *serveBackend) fail(now sim.Time, srv int32, req workload.Request, reason string, spanned bool) {
	if b.cfg.ServeRetries > 0 {
		if req.Retry < b.cfg.ServeRetries {
			b.requeue(now, srv, req, reason)
			return
		}
		reason = "retry-exhausted"
	}
	b.drop(now, srv, req, reason, spanned)
}

// requeue pushes a failed-over request onto the retry queue and arms the
// pump after the attempt's backoff — no randomness, so the rand-audit
// invariant and byte-identical reruns hold.
func (b *serveBackend) requeue(now sim.Time, srv int32, req workload.Request, reason string) {
	req.Retry++
	b.note(obs.Event{
		At: now, Kind: obs.KindRetry, Server: srv, Pool: int8(req.Priority),
		Value: float64(req.Retry), Reason: reason,
	})
	base := b.cfg.ServeRetryBackoff
	if base <= 0 {
		base = b.cfg.TelemetryInterval
	}
	due := now + backoff(base, req.Retry)
	b.retrySeq++
	b.retryQ.push(retryEntry{due: due, seq: b.retrySeq, req: req})
	if b.retryArmed == 0 || due < b.retryArmed {
		b.retryArmed = due
		b.eng.At(due, b.retryPumpFn)
	}
}

// retryPump re-dispatches every retry entry that has come due, then
// re-arms itself for the next one. Stale pump firings (a later entry armed
// an earlier time) are harmless: the loop is idempotent and the re-arm
// only schedules when the armed time improves.
func (b *serveBackend) retryPump(now sim.Time) {
	if b.retryArmed != 0 && now >= b.retryArmed {
		b.retryArmed = 0
	}
	for b.retryQ.len() > 0 && b.retryQ.min().due <= now {
		e := b.retryQ.pop()
		b.dispatch(now, e.req)
	}
	if b.retryQ.len() > 0 {
		due := b.retryQ.min().due
		if b.retryArmed == 0 || due < b.retryArmed {
			b.retryArmed = due
			b.eng.At(due, b.retryPumpFn)
		}
	}
}

// noteShed feeds the per-replica circuit breaker: enough queue-full sheds
// within one telemetry epoch (the counters reset every tick) trip the
// node's admission circuit for the cooldown, steering the router away from
// a hot-spotted replica instead of hammering it.
func (b *serveBackend) noteShed(rep *replica, n *node, now sim.Time) {
	if b.cfg.ServeCircuitSheds <= 0 {
		return
	}
	rep.shedEpoch++
	if rep.shedEpoch != b.cfg.ServeCircuitSheds || now < rep.circuitUntil {
		return
	}
	cooldown := b.cfg.ServeCircuitCooldown
	if cooldown <= 0 {
		cooldown = 30 * time.Second
	}
	rep.circuitUntil = now + cooldown
	b.note(obs.Event{
		At: now, Kind: obs.KindCircuitOpen, Server: int32(n.idx), Pool: int8(n.pri),
		Value: float64(rep.shedEpoch),
	})
}

// tick runs the serve-mode health bookkeeping once per telemetry epoch —
// circuit-breaker shed counters reset, and the class-shed severity tracks
// the row's emergency signals — then samples the replicas into the TSDB.
// A row with the knobs off and no TSDB pays three branch checks.
func (b *serveBackend) tick(now sim.Time) {
	if b.cfg.ServeCircuitSheds > 0 {
		for i := range b.reps {
			b.reps[i].shedEpoch = 0
		}
	}
	if b.cfg.ServeClassShed {
		if lvl, reason := b.shedTarget(); lvl != b.shedLevel {
			b.shedLevel = lvl
			b.tracer.Emit(obs.Event{
				At: now, Kind: obs.KindShedLevel, Server: -1, Pool: obs.PoolNone,
				Value: float64(lvl), Reason: reason,
			})
		}
	}
	if b.tsdb == nil {
		return
	}
	for i := range b.reps {
		s := b.reps[i].TelemetrySample()
		b.srvKV[i].Observe(now, s.KVFrac)
		b.srvQueue[i].Observe(now, float64(s.Queue))
	}
	if b.retryTotal != nil {
		b.retryTotal.Observe(now, float64(b.metrics.ServeRetries))
		b.shedTotal.Observe(now, float64(b.metrics.ClassSheds()))
	}
}

// shedTarget computes the class-shed severity from the row's emergency
// signals: 2 (shed everything below critical) while the brake is pending
// or engaged or the watchdog holds the row, 1 (shed batch traffic) under a
// deep frequency cap or sustained KV high water, 0 otherwise.
func (b *serveBackend) shedTarget() (int, string) {
	if b.braked || b.brakePending {
		return 2, "brake"
	}
	if b.loop.WatchdogEngaged() {
		return 2, "watchdog"
	}
	high := false
	deep := false
	for _, n := range b.nodes {
		if n.dead {
			continue
		}
		if n.appliedLock > 0 && n.appliedLock <= watchdogLPMHz {
			deep = true
		}
		if b.reps[n.idx].KVFrac() >= serveKVShedFrac {
			high = true
		}
	}
	if high {
		b.kvHighTicks++
	} else {
		b.kvHighTicks = 0
	}
	switch {
	case deep:
		return 1, "deep-cap"
	case b.kvHighTicks >= serveKVShedTicks:
		return 1, "kv-pressure"
	}
	return 0, ""
}

// serveKVShedFrac and serveKVShedTicks define "sustained KV high water"
// for the class-shed severity: some replica's KV occupancy at or above the
// fraction for that many consecutive telemetry epochs.
const (
	serveKVShedFrac  = 0.90
	serveKVShedTicks = 3
)

// drop finally drops a request. When span tracing is on, a request whose
// root span no replica closed — it never reached one: no live replica,
// a full queue, the class shedder, or the end of the run caught it
// waiting to retry — gets one here, so the analyzer sees every outcome.
func (b *serveBackend) drop(now sim.Time, srv int32, req workload.Request, reason string, spanned bool) {
	b.note(obs.Event{
		At: now, Kind: obs.KindDrop, Server: srv, Pool: int8(req.Priority),
		Reason: reason,
	})
	if b.spanSink != nil && !spanned {
		b.spanSink.Emit(obs.Span{
			Req: req.ID, ID: 1, Kind: obs.SpanRequest,
			Start: req.Arrival, End: now,
			Server: srv, Pool: int8(req.Priority), Class: req.Class,
			TTFTSec: -1, Reason: reason, Retry: int32(req.Retry),
		})
	}
}

// finish settles the run. Requests still waiting in the retry queue when
// the run drains are final drops — the conservation invariant (arrived =
// completed + dropped) must hold at drain — and the replicas' scheduler
// counters fold into the run metrics.
func (b *serveBackend) finish(now sim.Time) {
	for b.retryQ.len() > 0 {
		e := b.retryQ.pop()
		b.drop(now, -1, e.req, "end-of-run", false)
	}
	st := &b.metrics.Serve
	group := float64(b.scfg.TensorParallel)
	for i := range b.reps {
		s := b.reps[i].Stats()
		st.Batches += s.Batches
		st.Preemptions += s.Preemptions
		st.PromptTokens += s.PromptTokens
		st.DecodeTokens += s.DecodeTokens
		st.KVHighWaterEvents += s.KVHighWaterEvents
		st.KVReservedTokens += s.KVReservedTokens
		st.KVFreedTokens += s.KVFreedTokens
		st.EnergyJ += s.EnergyJ * group
		st.CapExtraSec += s.CapExtraSec
		st.CapDeltaJ += s.CapDeltaJ * group
		if s.MaxRunning > st.MaxRunning {
			st.MaxRunning = s.MaxRunning
		}
		if s.KVHighWaterFrac > st.KVHighWaterFrac {
			st.KVHighWaterFrac = s.KVHighWaterFrac
		}
	}
}

// tsdbSeries registers the serving signals: KV occupancy, queue depth and
// TTFT/TBT latencies, plus the failover and shed counters when a
// fault-tolerance knob is armed (so the series list and rule bindings of
// other configurations stay as they were).
func (b *serveBackend) tsdbSeries(ts *rowTSDB) func(i int, lbl string) {
	db, c := ts.db, b.cfg
	b.kv = db.Series("row.kv", obs.LevelRow, obs.WithUnit("frac"))
	b.ttft = db.Series("row.ttft", obs.LevelRow, obs.WithUnit("s"))
	b.tbt = db.Series("row.tbt", obs.LevelRow, obs.WithUnit("s"))
	b.ttftOK = db.Series("row.ttft_ok", obs.LevelRow, obs.CounterSeries())
	b.ttftTotal = db.Series("row.ttft_total", obs.LevelRow, obs.CounterSeries())
	if c.ServeRetries > 0 || c.ServeClassShed || c.ServeCircuitSheds > 0 || c.WatchdogDrain {
		b.retryTotal = db.Series("row.retries_total", obs.LevelRow, obs.CounterSeries())
		b.shedTotal = db.Series("row.sheds_total", obs.LevelRow, obs.CounterSeries())
	}
	b.srvKV = make([]*obs.TSSeries, len(b.nodes))
	b.srvQueue = make([]*obs.TSSeries, len(b.nodes))
	return func(i int, lbl string) {
		b.srvKV[i] = db.Series(obs.MergeLabels("server.kv", lbl), obs.LevelServer,
			obs.WithUnit("frac"), obs.WithParent(b.kv, obs.AggMax),
			obs.WithCapacity(serverSeriesCapacity))
		b.srvQueue[i] = db.Series(obs.MergeLabels("server.queue", lbl), obs.LevelServer,
			obs.WithUnit("requests"), obs.WithParent(ts.queue, obs.AggSum),
			obs.WithCapacity(serverSeriesCapacity))
	}
}
