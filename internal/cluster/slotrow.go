package cluster

import (
	"math"

	"polca/internal/gpu"
	"polca/internal/obs"
	"polca/internal/plan"
	"polca/internal/sim"
	"polca/internal/workload"
)

// slotBackend is the paper's slot model (§6.4), the backend behind
// fig13–18: each server executes one whole request at a time. Arrivals
// wait in a bounded per-pool front queue behind an admission gate — the
// fleet balancer routes this row its share of traffic, so the busy-server
// count tracks the offered-load curve (±slack) instead of open-loop
// Poisson fluctuation.
type slotBackend struct {
	*Row
	frontQ [2][]workload.Request // indexed by workload.Priority
	busy   [2]int
	active []*activeReq // per node; nil while idle, else &reqs[node]
	reqs   []activeReq  // per node, reused across its requests
	idle   []*node      // admit's scratch list of idle servers

	// svcEffSec is the row's aggregate mean service time at full clocks;
	// svcAtLock caches each pool's mean service time per applied lock MHz.
	svcEffSec float64
	svcAtLock [2]map[float64]float64
	// cost is the row model's plan, folded once; start sizes each request
	// through it.
	cost plan.InferenceCost
}

// admitGate is a pool's admission limit as computed in one arrival-plan
// bucket. It holds until the plan moves to another bucket or a server of
// the pool gets a new applied lock (Row.applyLock and Row.setArrivalPlan
// reset it to the zero value).
type admitGate struct {
	ok     bool
	bucket int
	limit  int
}

// activeReq tracks the request a node is executing. Each node owns one
// for the whole run, so serving a request allocates nothing: the phases
// live in a fixed buffer, the device times them into a reused Exec, and
// the phase-done handler is bound once.
type activeReq struct {
	req        workload.Request
	phases     [2]gpu.Phase // an inference plan has at most two
	remaining  []gpu.Phase  // the unfinished tail of phases
	exec       gpu.Exec
	phaseStart sim.Time
	timer      sim.Timer
	started    sim.Time
	done       sim.Handler // phaseDone for this node
}

// newSlotBackend builds the slot model; svc is each pool's mean service
// time at full clocks, which seeds the service-time cache.
func newSlotBackend(r *Row, svc [2]float64) (*slotBackend, error) {
	cost, err := plan.NewInferenceCost(plan.InferenceConfig{Model: r.cfg.Model, DType: r.cfg.DType})
	if err != nil {
		return nil, err
	}
	s := &slotBackend{
		Row:       r,
		active:    make([]*activeReq, len(r.nodes)),
		reqs:      make([]activeReq, len(r.nodes)),
		svcEffSec: r.cfg.Shape().MeanServiceSec,
		svcAtLock: [2]map[float64]float64{{0: svc[0]}, {0: svc[1]}},
		cost:      cost,
	}
	for i, n := range r.nodes {
		s.reqs[i].done = func(t sim.Time) { s.phaseDone(n, t) }
	}
	return s, nil
}

// The slot model has no watchdog drain, no TSDB series of its own (tick
// samples the control plane's row.queue) and nothing to settle at end of
// run.
func (*slotBackend) watchdog(sim.Time, bool)               {}
func (*slotBackend) finish(sim.Time)                       {}
func (*slotBackend) tsdbSeries(*rowTSDB) func(int, string) { return func(int, string) {} }

// load holds an executing node's draw until its segment ends, and the last
// segment's and an idle node's until the node's work changes.
func (s *slotBackend) load(n *node, now sim.Time) (float64, bool, sim.Time) {
	a := s.active[n.idx]
	if a == nil {
		return n.gpuIdleW, false, math.MaxInt64
	}
	w, until := a.exec.PowerUntil(now - a.phaseStart)
	if until != math.MaxInt64 {
		until += a.phaseStart
	}
	return w, true, until
}

// tick re-runs admission against the epoch's gate (the offered load
// moved) and samples the front-door depth.
func (s *slotBackend) tick(now sim.Time) {
	s.admit(workload.Low, now)
	s.admit(workload.High, now)
	if ts := s.tsdb; ts != nil {
		ts.queue.Observe(now, float64(len(s.frontQ[workload.Low])+len(s.frontQ[workload.High])))
	}
}

// dispatch enqueues the request at the row's front door and admits as much
// queued work as the admission gate allows.
func (s *slotBackend) dispatch(now sim.Time, req workload.Request) {
	// Buffering is bounded at one queued request per server (§6.6); a
	// production load balancer sheds or redirects beyond that.
	if len(s.frontQ[req.Priority]) >= len(s.pools[req.Priority]) {
		s.note(obs.Event{
			At: now, Kind: obs.KindDrop, Server: -1, Pool: int8(req.Priority),
			Reason: "buffer-full",
		})
		return
	}
	q := append(s.frontQ[req.Priority], req)
	s.frontQ[req.Priority] = q
	if len(q) > s.metrics.MaxQueueLen {
		s.metrics.MaxQueueLen = len(q)
	}
	s.admit(req.Priority, now)
}

// admitLimit returns the pool's current admission gate from its cache,
// recomputing it when the cache was dropped or the arrival plan has moved
// to another bucket.
func (s *slotBackend) admitLimit(p workload.Priority, now sim.Time) int {
	g := &s.gate[p]
	if b := s.arrivalPlan.BucketAt(now); !g.ok || g.bucket != b {
		*g = admitGate{ok: true, bucket: b, limit: s.gateLimit(p, now)}
	}
	return g.limit
}

// The admission gate's slack is gateSlackK·√target busy servers, and at
// least gateSlackMin. The paper gives no slack: both values date from the
// row model's first version, and ROADMAP item 8 measures how far the
// fig13–18 headlines move with gateSlackK.
const (
	gateSlackK   = 0.6
	gateSlackMin = 1.5
)

// gateLimit computes the pool's admission gate: the busy-server count the
// fleet balancer would steer this row to. It follows the offered load
// (arrival rate × nominal service time), stretched by the pool's current
// capping slowdown — a capped fleet runs at higher occupancy to serve the
// same traffic — plus the slack, clamped to the pool. Its inputs are the
// plan's rate at now and the pool's applied locks.
func (s *slotBackend) gateLimit(p workload.Priority, now sim.Time) int {
	pool := s.pools[p]
	if len(pool) == 0 {
		return 0
	}
	busyFrac := s.arrivalPlan.RateAt(now) * s.svcEffSec / float64(len(s.nodes))
	slow := s.poolSlowdown(p)
	target := busyFrac * float64(len(pool)) * slow
	// Square-root staffing slack: keeps the queueing delay independent of
	// pool size as oversubscription adds servers.
	slack := max(gateSlackK*math.Sqrt(target), gateSlackMin)
	return min(int(target+slack), len(pool))
}

// poolSlowdown returns the pool's mean service-time stretch under the
// currently applied locks (1.0 when uncapped).
func (s *slotBackend) poolSlowdown(p workload.Priority) float64 {
	base := s.serviceAt(p, 0)
	if base <= 0 {
		return 1
	}
	var sum float64
	pool := s.pools[p]
	for _, n := range pool {
		sum += s.serviceAt(p, n.appliedLock)
	}
	return sum / float64(len(pool)) / base
}

// serviceAt returns the cached mean service time for the pool's mix at
// the given applied SM-clock lock.
func (s *slotBackend) serviceAt(p workload.Priority, lock float64) float64 {
	v, ok := s.svcAtLock[p][lock]
	if !ok {
		v = s.cfg.meanServiceAt(p, lock)
		s.svcAtLock[p][lock] = v
	}
	return v
}

// admit starts queued requests of pool p on idle servers while the
// gate allows.
func (s *slotBackend) admit(p workload.Priority, now sim.Time) {
	if len(s.frontQ[p]) == 0 {
		return
	}
	limit := s.admitLimit(p, now)
	for len(s.frontQ[p]) > 0 && s.busy[p] < limit {
		idle := s.idle[:0]
		for _, n := range s.pools[p] {
			if s.active[n.idx] == nil && !n.dead && !n.draining {
				idle = append(idle, n)
			}
		}
		s.idle = idle
		if len(idle) == 0 {
			return
		}
		// Pop by shifting, so the queue keeps its backing array.
		q := s.frontQ[p]
		req := q[0]
		s.frontQ[p] = q[:copy(q, q[1:])]
		s.start(idle[s.dispatchRNG.Intn(len(idle))], now, req)
	}
}

// start begins serving a request on a node.
func (s *slotBackend) start(n *node, now sim.Time, req workload.Request) {
	a := &s.reqs[n.idx]
	phases, err := s.cost.AppendPhases(a.phases[:0], 1, req.Input, req.Output)
	if err != nil {
		panic(err) // sizes come from validated classes
	}
	a.req, a.started = req, now
	a.remaining = phases
	if f := s.inj.SlowFactor(n.idx); f > 1 {
		// Straggler: the node takes f× the work per request (same power
		// profile, stretched), like a host with a failing NVLink or thermal
		// throttling the fleet hasn't drained yet.
		for i := range a.remaining {
			a.remaining[i] = a.remaining[i].Scale(f)
		}
	}
	s.active[n.idx] = a
	s.busy[req.Priority]++
	s.startPhase(n, now)
}

// startPhase executes the head of the node's remaining phases under the
// node's current device settings.
func (s *slotBackend) startPhase(n *node, now sim.Time) {
	a := s.active[n.idx]
	for len(a.remaining) > 0 {
		n.dev.RunInto(&a.remaining[0], &a.exec)
		if a.exec.Duration <= 0 {
			a.remaining = a.remaining[1:]
			continue
		}
		a.phaseStart = now
		a.timer = s.eng.AfterCancelable(a.exec.Duration, a.done)
		s.powerChanged(n)
		return
	}
	s.complete(n, now)
}

// phaseDone advances the node past its finished phase.
func (s *slotBackend) phaseDone(n *node, now sim.Time) {
	a := s.active[n.idx]
	a.remaining = a.remaining[1:]
	if len(a.remaining) > 0 {
		s.startPhase(n, now)
		return
	}
	s.complete(n, now)
}

// complete records the request and pulls the next one.
func (s *slotBackend) complete(n *node, now sim.Time) {
	a := s.active[n.idx]
	s.active[n.idx] = nil
	s.powerChanged(n)
	pri := a.req.Priority
	s.metrics.BusySec[pri] += (now - a.started).Seconds()
	s.note(obs.Event{
		At: now, Kind: obs.KindComplete, Server: int32(n.idx), Pool: int8(pri),
		Value: (now - a.req.Arrival).Seconds(),
	})
	s.busy[pri]--
	s.admit(pri, now)
}

// kill drops the request a dying node was executing.
func (s *slotBackend) kill(n *node, now sim.Time) {
	a := s.active[n.idx]
	if a == nil {
		return
	}
	a.timer.Stop()
	s.active[n.idx] = nil
	s.powerChanged(n)
	s.busy[a.req.Priority]--
	s.note(obs.Event{
		At: now, Kind: obs.KindDrop, Server: int32(n.idx), Pool: int8(a.req.Priority),
		Reason: "node-death",
	})
}

// replan rebuilds the node's in-flight phase after a clock change.
func (s *slotBackend) replan(n *node, now sim.Time) {
	a := s.active[n.idx]
	if a == nil || len(a.remaining) == 0 {
		return
	}
	a.timer.Stop()
	elapsed := now - a.phaseStart
	frac := 1.0
	if a.exec.Duration > 0 {
		frac = float64(elapsed) / float64(a.exec.Duration)
	}
	if frac >= 1 {
		s.phaseDone(n, now)
		return
	}
	if frac < 0 {
		frac = 0
	}
	a.remaining[0] = a.remaining[0].Scale(1 - frac)
	s.startPhase(n, now)
}
